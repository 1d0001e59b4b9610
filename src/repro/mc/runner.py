"""One controlled run: config + choice list → deterministic outcome.

:func:`run_schedule` is the explorer's unit of work — the analogue of
:func:`repro.chaos.campaign.run_chaos`, but instead of a fault schedule
the input is a list of scheduling *choices* replayed through a
:class:`~repro.mc.controller.RecordingController` (see that module for
the decision-point format).  Everything else is shared with the chaos
engine: the deployment builder, the weakener registry, the client
fleet, and the full oracle stack —
:class:`~repro.chaos.invariants.InvariantMonitor` online plus
:func:`~repro.consistency.regular.check_regular` over the recorded
history, plus a liveness check (all client workloads must finish within
the time limit; a client's own exception is raised, not reported).

A run is a pure function of ``(config, choices)``: the simulator seed,
the per-purpose network RNG streams, and the workload streams are all
derived from the config, and every remaining ordering freedom is pinned
by the controller.  :attr:`McRunResult.trace_text` serialises the
observable outcome (decisions, operations, violations, stats) as
canonical JSON, so "replaying twice is byte-identical" is a plain
string comparison.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..chaos.campaign import (
    EVENTUALLY_CONSISTENT,
    _build_deployment as _build_run_deployment,
    _check_run_config,
    _liveness_violations,
    _regular_violations,
    _spawn_clients,
)
from ..chaos.invariants import InvariantMonitor
from ..chaos.weaken import apply_weakener
from ..consistency.history import History
from ..consistency.regular import check_regular
from ..edge.deployments import DUAL_QUORUM, Deployment
from ..edge.topology import EdgeTopology
from ..sim.kernel import Simulator, collector_paused
from ..types import Op
from .controller import Decision, RecordingController
from .liveness import LivenessMonitor
from .por import CountingRandom

__all__ = ["McRunConfig", "McRunResult", "run_schedule"]


@dataclass(frozen=True)
class McRunConfig:
    """Everything that determines one controlled run (hashable).

    The defaults describe a deliberately *small, tense* scenario: two
    IQS/OQS edges means the IQS read quorum needs both servers, so a
    single lapsed volume lease already breaks Condition C; the lease
    length is short relative to the workload and ``defer_ms`` exceeds
    it, so deferring one renewal round trip is enough to force a lapse.
    Small state spaces are what make bounded exploration bite.
    """

    protocol: str = "dqvl"
    seed: int = 0
    #: named bug injection from :mod:`repro.chaos.weaken` ('' = healthy)
    weaken: str = ""
    num_edges: int = 2
    num_clients: int = 2
    ops_per_client: int = 6
    write_ratio: float = 0.35
    num_keys: int = 2
    lease_length_ms: float = 400.0
    max_drift: float = 0.0
    jitter_ms: float = 0.0
    client_max_attempts: Optional[int] = 6
    #: delivery-deferral quantum; > lease_length_ms so one deferred
    #: renewal round trip lets a volume lease lapse
    defer_ms: float = 650.0
    #: highest deferral multiple (each delivery has max_defer+1 choices)
    max_defer: int = 1
    #: hard stop; an unfinished workload here is a liveness violation
    time_limit_ms: float = 60_000.0

    def __post_init__(self) -> None:
        _check_run_config(self)


@dataclass
class McRunResult:
    """Outcome of one controlled run."""

    config: McRunConfig
    #: every decision the controller made, in order (the full schedule)
    decisions: List[Decision]
    violations: List[Dict[str, Any]]
    stats: Dict[str, Any] = field(default_factory=dict)
    ops: List[Op] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def choices(self) -> List[int]:
        return [d.chosen for d in self.decisions]

    @property
    def expected_types(self) -> List[str]:
        return sorted({v["type"] for v in self.violations})

    @property
    def trace_text(self) -> str:
        """Canonical JSON of the observable outcome (byte-comparable)."""
        payload = {
            "config": dataclasses.asdict(self.config),
            "decisions": [[d.kind, d.n, d.chosen] for d in self.decisions],
            "ops": [
                [
                    op.kind, op.key, op.value,
                    [op.lc.counter, op.lc.node_id],
                    op.start, op.end, op.client, op.ok, op.hit, op.server,
                ]
                for op in self.ops
            ],
            "violations": self.violations,
            "stats": self.stats,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _build_deployment(config: McRunConfig, sim: Simulator):
    """The chaos engine's deployment, with QRPC pinned to the fixed
    model parameters for the dual-quorum protocols (not derived from the
    topology like chaos runs): the checker controls timing itself, and
    recorded schedules replay against these exact retransmission
    instants.  The baselines' QRPC keeps the topology-derived schedule
    (344 / 5,504 ms at the default delays); the majority fingerprint
    pins it."""
    return _build_run_deployment(
        config, sim, qrpc_initial_timeout_ms=400.0, qrpc_max_timeout_ms=6_400.0
    )


#: step size for the sliced run loop (ms); coarse is fine — it only
#: bounds how long the simulation idles after the last client finishes
_SLICE_MS = 1_000.0


@collector_paused()
def run_schedule(
    config: McRunConfig,
    choices: Sequence[int] = (),
    *,
    fallback: Optional[Callable[[str, int], int]] = None,
    footprint_depth: int = 0,
) -> McRunResult:
    """Execute one run under ``(config, choices)``; returns the outcome.

    *choices* is replayed as the forced prefix; *fallback* decides
    beyond it (``None`` = canonical order — this is how a recorded
    schedule is replayed: force everything, run deterministic).

    *footprint_depth* additionally records per-alternative POR
    footprints on the ``event`` decisions with index below it (see
    :mod:`repro.mc.por`; ``0`` records none); the run itself — choices,
    decision order, trace bytes — is identical for every depth.  The
    cycle collector is paused throughout: the world dies by refcount.
    """
    sim = Simulator(seed=config.seed)
    controller = RecordingController(
        choices,
        fallback,
        defer_ms=config.defer_ms,
        max_defer=config.max_defer,
        footprint_depth=footprint_depth,
    )
    sim.controller = controller
    if footprint_depth:
        # Same seed, same draw sequence, plus a draw counter: lets the
        # controller poison the footprint of any event that consumed
        # shared randomness (see por.py's soundness notes).
        sim.rng = CountingRandom(config.seed)
        controller.rng = sim.rng
    topology, deployment = _build_deployment(config, sim)
    try:
        return _run_schedule(config, sim, controller, topology, deployment)
    finally:
        sim.close()
        topology.network.close()


def _run_schedule(
    config: McRunConfig, sim: Simulator, controller: RecordingController,
    topology: EdgeTopology, deployment: Deployment,
) -> McRunResult:
    servers = deployment.servers

    monitor: Optional[InvariantMonitor] = None
    liveness: Optional[LivenessMonitor] = None
    if config.protocol in DUAL_QUORUM:
        # max_violations=1: the explorer asks "does this schedule
        # violate?", and a single witness answers it.
        monitor = InvariantMonitor(sim, max_violations=1)
        monitor.attach(topology.network, servers)
        liveness = LivenessMonitor(
            sim, defer_ms=config.defer_ms, max_defer=config.max_defer
        )
        liveness.attach(topology.network, servers)
    apply_weakener(deployment, config.weaken)

    history = History()
    # Each process is named after its client's node id, so POR
    # footprints attribute the workload loop to its client.
    procs = _spawn_clients(config, sim, deployment, history)

    # Sliced run with early exit: a warm volume's keeper renews its
    # lease for a whole interest window after the last read, so "run
    # until the queue drains" outlives the workload by far — instead
    # stop as soon as every client workload is done (plus one slice so
    # in-flight invalidation acks land and the monitor sees the final
    # state), or at the liveness limit.  Slices, not
    # ``run(until=<Future>)``: under the controller the stop callback
    # would be one more schedulable slot entry in every recorded run.
    deadline = config.time_limit_ms
    while sim.now < deadline:
        sim.run(until=min(sim.now + _SLICE_MS, deadline))
        if all(p.done for p in procs):
            sim.run(until=min(sim.now + _SLICE_MS, deadline))
            break
    if monitor is not None:
        monitor.check_now()
        liveness.detach()
    controller.finalize()

    violations = _liveness_violations(procs, config.time_limit_ms)
    if config.protocol not in EVENTUALLY_CONSISTENT:
        violations.extend(_regular_violations(check_regular(history)))
    if monitor is not None:
        for obj in monitor.report():
            violations.append({"type": "invariant", **obj})
    if liveness is not None:
        liveness.finalize(
            history.ops,
            client_max_attempts=config.client_max_attempts,
            lease_length_ms=config.lease_length_ms,
        )
        violations.extend(liveness.report())

    stats = {
        "ops_recorded": len(history),
        "ops_failed": len(history.failures()),
        "messages": topology.network.stats.total_messages,
        "messages_dropped": topology.network.stats.dropped,
        "decisions": len(controller.decisions),
        "deviations": sum(1 for d in controller.decisions if d.chosen != 0),
        "sim_time_ms": sim.now,
    }
    return McRunResult(
        config=config,
        decisions=list(controller.decisions),
        violations=violations,
        stats=stats,
        ops=list(history.ops),
    )
