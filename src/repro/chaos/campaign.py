"""The chaos campaign runner.

One *chaos run* = one :class:`ChaosRunConfig`: build a protocol
deployment on the edge topology, compose a seed-deterministic fault
schedule from the configured nemeses, drive a client workload through
the storm, and check the outcome three ways:

* **history** — :func:`~repro.consistency.regular.check_regular` over
  every recorded operation (``rowa_async`` is exempt: it is eventually
  consistent *by design*, so the run records a staleness report
  instead);
* **invariants** — the online
  :class:`~repro.chaos.invariants.InvariantMonitor` (lease-serve
  safety, epoch/logical-clock monotonicity);
* **liveness** — every fault window ends by the nemesis horizon, so the
  system always gets a fault-free tail; a client workload still
  unfinished at the (generous) time limit is itself a violation.

A run is a pure function of its config: the simulator, the workload
streams, and every nemesis draw from seeds derived with ``zlib.crc32``,
so the same config produces the identical
:class:`ChaosRunResult` in any process.  That lets runs fan out through
:func:`~repro.harness.sweeps.run_sweep` (:func:`run_campaign`), and
makes every reported violation replayable from its config alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..consistency.history import History
from ..consistency.regular import check_regular, staleness_report
from ..edge.deployments import PROTOCOL_DEPLOYERS, Deployment, check_dq_fields, deploy
from ..edge.topology import EdgeTopology, EdgeTopologyConfig
from ..sim.clock import DriftingClock
from ..sim.kernel import Process, Simulator, all_settled, any_of
from ..types import READ
from ..workload.generators import BernoulliOpStream, ZipfKeyChooser
from ..workload.runner import closed_loop
from .faults import FaultSchedule
from .invariants import InvariantMonitor
from .nemesis import NEMESES, NemesisContext, build_schedule, nemesis_rng
from .weaken import WEAKENERS, apply_weakener

__all__ = ["ChaosRunConfig", "ChaosRunResult", "run_chaos", "run_campaign"]

#: protocols whose histories are *not* held to regular semantics
EVENTUALLY_CONSISTENT = ("rowa_async",)


def _check_run_config(config: Any) -> None:
    """The checks a chaos run and a controlled (mc) run share: a known
    protocol, a known weakener on DQVL only, one edge, one client and
    one operation per client."""
    if config.protocol not in PROTOCOL_DEPLOYERS:
        raise ValueError(
            f"unknown protocol {config.protocol!r}; "
            f"choose from {sorted(PROTOCOL_DEPLOYERS)}"
        )
    if config.weaken and config.weaken not in WEAKENERS:
        raise ValueError(
            f"unknown weakener {config.weaken!r}; "
            f"choose from {sorted(WEAKENERS)}"
        )
    if config.weaken and config.protocol != "dqvl":
        raise ValueError(
            f"weakeners patch DQVL nodes and leases; protocol "
            f"{config.protocol!r} has none (weaken={config.weaken!r} needs "
            "protocol 'dqvl')"
        )
    if config.num_edges < 1 or config.num_clients < 1:
        raise ValueError("need at least one edge and one client")
    if config.ops_per_client < 1:
        raise ValueError("ops_per_client must be at least 1")


@dataclass(frozen=True)
class ChaosRunConfig:
    """Everything that determines one chaos run (picklable, hashable)."""

    protocol: str = "dqvl"
    seed: int = 0
    nemeses: Tuple[str, ...] = ("crash_storm", "rolling_partition", "loss_burst")
    num_edges: int = 3
    num_clients: int = 3
    ops_per_client: int = 40
    write_ratio: float = 0.3
    num_keys: int = 4
    #: all fault windows end by this time; the workload runs past it
    horizon_ms: float = 10_000.0
    lease_length_ms: float = 1_200.0
    max_drift: float = 0.01
    #: uniform extra network jitter (enables message reordering)
    jitter_ms: float = 5.0
    #: finite so unreachable quorums reject instead of blocking forever
    client_max_attempts: Optional[int] = 4
    #: named bug injection from :mod:`repro.chaos.weaken` ('' = healthy)
    weaken: str = ""
    sample_interval_ms: float = 100.0
    #: hard stop; a workload still running here is a liveness violation
    time_limit_ms: float = 600_000.0
    #: opt-in observability: when set, the result carries deterministic
    #: JSONL and Chrome-trace exports of the run's causal span tree,
    #: with the fault schedule rendered as annotation windows
    trace: bool = False
    #: how clients reach storage: ``direct`` places a service client on
    #: the app host (the historical campaign setup); ``frontend`` drives
    #: Figure 1's full path through the edge front ends — required for
    #: degraded-mode serving, which lives in the front end
    mode: str = "direct"
    #: enable the adaptive resilience layer (failure detectors, hedged
    #: QRPCs, degraded reads when a storage attempt fails, post-crash
    #: catch-up); implies front-end semantics for degradation, so pair
    #: it with ``mode="frontend"`` for a meaningful comparison
    resilience: bool = False
    #: QRPC retransmission schedule override; ``None`` derives both from
    #: the topology's delay distribution (jitter-aware worst-case RTT)
    qrpc_initial_timeout_ms: Optional[float] = None
    qrpc_max_timeout_ms: Optional[float] = None
    #: declarative IQS/OQS quorum shapes (canonical spec strings, e.g.
    #: ``"grid:3x3"``; kept as strings so the config stays hashable);
    #: ``None`` = the paper's defaults
    iqs_spec: Optional[str] = None
    oqs_spec: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nemeses", tuple(self.nemeses))
        _check_run_config(self)
        if self.mode not in ("direct", "frontend"):
            raise ValueError(f"mode must be 'direct' or 'frontend', not {self.mode!r}")
        check_dq_fields(
            self, "resilience", "qrpc_initial_timeout_ms",
            "qrpc_max_timeout_ms", "iqs_spec", "oqs_spec",
        )
        initial = self.qrpc_initial_timeout_ms
        if initial is not None and not 0.0 < initial < math.inf:
            raise ValueError("qrpc_initial_timeout_ms must be positive and finite")
        if self.qrpc_max_timeout_ms is not None:
            if not (initial or 0.0) <= self.qrpc_max_timeout_ms < math.inf:
                raise ValueError(
                    "qrpc_max_timeout_ms must be finite and >= qrpc_initial_timeout_ms"
                )
        for name in self.nemeses:
            if name not in NEMESES:
                raise ValueError(
                    f"unknown nemesis {name!r}; choose from {sorted(NEMESES)}"
                )
        if self.horizon_ms <= 0 or self.horizon_ms >= self.time_limit_ms:
            raise ValueError("need 0 < horizon_ms < time_limit_ms")


@dataclass
class ChaosRunResult:
    """Outcome of one chaos run."""

    config: ChaosRunConfig
    schedule: FaultSchedule
    violations: List[Dict[str, Any]]
    stats: Dict[str, Any] = field(default_factory=dict)
    #: exports populated when ``config.trace`` is set (strings so they
    #: survive the sweep's process boundary)
    trace_jsonl: Optional[str] = None
    trace_chrome: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "config": dataclasses.asdict(self.config),
            "schedule": self.schedule.to_json_obj(),
            "violations": self.violations,
            "stats": self.stats,
        }


def _build_deployment(config: Any, sim: Simulator, **dq_fields: Any):
    """The topology and deployment of a chaos run or a controlled (mc)
    run: both pin the invalidation retransmission to 200 ms and add
    *dq_fields* for the dual-quorum protocols."""
    topology = EdgeTopology(
        sim,
        EdgeTopologyConfig(
            num_edges=config.num_edges,
            num_clients=config.num_clients,
            jitter_ms=config.jitter_ms,
        ),
    )
    return topology, deploy(
        config.protocol, topology, config.client_max_attempts,
        lease_length_ms=config.lease_length_ms, max_drift=config.max_drift,
        inval_initial_timeout_ms=200.0, **dq_fields,
    )


def _spawn_clients(config: Any, sim: Simulator, deployment: Deployment,
                   history: History, frontend: bool = False) -> List[Process]:
    """Spawn the closed-loop client workloads of a chaos or mc run, each
    process named after its client's node id.

    *frontend* drives Figure 1's full path (app client → front end →
    service client) instead of a direct service client; locality 1.0
    keeps the redirection deterministic (the policy short-circuits
    without an rng draw).  Workload streams get their own seeded rngs
    (not ``sim.rng``) so the operation sequence is a function of the
    config alone — replaying a shrunk schedule reproduces the exact same
    client behaviour.
    """
    keys = [f"k{i}" for i in range(config.num_keys)]
    procs = []
    for c in range(config.num_clients):
        if frontend:
            client = deployment.app_client(c, locality=1.0)
        else:
            client = deployment.direct_client(c)
        stream = BernoulliOpStream(
            nemesis_rng(config.seed, f"workload-{c}"),
            ZipfKeyChooser(keys, s=0.9),
            config.write_ratio,
            label=f"c{c}-",
        )
        procs.append(sim.spawn(
            closed_loop(sim, client, stream, history, config.ops_per_client),
            name=client.node_id,
        ))
    return procs


def _liveness_violations(procs: List[Process],
                         time_limit_ms: float) -> List[Dict[str, Any]]:
    """One liveness record per client workload unfinished at
    *time_limit_ms*; a client's own exception is raised, not recorded."""
    violations: List[Dict[str, Any]] = []
    for c, proc in enumerate(procs):
        if proc.failed:
            raise proc.exception  # a client's own error, not a verdict
        if not proc.done:
            violations.append({
                "type": "liveness",
                "node": proc.name,
                "detail": (
                    f"client {c}'s workload did not finish by "
                    f"{time_limit_ms:.0f} ms (stuck operation)"
                ),
            })
    return violations


def _regular_violations(found) -> List[Dict[str, Any]]:
    """The records of the regular-semantics violations *found* by
    :func:`~repro.consistency.regular.check_regular`."""
    return [
        {
            "type": "regular",
            "key": v.read.key,
            "node": v.read.client,
            "time": v.read.end,
            "detail": str(v),
        }
        for v in found
    ]


def _apply_drift(config: ChaosRunConfig, sim: Simulator,
                 topology: EdgeTopology, schedule: FaultSchedule) -> None:
    """Replace server clocks per the schedule's clock_drift faults.

    Applied before any traffic at t=0: lease arithmetic bakes absolute
    expiry times into state, so a clock must drift for the whole run,
    never jump mid-run (drift is bounded in the system model; steps are
    not).  Drift is clamped to the configured ``max_drift`` — the bound
    every lease table and view was built with.
    """
    for fault in schedule.drift_faults():
        drift = max(-config.max_drift, min(config.max_drift, fault.param("drift")))
        for node_id in fault.nodes:
            try:
                node = topology.network.node(node_id)
            except KeyError:
                continue
            node.clock = DriftingClock(
                sim, drift=drift, offset=fault.param("offset"),
                max_drift=config.max_drift,
            )


def _count_ops(ops) -> Dict[str, int]:
    """Classify operations for the availability report."""
    counts = {
        "reads_healthy": 0, "reads_degraded": 0, "reads_failed": 0,
        "writes_ok": 0, "writes_failed": 0,
    }
    for op in ops:
        if op.kind == READ:
            if not op.ok:
                counts["reads_failed"] += 1
            elif op.degraded:
                counts["reads_degraded"] += 1
            else:
                counts["reads_healthy"] += 1
        elif op.ok:
            counts["writes_ok"] += 1
        else:
            counts["writes_failed"] += 1
    return counts


def _availability_report(
    history: History, deployment: Deployment, schedule: FaultSchedule
) -> Dict[str, Any]:
    """Availability under fault: who got served, how, and how stale.

    Healthy and degraded reads are counted separately — a degraded read
    is *successful* for availability (the client got a value with an
    explicit staleness label) but is excluded from the consistency
    checkers, so the two numbers must never be conflated.
    """
    report: Dict[str, Any] = dict(_count_ops(history))
    report["reads_successful"] = (
        report["reads_healthy"] + report["reads_degraded"]
    )
    ages = [
        op.staleness_ms for op in history.reads()
        if op.ok and op.degraded and op.staleness_ms is not None
    ]
    report["degraded_staleness_ms"] = {
        "count": len(ages),
        "max": max(ages) if ages else 0.0,
        "mean": sum(ages) / len(ages) if ages else 0.0,
    }
    fe_counts = {
        "requests_served": 0, "requests_failed": 0,
        "degraded_reads": 0, "writes_shed": 0,
    }
    for fe in deployment.front_ends:
        fe_counts["requests_served"] += fe.requests_served
        fe_counts["requests_failed"] += fe.requests_failed
        fe_counts["degraded_reads"] += fe.degraded_reads
        fe_counts["writes_shed"] += fe.writes_shed
    report["front_ends"] = fe_counts
    res_counts = {
        "suspicions": 0, "hedges_sent": 0,
        "adaptive_rounds": 0, "catchups_started": 0,
    }
    holders = list(deployment.servers) + [
        fe.store_client for fe in deployment.front_ends
    ]
    for holder in holders:
        res_counts["catchups_started"] += getattr(holder, "catchups_started", 0)
        res = getattr(holder, "resilience", None)
        if res is None:
            continue
        res_counts["suspicions"] += res.detector.suspicions
        res_counts["hedges_sent"] += res.hedges_sent
        res_counts["adaptive_rounds"] += res.adaptive_rounds
    report["resilience"] = res_counts
    timeline: List[Dict[str, Any]] = []
    for fault in schedule.runtime_faults():
        in_window = [
            op for op in history if fault.start <= op.end <= fault.end
        ]
        entry: Dict[str, Any] = {
            "fault": fault.describe(),
            "start": fault.start,
            "end": fault.end,
        }
        entry.update(_count_ops(in_window))
        timeline.append(entry)
    report["timeline"] = timeline
    return report


def _check_degraded_staleness(history: History) -> List[Dict[str, Any]]:
    """Every degraded read must honour its advertised staleness bound."""
    violations: List[Dict[str, Any]] = []
    for op in history.reads():
        if not (op.ok and op.degraded):
            continue
        if (op.staleness_ms is None or op.staleness_bound_ms is None
                or op.staleness_ms > op.staleness_bound_ms):
            violations.append({
                "type": "degraded_staleness",
                "key": op.key,
                "node": op.client,
                "time": op.end,
                "detail": (
                    f"degraded read of {op.key!r} served with staleness "
                    f"{op.staleness_ms} ms against advertised bound "
                    f"{op.staleness_bound_ms} ms"
                ),
            })
    return violations


def run_chaos(
    config: ChaosRunConfig, schedule: Optional[FaultSchedule] = None
) -> ChaosRunResult:
    """Execute one chaos run; returns the (deterministic) result.

    *schedule* overrides the nemesis-generated one — the shrinker and
    corpus replay use this to re-run a config under a minimized
    schedule.
    """
    sim = Simulator(seed=config.seed)
    topology, deployment = _build_deployment(
        config, sim,
        qrpc_initial_timeout_ms=config.qrpc_initial_timeout_ms,
        qrpc_max_timeout_ms=config.qrpc_max_timeout_ms,
        iqs_spec=config.iqs_spec, oqs_spec=config.oqs_spec,
        resilience=config.resilience,
    )
    try:
        return _run_chaos(config, schedule, sim, topology, deployment)
    finally:
        sim.close()
        topology.network.close()


def _run_chaos(
    config: ChaosRunConfig, schedule: Optional[FaultSchedule],
    sim: Simulator, topology: EdgeTopology, deployment: Deployment,
) -> ChaosRunResult:
    servers = deployment.servers
    if schedule is None:
        context = NemesisContext(
            servers=tuple(n.node_id for n in servers),
            horizon_ms=config.horizon_ms,
            max_drift=config.max_drift,
        )
        schedule = build_schedule(config.seed, config.nemeses, context)
    schedule = schedule.sorted()

    _apply_drift(config, sim, topology, schedule)
    obs = None
    if config.trace:
        from ..obs import Observability

        obs = Observability(sim).install(topology.network)
    monitor = InvariantMonitor(sim, sample_interval_ms=config.sample_interval_ms)
    monitor.attach(topology.network, servers)
    apply_weakener(deployment, config.weaken)
    schedule.install(sim, topology.network)

    history = History()
    procs = _spawn_clients(config, sim, deployment, history,
                           frontend=config.mode == "frontend")
    # Every fault window ends by the horizon, so the run ends once the
    # horizon has passed and every client has settled: later traffic
    # (renewals, gossip, the monitor samples it drives) belongs to no
    # operation.  time_limit_ms only bounds a workload that is stuck.
    storm_over = all_settled(sim, procs + [sim.sleep(config.horizon_ms)])
    sim.run(until=any_of(sim, [storm_over, sim.sleep(config.time_limit_ms)]))
    monitor.check_now()

    violations = _liveness_violations(procs, config.time_limit_ms)
    stats: Dict[str, Any] = {
        "ops_recorded": len(history),
        "ops_failed": len(history.failures()),
        "messages": topology.network.stats.total_messages,
        "messages_dropped": topology.network.stats.dropped,
        "invariant_samples": monitor.samples_taken,
        "sim_time_ms": sim.now,
        "availability": _availability_report(history, deployment, schedule),
    }
    violations.extend(_check_degraded_staleness(history))
    if config.protocol in EVENTUALLY_CONSISTENT:
        stats["staleness"] = dataclasses.asdict(staleness_report(history))
    else:
        violations.extend(_regular_violations(check_regular(history)))
    for obj in monitor.report():
        violations.append({"type": "invariant", **obj})
    trace_jsonl = trace_chrome = None
    if obs is not None:
        from ..obs import spans_to_chrome, spans_to_jsonl

        obs.finalize(topology.network, deployment)
        trace_jsonl = spans_to_jsonl(obs.tracer, faults=schedule,
                                     metrics=obs.metrics)
        trace_chrome = spans_to_chrome(obs.tracer, faults=schedule)
        # Where the milliseconds went under faults: the availability
        # report gains a phase x percentile budget per op group, with
        # degraded reads split out (their "latency" is the detour cost,
        # not a storage round trip).
        stats["availability"]["phase_budgets"] = (
            obs.latency_budget().to_json_obj()
        )
    return ChaosRunResult(
        config=config, schedule=schedule, violations=violations, stats=stats,
        trace_jsonl=trace_jsonl, trace_chrome=trace_chrome,
    )


def run_campaign(
    configs,
    *,
    workers: Optional[int] = None,
) -> List[ChaosRunResult]:
    """Fan a batch of chaos runs across worker processes.

    Thin wrapper over :func:`repro.harness.sweeps.run_sweep`, imported
    here: a single chaos run never loads the sweep machinery.  Returns one :class:`ChaosRunResult` per config, in
    order.
    """
    from ..harness.sweeps import run_sweep

    return run_sweep(list(configs), workers=workers)
