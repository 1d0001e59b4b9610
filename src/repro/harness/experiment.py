"""The experiment runner behind every simulated figure.

:func:`run_response_time` reproduces the paper's prototype experiment
(Section 4.1): ``num_clients`` closed-loop application clients, each
homed at a distinct edge server, issuing reads and writes to their own
object at a given write ratio, with a given access locality, against a
chosen protocol on the paper's delay topology.  It returns the history,
summary metrics, and protocol message counts, from which the Figure 6,
7 and 9 benches print their rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from ..bounds import bounded, check_bounds
from ..consistency.history import History
from ..edge.deployments import Deployment, check_dq_fields, deployed
from ..edge.frontend import LocalityRedirection
from ..edge.topology import EdgeTopologyConfig
from ..sim.kernel import Simulator, all_settled, any_of
from ..workload.generators import BernoulliOpStream, FixedKeyChooser, MarkovBurstStream
from ..workload.runner import closed_loop
from .metrics import HistorySummary, summarize

if TYPE_CHECKING:  # the chaos and obs layers load only in runs that use them
    from ..chaos.faults import FaultSchedule
    from ..obs import Observability

__all__ = ["ExperimentConfig", "ExperimentResult", "run_response_time"]


@dataclass
class ExperimentConfig:
    """Parameters of one response-time run (defaults: the paper's)."""

    protocol: str = "dqvl"
    write_ratio: float = bounded(0.05, 0, 1)
    locality: float = bounded(1.0, 0, 1)
    num_edges: int = bounded(9, 1)
    num_clients: int = bounded(3, 1)
    ops_per_client: int = bounded(200, 1)
    warmup_ops: int = bounded(10, 0)
    seed: int = 0
    #: "direct" — service clients on the app machines, locality switches
    #: the preferred replica per operation (the paper's measurement
    #: setup); "frontend" — requests traverse redirected front ends
    #: (the full Figure 1 architecture).
    mode: str = "direct"
    #: bursty stream instead of IID; mean write-burst length when set
    mean_write_burst: Optional[float] = bounded(None, 1)
    #: dual-quorum deployment fields (see repro.edge.deployments);
    #: ``None`` = the deployers' one rule: a 10 s volume lease and the
    #: paper's majority IQS / read-one-write-all OQS shapes
    lease_length_ms: Optional[float] = bounded(None, 0, lo_open=True, hi_open=False)
    iqs_spec: Optional[str] = None
    oqs_spec: Optional[str] = None
    #: uniform extra network jitter on the paper's delay topology
    jitter_ms: float = bounded(0.0, 0)
    #: simulated-time safety limit
    time_limit_ms: float = bounded(3_600_000.0, 0, lo_open=True)
    #: opt-in observability: span tracing + metrics (see repro.obs)
    trace: bool = False
    #: optional fault windows installed before the workload starts —
    #: lets `repro trace` show, e.g., a read miss inside a partition
    fault_schedule: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if self.mode not in ("direct", "frontend"):
            raise ValueError("mode must be 'direct' or 'frontend'")
        check_bounds(self)
        check_dq_fields(self, "lease_length_ms", "iqs_spec", "oqs_spec")


@dataclass
class ExperimentResult:
    """Outcome of one run.

    A sweep point is this result without its world: ``history``,
    ``warmup_history``, ``deployment`` and ``obs`` are ``None`` there,
    and ``extras`` holds what the sweep's ``collect`` hook read off them.
    """

    config: ExperimentConfig
    history: Optional[History]
    summary: HistorySummary
    protocol_messages: int
    total_requests: int
    sim_time_ms: float
    deployment: Optional[Deployment]
    warmup_history: Optional[History] = None
    #: populated when ``config.trace`` was set: the run's Observability
    #: context (span tracer + metrics), ready for the repro.obs exporters
    obs: Optional[Observability] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def messages_per_request(self) -> float:
        return self.protocol_messages / self.total_requests if self.total_requests else 0.0

    def full_history(self) -> History:
        """Warm-up plus measured operations, time-ordered.

        Consistency checking must see the *whole* execution — a warm-up
        write is a perfectly legal value for the first measured read —
        while latency metrics intentionally exclude the warm-up.

        The sort key is a total order: ``(start, end)`` alone leaves the
        order of operations sharing both timestamps up to the merge
        order, so ties break on client id, kind, and key to keep merged
        histories deterministic.
        """
        merged = History()
        ops = list(self.history.ops)
        if self.warmup_history is not None:
            ops += self.warmup_history.ops
        merged.ops = sorted(
            ops, key=lambda op: (op.start, op.end, op.client, op.kind, op.key)
        )
        return merged


class RedirectedClient:
    """Per-operation replica redirection around a protocol client.

    Before each operation, the preferred replica is pointed at the edge
    that :class:`~repro.edge.frontend.LocalityRedirection` picks: the
    home edge with probability *locality* and a uniformly random distant
    edge otherwise — the paper's access-locality model: the user (or a
    failure of the closest replica) occasionally lands their session on
    a different edge server.  Protocols without replica choice
    (primary/backup, and majority's latency-equivalent quorums) are
    naturally unaffected, which is exactly Figure 7(b)'s flat curves.
    """

    def __init__(self, deployment, inner, home_edge: int, locality: float, rng) -> None:
        self.deployment = deployment
        self.inner = inner
        self.redirection = LocalityRedirection(
            home_edge, range(deployment.topology.config.num_edges), locality
        )
        self.rng = rng

    def _retarget(self) -> None:
        self.deployment.set_preferred_edge(self.inner, self.redirection.pick(self.rng))

    def read(self, key: str):
        self._retarget()
        result = yield from self.inner.read(key)
        return result

    def write(self, key: str, value):
        self._retarget()
        result = yield from self.inner.write(key, value)
        return result


def run_response_time(config: ExperimentConfig) -> ExperimentResult:
    """Execute one response-time experiment and summarise it.

    Every client operates on its own object (the per-customer profile of
    the paper's motivating workload); redirection (`locality`) moves
    *which replica serves it*, not which object it touches — that is
    what makes low locality hurt DQVL (the newly chosen replica must
    validate its cache) while leaving majority and primary/backup flat,
    as in Figure 7(b).
    """
    sim = Simulator(seed=config.seed)
    topology = EdgeTopologyConfig(
        num_edges=config.num_edges, num_clients=config.num_clients,
        jitter_ms=config.jitter_ms,
    )
    with deployed(
        sim, config.protocol, topology, lease_length_ms=config.lease_length_ms,
        iqs_spec=config.iqs_spec, oqs_spec=config.oqs_spec,
    ) as deployment:
        network = deployment.topology.network
        obs: Optional[Observability] = None
        if config.trace:
            from ..obs import Observability

            obs = Observability(sim).install(network)
        if config.fault_schedule is not None:
            config.fault_schedule.install(sim, network)

        history = History()
        warmup_history = History()
        processes = []
        for c in range(config.num_clients):
            if config.mode == "direct":
                app = RedirectedClient(
                    deployment,
                    deployment.direct_client(c),
                    deployment.topology.home_edge_index(c),
                    config.locality,
                    sim.rng,
                )
            else:
                app = deployment.app_client(c, locality=config.locality)
            keys = FixedKeyChooser(f"profile{c}")
            rng = sim.rng
            if config.mean_write_burst is not None:
                stream = MarkovBurstStream(
                    rng, keys, config.write_ratio,
                    mean_write_burst=config.mean_write_burst, label=f"c{c}-",
                )
            else:
                stream = BernoulliOpStream(
                    rng, keys, config.write_ratio, label=f"c{c}-"
                )

            def client_proc(app=app, stream=stream):
                # Warm-up fills caches and lease tables before measurement.
                yield from closed_loop(
                    sim, app, stream, warmup_history, config.warmup_ops
                )
                yield from closed_loop(
                    sim, app, stream, history, config.ops_per_client
                )

            processes.append(sim.spawn(client_proc(), name=f"client{c}"))

        # The run ends with its workload — at the instant the last client
        # settles — so whatever the protocol would do afterwards (lease
        # renewals for a cooling volume, anti-entropy gossip) is neither
        # simulated nor billed to the operations; time_limit_ms only
        # bounds a workload that is stuck.
        sim.run(until=any_of(
            sim, [all_settled(sim, processes), sim.sleep(config.time_limit_ms)]
        ))
        for proc in processes:
            if not proc.done:
                raise RuntimeError(
                    f"experiment hit the time limit with {proc.name} unfinished; "
                    "raise time_limit_ms or lower ops_per_client"
                )
            if proc.failed:
                proc.value  # raises the client's own error, not "done"

        # Measurement window: count protocol messages only after warm-up.
        # Warm-up lengths differ across clients, so approximate the window
        # by subtracting the warm-up traffic recorded in `warmup_history` —
        # the per-request figure uses measured requests against measured
        # traffic.
        total_requests = len(history) + len(warmup_history)
        measured_requests = len(history)
        all_protocol_messages = deployment.protocol_message_count()
        # Prorate warm-up traffic out of the message count.
        if total_requests:
            prorated = all_protocol_messages * (
                measured_requests / total_requests
            )
        else:
            prorated = 0.0

        if obs is not None:
            obs.finalize(network, deployment)

        return ExperimentResult(
            config=config,
            history=history,
            summary=summarize(history),
            protocol_messages=int(round(prorated)),
            total_requests=measured_requests,
            sim_time_ms=sim.now,
            deployment=deployment,
            warmup_history=warmup_history,
            obs=obs,
        )
