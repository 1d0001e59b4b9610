"""Simulation-based availability measurement (Figure 8 cross-check).

The paper's Figure 8 is analytical.  This module measures availability
empirically on the simulator: replicas suffer independent per-epoch
outages with probability *p* (the discrete analogue of the paper's
failure model), closed-loop clients issue operations with a bounded
retry budget, and availability is the accepted fraction — exactly the
paper's definition ("the number of client requests successfully
processed by the system over the total number of requests submitted").

Two refinements the analytic model cannot capture:

* **Lease masking.**  The paper notes its DQVL formula is *pessimistic*
  "because a read can proceed without contacting any read quorum in IQS
  if the read quorum in OQS holds valid volume and object leases; this
  effect may mask some failures that are shorter than the volume lease
  duration."  The measured numbers quantify that effect.
* **No-stale ROWA-Async.**  The epidemic baseline accepts every request;
  the fair comparison (Yu & Vahdat) rejects reads that would return
  stale data.  We run ROWA-Async normally and charge stale reads as
  rejections post-hoc using the recorded history — an omniscient oracle
  only a simulator can provide.

Physical placement: each of the *n* replicas is one failure domain; for
DQVL that domain hosts both the IQS and the OQS role (the paper's
co-location remark), so an outage takes both down together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..consistency.history import History
from ..consistency.regular import staleness_report
from ..core.cluster import build_dqvl_cluster
from ..core.config import DqvlConfig
from ..protocols.majority import build_majority_cluster
from ..protocols.primary_backup import build_primary_backup_cluster
from ..protocols.rowa import build_rowa_cluster
from ..protocols.rowa_async import build_rowa_async_cluster
from ..sim.failures import BernoulliOutages
from ..sim.kernel import Simulator
from ..sim.network import ConstantDelay, Network
from ..workload.generators import BernoulliOpStream, FixedKeyChooser
from ..workload.runner import issue

__all__ = ["AvailabilitySimConfig", "AvailabilitySimResult", "run_availability_sim"]

_SUPPORTED = ("dqvl", "majority", "rowa", "rowa_async", "rowa_async_no_stale",
              "primary_backup")

#: what every run shares: the epoch length, the clients and their
#: open-loop submission interval, the one network delay, the RPC timeout
#: and DQVL's lease length
EPOCH_MS = 4_000.0
NUM_CLIENTS = 2
INTERARRIVAL_MS = 200.0
DELAY_MS = 10.0
RPC_TIMEOUT_MS = 150.0
LEASE_LENGTH_MS = 1_500.0
#: retry budget before an operation counts as rejected.  The analytic
#: model rejects an operation only when no live quorum exists; with too
#: few attempts the simulator also rejects operations that merely
#: *sampled* a dead node, inflating measured unavailability by ~5x at
#: p = 0.05.  Four attempts let QRPCs route around dead nodes, which is
#: the regime the formula describes.
MAX_ATTEMPTS = 4


@dataclass
class AvailabilitySimConfig:
    """Parameters of one measured-availability run."""

    protocol: str = "dqvl"
    write_ratio: float = 0.25
    num_replicas: int = 5
    #: per-epoch, per-replica outage probability (the model's p)
    p: float = 0.1
    epochs: int = 200
    seed: int = 0
    #: declarative IQS/OQS quorum shapes (canonical spec strings;
    #: DQVL only).  ``None`` = the paper's defaults.  The ``repro tune``
    #: autotuner uses these to cross-check its analytic availability
    #: predictions against measurement.
    iqs_spec: Optional[str] = None
    oqs_spec: Optional[str] = None

    def __post_init__(self) -> None:
        if self.protocol not in _SUPPORTED:
            raise KeyError(
                f"unknown protocol {self.protocol!r}; choose from {_SUPPORTED}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.epochs < 1 or self.num_replicas < 1:
            raise ValueError("epochs and num_replicas must be positive")
        if self.iqs_spec is not None or self.oqs_spec is not None:
            from ..edge.deployments import check_dq_fields

            check_dq_fields(self, "iqs_spec", "oqs_spec")


@dataclass
class AvailabilitySimResult:
    """Measured availability plus the raw counters."""

    config: AvailabilitySimConfig
    total_requests: int
    rejected: int
    stale_rejected: int
    history: History = field(repr=False, default=None)

    @property
    def availability(self) -> float:
        if not self.total_requests:
            return 1.0
        return 1.0 - (self.rejected + self.stale_rejected) / self.total_requests

    @property
    def unavailability(self) -> float:
        return 1.0 - self.availability


def _build(config: AvailabilitySimConfig, sim: Simulator, net: Network):
    """Build the protocol cluster; returns (client_factory, fault_nodes).

    ``fault_nodes`` groups the simulated processes per failure domain:
    an outage crashes the whole group.
    """
    n = config.num_replicas
    qrpc = {
        "initial_timeout_ms": RPC_TIMEOUT_MS,
        "max_attempts": MAX_ATTEMPTS,
    }
    if config.protocol == "dqvl":
        dq_config = DqvlConfig(
            lease_length_ms=LEASE_LENGTH_MS,
            qrpc_initial_timeout_ms=RPC_TIMEOUT_MS,
            inval_initial_timeout_ms=RPC_TIMEOUT_MS,
            client_max_attempts=MAX_ATTEMPTS,
            iqs_spec=config.iqs_spec,
            oqs_spec=config.oqs_spec,
        )
        cluster = build_dqvl_cluster(
            sim, net,
            [f"iqs{k}" for k in range(n)],
            [f"oqs{k}" for k in range(n)],
            dq_config,
        )
        domains = [
            [cluster.iqs_node(f"iqs{k}"), cluster.oqs_node(f"oqs{k}")]
            for k in range(n)
        ]

        def client_factory(c):
            return cluster.client(f"c{c}", prefer_oqs=f"oqs{c % n}")

        return client_factory, domains

    server_ids = [f"s{k}" for k in range(n)]
    if config.protocol == "majority":
        cluster = build_majority_cluster(sim, net, server_ids, qrpc_config=qrpc)
        factory = lambda c: cluster.client(f"c{c}", prefer=f"s{c % n}")  # noqa: E731
    elif config.protocol == "rowa":
        cluster = build_rowa_cluster(sim, net, server_ids, qrpc_config=qrpc)
        factory = lambda c: cluster.client(f"c{c}", prefer=f"s{c % n}")  # noqa: E731
    elif config.protocol in ("rowa_async", "rowa_async_no_stale"):
        cluster = build_rowa_async_cluster(
            sim, net, server_ids,
            gossip_interval_ms=500.0,
            rpc_timeout_ms=RPC_TIMEOUT_MS,
            max_attempts=MAX_ATTEMPTS,
        )
        factory = lambda c: cluster.client(f"c{c}", prefer=f"s{c % n}")  # noqa: E731
    elif config.protocol == "primary_backup":
        cluster = build_primary_backup_cluster(
            sim, net, server_ids,
            rpc_timeout_ms=RPC_TIMEOUT_MS,
            max_attempts=MAX_ATTEMPTS,
        )
        factory = lambda c: cluster.client(f"c{c}")  # noqa: E731
    else:  # pragma: no cover - guarded by config validation
        raise KeyError(config.protocol)
    domains = [[s] for s in cluster.servers]
    return factory, domains


def run_availability_sim(config: AvailabilitySimConfig) -> AvailabilitySimResult:
    """Measure availability under per-epoch Bernoulli outages."""
    sim = Simulator(seed=config.seed)
    net = Network(sim, ConstantDelay(DELAY_MS))
    try:
        return _run_availability_sim(config, sim, net)
    finally:
        sim.close()
        net.close()


def _run_availability_sim(
    config: AvailabilitySimConfig, sim: Simulator, net: Network
) -> AvailabilitySimResult:
    client_factory, domains = _build(config, sim, net)

    outages = BernoulliOutages(
        sim, domains, p=config.p, epoch_ms=EPOCH_MS, total_epochs=config.epochs,
    )
    outages.start(at=EPOCH_MS)  # first epoch after warm-up

    deadline = (config.epochs + 1) * EPOCH_MS
    history = History()
    # OPEN-loop arrivals: one operation per client every INTERARRIVAL_MS,
    # regardless of earlier completions.  The paper's availability is a
    # per-submitted-request fraction; a closed loop would bias it (slow
    # failures suppress subsequent submissions during outages).
    for c in range(NUM_CLIENTS):
        client = client_factory(c)
        stream = BernoulliOpStream(
            sim.rng, FixedKeyChooser(f"obj{c}"), config.write_ratio, label=f"c{c}-"
        )

        def issue_one(client=client, stream=stream):
            history.ops.append((yield from issue(sim, client, next(stream))))

        t = EPOCH_MS  # submissions start with the first epoch
        while t < deadline:
            sim.schedule(t, lambda io=issue_one: sim.spawn(io()))
            t += INTERARRIVAL_MS
    sim.run(until=deadline + 120_000.0)

    rejected = len(history.failures())
    stale_rejected = 0
    if config.protocol == "rowa_async_no_stale":
        stale_rejected = staleness_report(history).stale_reads
    return AvailabilitySimResult(
        config=config,
        total_requests=len(history),
        rejected=rejected,
        stale_rejected=stale_rejected,
        history=history,
    )
