"""repro — a reproduction of "Dual-Quorum Replication for Edge Services"
(Gao, Dahlin, Zheng, Alvisi, Iyengar; Middleware 2005).

Quick start::

    from repro.sim import Simulator, Network, ConstantDelay
    from repro.core import build_dqvl_cluster, DqvlConfig

    sim = Simulator(seed=1)
    net = Network(sim, ConstantDelay(40.0))
    cluster = build_dqvl_cluster(
        sim, net,
        iqs_ids=[f"iqs{i}" for i in range(3)],
        oqs_ids=[f"oqs{i}" for i in range(3)],
        config=DqvlConfig(lease_length_ms=5_000),
    )
    client = cluster.client("fe0", prefer_oqs="oqs0")

    def scenario():
        yield from client.write("x", "hello")
        result = yield from client.read("x")
        return result.value

    assert sim.run_process(scenario()) == "hello"

Package layout (see DESIGN.md for the full inventory):

* :mod:`repro.sim` — deterministic discrete-event simulation substrate;
* :mod:`repro.quorum` — quorum systems and QRPC;
* :mod:`repro.core` — the dual-quorum protocols (basic and DQVL);
* :mod:`repro.protocols` — baselines (primary/backup, majority, ROWA,
  ROWA-Async);
* :mod:`repro.consistency` — histories and semantics checkers;
* :mod:`repro.edge` — the edge-service topology and deployments;
* :mod:`repro.workload` — workload generators and the closed-loop runner;
* :mod:`repro.analysis` — the paper's analytical models (Figures 8-9);
* :mod:`repro.harness` — experiment runner, metrics, reporting.
"""

from .types import ZERO_LC, LogicalClock, Op

__version__ = "1.0.0"

__all__ = ["LogicalClock", "ZERO_LC", "Op", "__version__"]
