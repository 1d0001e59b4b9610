"""Front ends apply each application write at most once.

A network-duplicated ``fe_write`` used to run a second, freshly
clock-stamped storage write; a late copy could then overwrite writes
that completed after the original (a regular-semantics violation the
chaos campaign found under ``duplication_burst``).
"""

from collections import defaultdict

from repro.chaos import ChaosRunConfig, run_chaos
from repro.edge import EdgeTopology, EdgeTopologyConfig, deploy_dqvl
from repro.sim import Simulator


def test_every_duplicated_app_write_is_applied_under_one_clock():
    sim = Simulator(seed=0)
    topology = EdgeTopology(sim, EdgeTopologyConfig(num_edges=3, num_clients=2))
    topology.network.add_fault(duplicate_probability=1.0)
    deployment = deploy_dqvl(topology)
    clocks = defaultdict(set)
    topology.network.add_tap(
        lambda m: clocks[m.payload["value"]].add(m.payload["lc"]) if m.kind == "dq_write" else None
    )
    done = []

    def writer(c):
        app = deployment.app_client(c)
        for i in range(6):
            yield from app.write("x", f"c{c}-{i}")
        done.append(c)

    for c in range(2):
        sim.spawn(writer(c))
    sim.run(until=600_000.0)
    assert sorted(done) == [0, 1]
    assert topology.network.stats.duplicated > 0
    assert sorted(clocks) == [f"c{c}-{i}" for c in range(2) for i in range(6)]
    assert all(len(lcs) == 1 for lcs in clocks.values()), dict(clocks)


def test_duplication_burst_through_front_ends_stays_regular():
    result = run_chaos(ChaosRunConfig(
        protocol="dqvl", seed=1, nemeses=("duplication_burst",),
        mode="frontend", resilience=True,
    ))
    assert result.violations == []
