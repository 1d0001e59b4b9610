"""Finished worlds are freed by reference count, not by the cycle collector.

A runner that re-executes scenarios (sweeps, the explorer, the bench
child) builds one world per execution.  Once an execution takes a
fraction of a second, worlds that only a full ``gc`` pass can reclaim
pile up between passes and show as peak RSS — so every runner closes its
world (``Simulator.close`` + ``Network.close``) and ``QuorumCall`` holds
no reference cycle of its own.  These tests switch the collector off
and count what is left for it.
"""

import gc

import pytest

from repro.chaos import ChaosRunConfig, run_chaos
from repro.edge.cdn import CdnScenarioConfig, run_cdn
from repro.harness import ExperimentConfig, run_response_time
from repro.harness.availability import AvailabilitySimConfig, run_availability_sim
from repro.mc import McRunConfig, run_schedule
from repro.obs import spans_to_jsonl
from repro.quorum import QuorumCall
from repro.sim import ConstantDelay, Message, Network, Node, Simulator

#: residue allowed per finished run: monitor <-> node tap cycles and the
#: RPCs in flight at the stop (the parent left 1,300 to 3.5 million)
RESIDUE = 1_500


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _unreachable_objects():
    """What only the cycle collector can free, right now (small sets
    only: every object found is kept alive for the caller)."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("run", [
    lambda: run_chaos(ChaosRunConfig(
        protocol="dqvl", seed=1, nemeses=("crash_storm",), num_edges=5,
        mode="frontend", resilience=True,
    )),
    lambda: run_cdn(CdnScenarioConfig(
        protocol="dqvl", seed=1, users=200_000, ops_per_user_per_s=0.001,
        num_volumes=32,
    )),
    lambda: run_schedule(McRunConfig(seed=3)),
    lambda: run_availability_sim(AvailabilitySimConfig(epochs=10, p=0.05)),
], ids=["chaos", "cdn", "mc", "availability"])
def test_a_finished_run_leaves_little_for_the_collector(no_gc, run):
    result = run()  # still referenced while counting
    unreachable = gc.collect()
    assert unreachable < RESIDUE
    assert result is not None


def test_operations_leave_no_cyclic_calls_or_messages(no_gc):
    results = [
        run_response_time(ExperimentConfig(
            protocol=protocol, write_ratio=0.2, locality=0.9, num_clients=4,
            ops_per_client=50, warmup_ops=0, seed=2,
        ))
        for protocol in ("majority", "dqvl")
    ]
    assert [len(r.history) for r in results] == [200, 200]
    leaked = [
        o for o in _unreachable_objects() if isinstance(o, (QuorumCall, Message))
    ]
    assert len(leaked) == 0


def _raises():
    raise ValueError("boom")
    yield  # pragma: no cover - makes this a generator


def test_failed_processes_leave_nothing_for_the_collector(no_gc):
    """A stored exception must not hold ``Process._step``'s own frame:
    that frame reaches the run loop through ``f_back`` and the process
    through ``self`` (1,210 unreachable objects for these 100 before)."""
    sim = Simulator(seed=0)
    processes = [sim.spawn(_raises()) for _ in range(100)]
    sim.run()
    assert all(isinstance(p.exception, ValueError) for p in processes)
    # the traceback still leads to the frame that raised
    frames = []
    tb = processes[0].exception.__traceback__
    while tb is not None:
        frames.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert frames == ["_raises"]
    del sim, processes
    assert gc.collect() == 0


def test_rejected_operations_leave_nothing_for_the_collector(no_gc):
    """Every rejected op is a failed process (8,540 unreachable objects
    for this run's 273 rejections before)."""
    result = run_availability_sim(AvailabilitySimConfig(epochs=40, p=0.15, seed=3))
    assert result.rejected == 273
    del result
    assert gc.collect() == 0


def test_a_closed_world_stays_readable():
    result = run_response_time(ExperimentConfig(
        protocol="dqvl", write_ratio=0.2, ops_per_client=15, warmup_ops=3,
        seed=4, trace=True,
    ))
    network = result.deployment.topology.network
    sim = result.deployment.topology.sim
    assert (sim.ready_depth, sim.timer_depth) == (0, 0)
    assert sim.now == result.sim_time_ms and sim.events_processed > 0
    assert len(result.full_history()) == 3 * 18
    assert result.deployment.protocol_message_count() > 0
    assert network.stats.total_messages > 0
    oqs = result.deployment.cluster.oqs_nodes
    assert sum(n.read_hits + n.read_misses for n in oqs) > 0
    # post-run scrapers walk the node table
    assert {network.node(i) for i in network.node_ids} >= set(oqs)
    assert spans_to_jsonl(result.obs.tracer, metrics=result.obs.metrics)
    assert result.obs.latency_budget().to_json_obj()


def test_close_is_idempotent_and_unplugs_the_nodes():
    sim = Simulator(seed=0)
    net = Network(sim, ConstantDelay(1.0))
    a, b = Node(sim, net, "a"), Node(sim, net, "b")
    seen = []
    net.add_tap(seen.append)
    a.send("b", "ping")
    for _ in range(2):
        sim.close()
        net.close()
    assert sim.timer_depth == 0  # the delivery was dropped with the heap
    assert a.net is None and b.net is None
    assert sorted(net.node_ids) == ["a", "b"] and net.node("a") is a
    assert net.stats.total_messages == 1 and len(seen) == 1
