"""Finished worlds are freed by reference count, not by the cycle collector.

A runner that re-executes scenarios (sweeps, the explorer, the bench
child) builds one world per execution, and ``Simulator.run`` pauses the
cycle collector while it loops (DESIGN.md §4, "The collector and the
run loop") — safe only while a run makes no cyclic garbage and a closed
world is acyclic.  So every runner detaches its monitors and closes its
world (``Simulator.close`` + ``Network.close``), and ``QuorumCall``
holds no reference cycle of its own.  These tests switch the collector
off and require that nothing at all is left for it; a failure prints
the type census of each cycle it finds, so the cycle names itself.
"""

import gc
from collections import Counter

import pytest

from repro.chaos import ChaosRunConfig, run_chaos
from repro.edge.cdn import CdnScenarioConfig, run_cdn
from repro.harness import ExperimentConfig, run_response_time
from repro.harness.availability import AvailabilitySimConfig, run_availability_sim
from repro.mc import McRunConfig, explore, run_schedule
from repro.obs import spans_to_jsonl
from repro.quorum import QuorumCall
from repro.sim import ConstantDelay, Message, Network, Node, Simulator


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


def _describe(obj) -> str:
    name = getattr(obj, "__qualname__", None)  # functions, generators
    if name is None and hasattr(obj, "__func__"):  # bound methods
        name = getattr(obj.__func__, "__qualname__", None)
    kind = type(obj).__name__
    return f"{kind}:{name}" if name else kind


def _cycle_census(objects) -> str:
    """One line per strongly connected component of *objects* (Tarjan,
    iterative), largest first: its size and the types in it."""
    by_id = {id(o): o for o in objects}
    edges = {
        i: [id(r) for r in gc.get_referents(o) if id(r) in by_id]
        for i, o in by_id.items()
    }
    index, low, stack, on_stack, components = {}, {}, [], set(), []
    for root in by_id:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(edges[root]))]
        while work:
            node, successors = work[-1]
            for nxt in successors:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(edges[nxt])))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[node])
                if low[node] == index[node]:
                    component = []
                    while not component or component[-1] != node:
                        on_stack.discard(stack[-1])
                        component.append(stack.pop())
                    if len(component) > 1 or node in edges[node]:
                        components.append([by_id[i] for i in component])
    components.sort(key=len, reverse=True)
    lines = [f"{len(objects)} unreachable objects, {len(components)} cycles"]
    for component in components[:5]:
        census = Counter(_describe(o) for o in component)
        ranked = sorted(census.items(), key=lambda item: (-item[1], item[0]))
        lines.append(
            f"  cycle of {len(component)}: "
            + ", ".join(f"{name} x{count}" for name, count in ranked[:12])
        )
    return "\n".join(lines)


def _assert_nothing_for_the_collector():
    left = _unreachable_objects()
    assert not left, _cycle_census(left)


def _response_time(protocol):
    return lambda: run_response_time(ExperimentConfig(
        protocol=protocol, write_ratio=0.2, locality=0.9, num_clients=4,
        ops_per_client=50, warmup_ops=0, seed=2,
    ))


#: the five runners (the explorer twice: one schedule, and the POR-DFS
#: whose footprint table once tied controller, simulator and network)
RUNS = {
    "chaos": lambda: run_chaos(ChaosRunConfig(
        protocol="dqvl", seed=1, nemeses=("crash_storm",), num_edges=5,
        mode="frontend", resilience=True,
    )),
    "cdn": lambda: run_cdn(CdnScenarioConfig(
        protocol="dqvl", seed=1, users=200_000, ops_per_user_per_s=0.001,
        num_volumes=32,
    )),
    "mc": lambda: run_schedule(McRunConfig(seed=3)),
    "availability": lambda: run_availability_sim(
        AvailabilitySimConfig(epochs=10, p=0.05)),
    "explore": lambda: explore(
        McRunConfig(seed=7003), strategy="dfs", budget=10, por=True,
        shrink=False,
    ),
    "response_time_dqvl": _response_time("dqvl"),
    "response_time_majority": _response_time("majority"),
}


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_a_finished_run_leaves_little_for_the_collector(no_gc, run):
    """"Little" is nothing (the parent allowed 1,500 per run and left
    11,522 after the ten explorer schedules)."""
    result = run()
    _assert_nothing_for_the_collector()  # result still referenced
    assert result is not None
    del result
    _assert_nothing_for_the_collector()


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_a_run_makes_nothing_cyclic_while_it_runs(no_gc, monkeypatch, run):
    """The safety argument for pausing the collector inside
    ``Simulator.run``: what a run discards dies by reference count.
    Probed where every runner stops, just before it closes its world
    (still referenced), so nothing found is the world itself.  Twice,
    as the bench runs its panels: a closed world that stayed cyclic
    would be garbage *during* the next one (the parent's crash storms:
    564 and 1,212 objects inside the second and third world's run)."""
    close = Simulator.close
    worlds = []

    def probing_close(sim):
        worlds.append(sim.events_processed)
        _assert_nothing_for_the_collector()
        close(sim)

    monkeypatch.setattr(Simulator, "close", probing_close)
    run()
    run()
    assert len(worlds) >= 2 and all(worlds)


def test_operations_leave_no_cyclic_calls_or_messages(no_gc):
    results = [_response_time(protocol)() for protocol in ("majority", "dqvl")]
    assert [len(r.history) for r in results] == [200, 200]
    leaked = [
        o for o in _unreachable_objects() if isinstance(o, (QuorumCall, Message))
    ]
    assert len(leaked) == 0


def test_the_census_names_a_cycle():
    class Knot:
        def __init__(self):
            self.me = self.tie

        def tie(self):
            """A bound method of its own instance."""

    knots = [Knot(), Knot()]
    census = _cycle_census([o for k in knots for o in (k, k.__dict__, k.me)])
    cycle = (
        "  cycle of 3: Knot x1, dict x1, "
        "method:test_the_census_names_a_cycle.<locals>.Knot.tie x1"
    )
    assert census.splitlines() == ["6 unreachable objects, 2 cycles", cycle, cycle]


def _raises():
    raise ValueError("boom")
    yield  # pragma: no cover - makes this a generator


def test_failed_processes_leave_nothing_for_the_collector(no_gc):
    """A stored exception must not hold ``Process._resume``'s own frame:
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
    for 273 rejections before, when this run gave up after two attempts;
    at the fixed four it rejects 77)."""
    result = run_availability_sim(AvailabilitySimConfig(epochs=40, p=0.15, seed=3))
    assert result.rejected == 77
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
    reply = a.call("b", "ping", timeout=5.0)
    assert len(a._pending_rpcs) == 1
    for _ in range(2):
        sim.close()
        net.close()
    assert sim.timer_depth == 0  # the deliveries were dropped with the heap
    assert a.net is None and b.net is None
    assert not a._pending_rpcs and not reply.done  # never answered, never failed
    assert sorted(net.node_ids) == ["a", "b"] and net.node("a") is a
    assert net.stats.total_messages == 2 and len(seen) == 2
