"""Tests for partial-order reduction: footprints, independence, pruning.

The soundness pillar here is :func:`crosscheck_por` — an *empirical*
proof on a small config that the pruned DFS reaches exactly the same
set of observable outcomes as the full one.  The other tests pin the
independence relation's conflict table, the RNG draw accounting, and
the acceptance ratio (POR runs <= 40% of the full DFS at equal depth).
"""

import random
import sys

import pytest

from repro.mc import (
    McRunConfig,
    RecordingController,
    crosscheck_por,
    explore,
    explore_sweep_edges,
    run_schedule,
)
from repro.mc.por import (
    UNIVERSAL, CountingRandom, Footprint, footprint_of, independent,
)
from repro.sim import ConstantDelay, Network, Node, NodeCrashed, RpcTimeout
from repro.sim.kernel import Simulator
from repro.sim.messages import Message

# ``import repro.mc.explore`` would bind the facade's ``explore``
# function, which shadows the submodule of the same name
explore_module = sys.modules["repro.mc.explore"]

#: a footprint depth no run reaches: tracking at every decision
EVERY_DECISION = 10**9

#: smallest interesting scenario: one client, two ops, one key — the
#: exhaustive cross-check stays under a hundred runs at depth 6
TINY = dict(num_clients=1, ops_per_client=2, num_keys=1)


class TestIndependence:
    def test_distinct_nodes_commute(self):
        assert independent(Footprint(node="oqs0"), Footprint(node="iqs1"))

    def test_same_node_conflicts(self):
        fp = Footprint(node="oqs0")
        assert not independent(fp, Footprint(node="oqs0"))

    def test_unknown_node_conflicts_with_everything(self):
        assert not independent(Footprint(node=None), Footprint(node="a"))
        assert not independent(Footprint(node="a"), Footprint(node=None))

    def test_universal_conflicts_with_everything(self):
        assert not independent(UNIVERSAL, Footprint(node="a"))
        assert not independent(Footprint(node="a"), UNIVERSAL)

    def test_shared_message_token_conflicts(self):
        a = Footprint(node="a", tokens=frozenset({7}))
        b = Footprint(node="b", tokens=frozenset({7, 9}))
        assert not independent(a, b)
        assert independent(a, Footprint(node="b", tokens=frozenset({9})))

    def test_shared_key_conflicts(self):
        a = Footprint(node="a", keys=frozenset({"k0"}))
        b = Footprint(node="b", keys=frozenset({"k0"}))
        assert not independent(a, b)
        assert independent(a, Footprint(node="b", keys=frozenset({"k1"})))

    def test_rng_conflicts_only_pairwise(self):
        drawer_a = Footprint(node="a", rng=True)
        drawer_b = Footprint(node="b", rng=True)
        bystander = Footprint(node="c")
        # two drawers swap their position in the shared draw sequence
        assert not independent(drawer_a, drawer_b)
        # a non-drawing event leaves the sequence untouched either side
        assert independent(drawer_a, bystander)
        assert independent(bystander, drawer_b)


class TestCountingRandom:
    def test_bit_identical_to_plain_random(self):
        counted, plain = CountingRandom(42), random.Random(42)
        assert [counted.random() for _ in range(20)] == \
               [plain.random() for _ in range(20)]
        assert counted.randrange(100) == plain.randrange(100)
        assert counted.gauss(0, 1) == plain.gauss(0, 1)

    def test_draws_count_all_entry_points(self):
        rng = CountingRandom(0)
        assert rng.draws == 0
        rng.random()
        assert rng.draws == 1
        rng.randrange(10)  # goes through getrandbits
        assert rng.draws > 1


class TestTrackedRuns:
    def test_trace_bytes_identical_with_and_without_tracking(self):
        config = McRunConfig()
        plain = run_schedule(config)
        tracked = run_schedule(config, footprint_depth=EVERY_DECISION)
        assert plain.trace_text == tracked.trace_text
        assert plain.trace_text == \
            run_schedule(config, footprint_depth=6).trace_text

    def test_footprints_populated_only_when_tracking(self):
        config = McRunConfig()
        plain = run_schedule(config)
        assert all(d.footprints is None for d in plain.decisions)
        tracked = run_schedule(config, footprint_depth=EVERY_DECISION)
        events = [d for d in tracked.decisions if d.kind == "event"]
        assert events, "default scenario must hit same-instant slots"
        assert all(
            d.footprints is not None and len(d.footprints) == d.n
            for d in events
        )
        # deliver decisions carry no footprints (they are not prunable)
        assert all(
            d.footprints is None
            for d in tracked.decisions if d.kind == "deliver"
        )


class _Echo(Node):
    def on_echo(self, msg):
        self.reply(msg)


def _queued(sim, fn):
    """Step the run one event at a time until an entry calling *fn* is
    queued; return that entry."""
    for _ in range(100):
        for entry in sim.iter_pending():
            if entry[1] is fn:
                return entry
        sim.run(max_events=1)
    raise AssertionError("never queued")


class TestReplyCallbackFootprints:
    """A request's callback runs code of the node that issued it — the
    ownership label its future carried when every reply went through
    one — whether it is handed the reply, an ``RpcTimeout`` or a
    ``NodeCrashed``."""

    @pytest.mark.parametrize("outcome", ["reply", "timeout", "crash", "down"])
    def test_callback_entries_belong_to_the_requester(self, outcome):
        sim = Simulator(seed=0)
        net = Network(sim, ConstantDelay(10.0))
        client, server = _Echo(sim, net, "client"), _Echo(sim, net, "server")

        def sink(result):
            pass

        if outcome == "down":
            client.crash()
        if outcome == "timeout":
            server.crash()
        sent = client.request("server", "echo", {}, None, sink, timeout=50.0)
        assert (sent is None) == (outcome == "down")
        if outcome == "crash":
            client.crash()
        if outcome == "down":  # first the settling turn, then the callback
            settle = next(sim.iter_pending())
            assert settle[1] == client._fail
            assert footprint_of(settle) == Footprint(node="client")
        entry = _queued(sim, sink)
        expected = {"reply": Message, "timeout": RpcTimeout,
                    "crash": NodeCrashed, "down": NodeCrashed}[outcome]
        assert isinstance(entry[2][0], expected)
        assert footprint_of(entry) == Footprint(node="client")


def _tagged(node, fn):
    """A callback the way ``Node.after`` tags its guards: its footprint
    is that node and nothing else."""
    fn._mc_node = node
    return fn


class TestControllerOverBareSimulator:
    """``Footprint.rng`` is the one dynamic bit: set when the entry
    *executes*, at every decision that offered it — also when the
    execution falls past the footprint depth.  Everything else about an
    entry is computed once and looked up by the entry's identity."""

    def _run(self, depth):
        """Three same-instant timers on nodes a, b, c; b draws from the
        shared RNG.  Forced order a, c, b: b is offered at decisions 0
        and 1 and runs last, from a singleton slot."""
        sim = Simulator(seed=0)
        controller = RecordingController([0, 1], footprint_depth=depth)
        sim.controller = controller
        sim.rng = controller.rng = CountingRandom(0)
        log = []
        sim.schedule(1.0, _tagged("a", lambda: log.append("a")))
        sim.schedule(1.0, _tagged(
            "b", lambda: log.append(("b", sim.rng.random()))
        ))
        sim.schedule(1.0, _tagged("c", lambda: log.append("c")))
        sim.run()
        controller.finalize()
        assert [e if isinstance(e, str) else e[0] for e in log] == \
            ["a", "c", "b"]
        assert [(d.n, d.chosen) for d in controller.decisions] == \
            [(3, 0), (2, 1)]
        return controller.decisions

    def test_set_at_every_offer_of_the_drawing_entry(self):
        first, second = self._run(depth=EVERY_DECISION)
        assert [(fp.node, fp.rng) for fp in first.footprints] == \
            [("a", False), ("b", True), ("c", False)]
        assert [(fp.node, fp.rng) for fp in second.footprints] == \
            [("b", True), ("c", False)]

    def test_set_when_the_entry_executes_past_the_depth(self):
        first, second = self._run(depth=1)
        assert [(fp.node, fp.rng) for fp in first.footprints] == \
            [("a", False), ("b", True), ("c", False)]
        assert second.footprints is None

    def _horizon_run(self, stepped):
        """Depth 1 over two instants.  At 1 ms a, b and c are offered at
        decision 0, the one that reaches the depth: the controller drops
        ``wants_slot`` there.  b draws after the drop; c, the last event
        the kernel hooks, draws nothing.  At 2 ms d draws, past the
        horizon, and must not be charged to c.  *stepped* runs it one
        event per ``run`` call, so the drop is seen mid-instant."""
        sim = Simulator(seed=0)
        controller = RecordingController(footprint_depth=1)
        sim.controller = controller
        sim.rng = controller.rng = CountingRandom(0)
        for when, nodes in ((1.0, "abc"), (2.0, "de")):
            for node in nodes:
                if node in "bd":
                    sim.schedule(when, _tagged(node, lambda: sim.rng.random()))
                else:
                    sim.schedule(when, _tagged(node, lambda: None))
        if stepped:
            while sim.ready_depth or sim.timer_depth:
                sim.run(max_events=1)
        else:
            sim.run()
        controller.finalize()
        assert not controller.wants_slot
        return sim.rng.draws, [
            (d.kind, d.n, d.chosen, d.footprints and [
                (fp.node, fp.rng) for fp in d.footprints
            ])
            for d in controller.decisions
        ]

    def test_stepping_across_the_horizon_changes_nothing(self):
        whole = self._horizon_run(stepped=False)
        assert whole[1] == [
            ("event", 3, 0, [("a", False), ("b", True), ("c", False)]),
            ("event", 2, 0, None),
            ("event", 2, 0, None),
        ]
        assert self._horizon_run(stepped=True) == whole

    def test_a_recycled_entry_id_is_not_mistaken_for_the_offered_entry(self):
        """The per-entry table is keyed by ``id(entry)``; it holds the
        entry, so the id of an executed entry cannot come back as a new
        entry's and hand it the old footprint."""
        sim = Simulator(seed=0)
        controller = RecordingController(footprint_depth=EVERY_DECISION)
        sim.controller = controller
        for instant in range(1, 40):
            for node in ("a", "b"):
                sim.schedule(
                    float(instant), _tagged(f"{node}{instant}", lambda: None)
                )
        sim.run()
        controller.finalize()
        assert [
            [fp.node for fp in d.footprints] for d in controller.decisions
        ] == [[f"a{i}", f"b{i}"] for i in range(1, 40)]


def _dfs_record(monkeypatch, config, *, budget, max_depth, footprint_depth=None):
    """One POR DFS through ``explore``; returns its ``(runs, pruned)``
    and, per executed run, ``(prefix, trace_text, decisions)``.  With
    *footprint_depth* every run is recorded to that depth instead of the
    depth the DFS asks for."""
    executed = []

    def recording(cfg, prefix, **kwargs):
        if footprint_depth is not None:
            kwargs["footprint_depth"] = footprint_depth
        result = run_schedule(cfg, prefix, **kwargs)
        executed.append((list(prefix), result.trace_text, result.decisions))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(explore_module, "run_schedule", recording)
        result = explore(config, strategy="dfs", budget=budget,
                         max_depth=max_depth, por=True, shrink=False)
    return (result.runs, result.pruned), executed


def _comparable(decisions):
    """The run's footprints with the per-process names renumbered by
    first appearance: message ids come off a process-wide counter and an
    unlabelled future is labelled by its address, so two executions of
    one schedule agree on which footprints share them, not on the values.
    """
    names = {}

    def renumber(name):
        return names.setdefault(name, len(names))

    return [
        None if d.footprints is None else [
            (
                renumber(fp.node) if fp.node and fp.node.startswith("future-")
                else fp.node,
                [renumber(token) for token in sorted(fp.tokens)],
                sorted(fp.keys), fp.rng, fp.universal,
            )
            for fp in d.footprints
        ]
        for d in decisions
    ]


#: 20 seeds at two edges, one three-edge cluster, the safety weakeners
HORIZON_PANEL = (
    [McRunConfig(seed=seed) for seed in range(20)]
    + [McRunConfig(num_edges=3)]
    + [McRunConfig(weaken=name) for name in (
        "skip_write_invalidation", "ignore_volume_expiry",
        "ignore_object_invalidations",
    )]
)


class TestFootprintHorizon:
    """The DFS records footprints only down to ``max_depth``; nothing it
    does may differ from recording them at every decision."""

    @pytest.mark.parametrize("max_depth", [1, 6, 20, 40])
    def test_dfs_equals_dfs_tracking_every_decision(self, monkeypatch, max_depth):
        for config in HORIZON_PANEL:
            counts, runs = _dfs_record(
                monkeypatch, config, budget=3, max_depth=max_depth)
            full_counts, full_runs = _dfs_record(
                monkeypatch, config, budget=3, max_depth=max_depth,
                footprint_depth=EVERY_DECISION)
            assert counts == full_counts, config
            assert [r[:2] for r in runs] == [r[:2] for r in full_runs], config
            for (_p, _t, decisions), (_p, _t, tracked) in zip(runs, full_runs):
                assert _comparable(decisions[:max_depth]) == \
                    _comparable(tracked[:max_depth]), config
                assert all(d.footprints is None for d in decisions[max_depth:])

    def test_the_panel_exercises_the_rng_bit_below_the_depth(self):
        decisions = run_schedule(McRunConfig(), footprint_depth=40).decisions
        assert any(
            fp.rng for d in decisions[:40] if d.footprints
            for fp in d.footprints
        )


class TestPorDfs:
    def test_por_prunes_at_least_60_percent_of_branches(self):
        """The acceptance ratio: at equal depth on the default scenario,
        the POR DFS must run <= 40% of the plain DFS's schedules."""
        config = McRunConfig()
        full = explore(config, strategy="dfs", budget=2_000,
                       max_depth=6, shrink=False, por=False)
        por = explore(config, strategy="dfs", budget=2_000,
                      max_depth=6, shrink=False, por=True)
        assert full.ok and por.ok
        assert full.pruned == 0 and por.pruned > 0
        assert por.runs <= 0.40 * full.runs

    def test_por_still_finds_canonical_witness(self):
        result = explore(
            McRunConfig(weaken="skip_write_invalidation"),
            strategy="dfs", budget=10, por=True,
        )
        assert not result.ok and result.runs == 1

    def test_crosscheck_equivalence_on_tiny_config(self):
        report = crosscheck_por(McRunConfig(**TINY), max_depth=6,
                                budget=5_000)
        assert report["equivalent"]
        assert report["pruned"] > 0
        assert report["por_runs"] < report["full_runs"]
        assert report["missing"] == 0 and report["extra"] == 0

    def test_crosscheck_rejects_insufficient_budget(self):
        with pytest.raises(ValueError, match="too small to exhaust"):
            crosscheck_por(McRunConfig(**TINY), max_depth=6, budget=3)


class TestSweepEdges:
    def test_sweep_stops_at_first_witness(self):
        results = explore_sweep_edges(
            McRunConfig(weaken="skip_write_invalidation"), [2, 3],
            strategy="dfs", budget=10, shrink=False,
        )
        # the bug fires at 2 edges, so 3 edges is never explored
        assert len(results) == 1
        assert results[0].config.num_edges == 2
        assert not results[0].ok

    def test_sweep_covers_every_size_when_clean(self):
        results = explore_sweep_edges(
            McRunConfig(), [2, 3],
            strategy="dfs", budget=8, max_depth=4, shrink=False,
        )
        assert [r.config.num_edges for r in results] == [2, 3]
        assert all(r.ok for r in results)
