"""Tests for the declarative fault windows and their installation."""

import pytest

from repro.chaos import Fault, FaultSchedule
from repro.chaos.faults import FAULT_KINDS, RUNTIME_KINDS
from repro.sim import ConstantDelay, Network, Node, Simulator


class Recorder(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []
        self.recoveries = 0

    def on_ping(self, msg):
        self.received.append(self.sim.now)

    def on_recover(self):
        self.recoveries += 1


def make_world(n=3):
    sim = Simulator(seed=0)
    net = Network(sim, ConstantDelay(1.0))
    nodes = [Recorder(sim, net, f"n{i}") for i in range(n)]
    return sim, net, nodes


def ping_every(sim, net, src, dst, period=10.0, until=500.0):
    """Schedule a message src->dst every *period* ms."""
    t = period
    while t < until:
        sim.schedule(t, lambda: net.node(src).send(dst, "ping", {}))
        t += period


class TestFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault(kind="meteor")

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            Fault(kind="crash", start=-1.0)
        with pytest.raises(ValueError):
            Fault(kind="crash", duration=-1.0)

    def test_nan_times_rejected(self):
        with pytest.raises(ValueError):
            Fault(kind="partition", start=float("nan"), duration=100.0)
        with pytest.raises(ValueError):
            Fault(kind="partition", start=100.0, duration=float("nan"))

    def test_param_lookup_and_default(self):
        f = Fault.make("loss", 0.0, 10.0, probability=0.5)
        assert f.param("probability") == 0.5
        assert f.param("missing", 7.0) == 7.0

    def test_end(self):
        assert Fault.make("crash", 10.0, 5.0).end == 15.0

    def test_json_roundtrip(self):
        f = Fault.make(
            "degrade_link", 12.5, 30.0, nodes=("a", "b"),
            extra_delay_ms=40.0, loss_probability=0.1,
        )
        assert Fault.from_json_obj(f.to_json_obj()) == f

    def test_json_roundtrip_groups(self):
        f = Fault.make("partition", 1.0, 2.0, groups=(("a",), ("b", "c")))
        again = Fault.from_json_obj(f.to_json_obj())
        assert again == f
        assert again.groups == (("a",), ("b", "c"))

    def test_describe_mentions_kind_and_target(self):
        f = Fault.make("crash", 10.0, 5.0, nodes=("n1",))
        text = f.describe()
        assert "crash" in text and "n1" in text

    def test_kind_registries_consistent(self):
        assert set(RUNTIME_KINDS) == set(FAULT_KINDS) - {"clock_drift"}


class TestFaultSchedule:
    def test_sorted_is_insertion_order_independent(self):
        a = Fault.make("crash", 5.0, 1.0, nodes=("n0",))
        b = Fault.make("loss", 5.0, 1.0, probability=0.2)
        c = Fault.make("crash", 1.0, 1.0, nodes=("n1",))
        one = FaultSchedule([a, b, c]).sorted()
        two = FaultSchedule([c, b, a]).sorted()
        assert one.faults == two.faults
        assert one.faults[0] == c

    def test_runtime_drift_split(self):
        drift = Fault.make("clock_drift", nodes=("n0",), drift=0.001)
        crash = Fault.make("crash", 1.0, 1.0, nodes=("n0",))
        sched = FaultSchedule([drift, crash])
        assert sched.runtime_faults() == [crash]
        assert sched.drift_faults() == [drift]

    def test_json_roundtrip(self):
        sched = FaultSchedule([
            Fault.make("partition", 1.0, 2.0, groups=(("a",), ("b",))),
            Fault.make("duplicate", 3.0, 4.0, probability=0.3),
        ])
        assert FaultSchedule.from_json_obj(sched.to_json_obj()).faults == sched.faults


class TestInstall:
    def test_crash_window_crashes_then_recovers(self):
        sim, net, nodes = make_world()
        FaultSchedule([
            Fault.make("crash", 100.0, 50.0, nodes=("n1",))
        ]).install(sim, net)
        sim.schedule(120.0, lambda: setattr(
            nodes[1], "probe_down", nodes[1].alive))
        sim.run(until=500.0)
        assert nodes[1].probe_down is False
        assert nodes[1].alive
        assert nodes[1].recoveries == 1

    def test_partition_window_blocks_then_heals(self):
        sim, net, nodes = make_world()
        FaultSchedule([
            Fault.make("partition", 100.0, 100.0, groups=(("n0",), ("n1", "n2")))
        ]).install(sim, net)
        ping_every(sim, net, "n0", "n1", period=10.0, until=400.0)
        sim.run()
        # Deliveries pause during [100, 200) and resume after.
        during = [t for t in nodes[1].received if 100.0 < t <= 200.0]
        after = [t for t in nodes[1].received if t > 201.0]
        assert not during
        assert after

    def test_slow_window_sets_and_clears(self):
        sim, net, nodes = make_world()
        FaultSchedule([
            Fault.make("slow", 100.0, 50.0, nodes=("n2",), slow_ms=75.0)
        ]).install(sim, net)
        sim.schedule(120.0, lambda: nodes[0].send("n2", "ping", {}))
        sim.schedule(250.0, lambda: nodes[0].send("n2", "ping", {}))
        sim.run(until=300.0)
        # 1 ms on the wire, plus 75 ms of local backlog inside the window
        assert nodes[2].received == [pytest.approx(196.0), pytest.approx(251.0)]

    def test_loss_window_drops_then_restores(self):
        sim, net, nodes = make_world()
        FaultSchedule([
            Fault.make("loss", 100.0, 100.0, probability=1.0)
        ]).install(sim, net)
        ping_every(sim, net, "n0", "n1", period=10.0, until=400.0)
        sim.run()
        # Sends in [100, 200) are lost; the window-end event sorts before
        # the ping sent at exactly t=200, which is delivered at 201.
        during = [t for t in nodes[1].received if 100.0 < t < 201.0]
        after = [t for t in nodes[1].received if t >= 201.0]
        assert not during
        assert after
        assert net.stats.dropped > 0

    def test_duplicate_window_duplicates(self):
        sim, net, nodes = make_world()
        FaultSchedule([
            Fault.make("duplicate", 0.0, 400.0, probability=1.0)
        ]).install(sim, net)
        ping_every(sim, net, "n0", "n1", period=10.0, until=100.0)
        sim.run()
        # Every ping delivered at least twice.
        assert len(nodes[1].received) >= 18

    def test_degrade_link_adds_delay_then_restores(self):
        sim, net, nodes = make_world()
        FaultSchedule([
            Fault.make("degrade_link", 0.0, 100.0, nodes=("n0", "n1"),
                       extra_delay_ms=40.0)
        ]).install(sim, net)
        sim.schedule(10.0, lambda: net.node("n0").send("n1", "ping", {}))
        sim.schedule(200.0, lambda: net.node("n0").send("n1", "ping", {}))
        sim.run()
        assert nodes[1].received == [51.0, 201.0]

    def test_unknown_node_ids_skipped(self):
        sim, net, nodes = make_world()
        FaultSchedule([
            Fault.make("crash", 10.0, 10.0, nodes=("ghost", "n0"))
        ]).install(sim, net)
        sim.schedule(15.0, lambda: setattr(nodes[0], "probe", nodes[0].alive))
        sim.run(until=100.0)
        assert nodes[0].probe is False  # the known node still crashed
        assert nodes[0].alive

    def test_clock_drift_not_installed_at_runtime(self):
        sim, net, nodes = make_world()
        clock_before = nodes[0].clock
        FaultSchedule([
            Fault.make("clock_drift", nodes=("n0",), drift=0.005)
        ]).install(sim, net)
        sim.run(until=100.0)
        assert nodes[0].clock is clock_before

    def test_overlapping_partitions_heal_independently(self):
        """Two overlapping windows with different splits: the pair stays
        severed until the *last* window separating it ends."""
        sim, net, nodes = make_world()
        FaultSchedule([
            Fault.make("partition", 100.0, 200.0, groups=(("n0",), ("n1", "n2"))),
            Fault.make("partition", 200.0, 200.0, groups=(("n0", "n2"), ("n1",))),
        ]).install(sim, net)
        ping_every(sim, net, "n0", "n1", period=10.0, until=600.0)
        sim.run()
        during = [t for t in nodes[1].received if 100.0 < t <= 400.0]
        after = [t for t in nodes[1].received if t > 401.0]
        assert not during
        assert after
