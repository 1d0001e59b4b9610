"""Unit tests for the simulated network: delays, faults, partitions."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.edge import EdgeDelayModel, EdgeTopologyConfig
from repro.sim import (
    ConstantDelay,
    DelayModel,
    MatrixDelay,
    Message,
    Network,
    Node,
    Simulator,
)


class Recorder(Node):
    """Test node that logs everything it receives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_data(self, msg):
        self.received.append((self.sim.now, msg.payload["n"]))

    def on_ping(self, msg):
        self.reply(msg, payload={"n": msg.payload["n"]})


class Jittered(DelayModel):
    """``base_ms`` plus one uniform ``[0, jitter_ms]`` draw on every link."""

    def __init__(self, base_ms, jitter_ms):
        self.base_ms, self.jitter_ms = base_ms, jitter_ms

    def link(self, src, dst):
        return self.base_ms, self.jitter_ms


@pytest.fixture
def sim():
    return Simulator(seed=1)


def make_pair(sim, delay_model=None, **net_kwargs):
    net = Network(sim, delay_model or ConstantDelay(10.0), **net_kwargs)
    a = Recorder(sim, net, "a")
    b = Recorder(sim, net, "b")
    return net, a, b


class TestDelivery:
    def test_constant_delay(self, sim):
        net, a, b = make_pair(sim)
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == [(10.0, 1)]

    def test_unknown_destination_counts_as_drop(self, sim):
        net, a, b = make_pair(sim)
        a.send("zzz", "data", {"n": 1})
        sim.run()
        assert net.stats.dropped == 1
        assert net.stats.unknown_destination == 1
        assert b.received == []

    def test_duplicate_node_id_rejected(self, sim):
        net, a, b = make_pair(sim)
        with pytest.raises(ValueError):
            Recorder(sim, net, "a")

    def test_matrix_delay_and_symmetry(self, sim):
        model = MatrixDelay({}, default_ms=99.0)
        model.set("a", "b", 5.0)
        net = Network(sim, model)
        a = Recorder(sim, net, "a")
        b = Recorder(sim, net, "b")
        c = Recorder(sim, net, "c")
        a.send("b", "data", {"n": 1})
        b.send("a", "data", {"n": 2})
        a.send("c", "data", {"n": 3})
        sim.run()
        assert b.received == [(5.0, 1)]
        assert a.received == [(5.0, 2)]
        assert c.received == [(99.0, 3)]

    def test_jitter_within_bounds_and_can_reorder(self):
        # With jitter up to 50ms on a 1ms base, two back-to-back sends
        # should reorder for some seed.
        reordered = False
        for seed in range(20):
            sim = Simulator(seed=seed)
            net = Network(sim, Jittered(1.0, 50.0))
            a = Recorder(sim, net, "a")
            b = Recorder(sim, net, "b")
            a.send("b", "data", {"n": 1})
            a.send("b", "data", {"n": 2})
            sim.run()
            order = [n for _, n in b.received]
            assert sorted(order) == [1, 2]
            if order == [2, 1]:
                reordered = True
        assert reordered, "jitter never produced reordering across seeds"

    def test_stats_counting(self, sim):
        net, a, b = make_pair(sim)
        a.send("b", "data", {"n": 1})
        a.send("b", "data", {"n": 2})
        sim.run()
        assert net.stats.total_messages == 2
        assert net.stats.by_kind["data"] == 2
        assert net.stats.by_pair[("a", "b")] == 2

    def test_tap_observes_messages(self, sim):
        net, a, b = make_pair(sim)
        seen = []
        net.add_tap(lambda m: seen.append(m.kind))
        a.send("b", "data", {"n": 1})
        sim.run()
        assert seen == ["data"]


class TestFaults:
    def test_loss_drops_messages(self):
        sim = Simulator(seed=5)
        net, a, b = make_pair(sim, loss_probability=1.0)
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == []
        assert net.stats.dropped == 1

    def test_loss_probability_statistics(self):
        sim = Simulator(seed=5)
        net, a, b = make_pair(sim, loss_probability=0.5)
        for i in range(400):
            a.send("b", "data", {"n": i})
        sim.run()
        assert 120 < len(b.received) < 280  # ~200 expected

    def test_duplication(self):
        sim = Simulator(seed=5)
        net, a, b = make_pair(sim, duplicate_probability=1.0)
        a.send("b", "data", {"n": 1})
        sim.run()
        assert [n for _, n in b.received] == [1, 1]
        assert net.stats.duplicated == 1

    def test_invalid_probabilities_rejected(self, sim):
        with pytest.raises(ValueError):
            Network(sim, ConstantDelay(1.0), loss_probability=1.5)
        with pytest.raises(ValueError):
            Network(sim, ConstantDelay(1.0), duplicate_probability=-0.1)


class TestPartitions:
    def test_block_drops_both_directions(self, sim):
        net, a, b = make_pair(sim)
        net.add_fault([("a", "b"), ("b", "a")], blocked=True)
        a.send("b", "data", {"n": 1})
        b.send("a", "data", {"n": 2})
        sim.run()
        assert b.received == [] and a.received == []

    def test_asymmetric_block(self, sim):
        net, a, b = make_pair(sim)
        net.add_fault([("a", "b")], blocked=True)
        a.send("b", "data", {"n": 1})
        b.send("a", "data", {"n": 2})
        sim.run()
        assert b.received == []
        assert a.received == [(10.0, 2)]

    def test_unblock_restores(self, sim):
        net, a, b = make_pair(sim)
        net.heal(net.add_fault([("a", "b"), ("b", "a")], blocked=True))
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == [(10.0, 1)]

    def test_partition_groups(self, sim):
        net = Network(sim, ConstantDelay(1.0))
        nodes = {name: Recorder(sim, net, name) for name in "abcd"}
        net.partition(["a", "b"], ["c", "d"])
        nodes["a"].send("b", "data", {"n": 1})  # same side
        nodes["a"].send("c", "data", {"n": 2})  # across
        nodes["d"].send("c", "data", {"n": 3})  # same side
        sim.run()
        assert [n for _, n in nodes["b"].received] == [1]
        assert [n for _, n in nodes["c"].received] == [3]

    def test_heal_removes_all_blocks(self, sim):
        net, a, b = make_pair(sim)
        net.partition(["a"], ["b"])
        net.heal()
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == [(10.0, 1)]

    def test_overlapping_partitions_heal_independently(self, sim):
        net = Network(sim, ConstantDelay(1.0))
        nodes = {name: Recorder(sim, net, name) for name in "abc"}
        t1 = net.partition(["a"], ["b", "c"])
        t2 = net.partition(["a", "b"], ["c"])
        net.heal(t1)
        # a↔c is still severed by the second partition; a↔b is open.
        nodes["a"].send("b", "data", {"n": 1})
        nodes["a"].send("c", "data", {"n": 2})
        sim.run()
        assert [n for _, n in nodes["b"].received] == [1]
        assert nodes["c"].received == []
        net.heal(t2)
        nodes["a"].send("c", "data", {"n": 3})
        sim.run()
        assert [n for _, n in nodes["c"].received] == [3]

    def test_heal_unknown_token_is_noop(self, sim):
        net, a, b = make_pair(sim)
        token = net.partition(["a"], ["b"])
        net.heal(9999)  # unknown
        assert net.link_faults("a", "b")[0]
        net.heal(token)
        net.heal(token)  # double-heal is idempotent
        assert not net.link_faults("a", "b")[0]

    def test_argless_heal_clears_everything(self, sim):
        net, a, b = make_pair(sim)
        net.add_fault([("a", "b")], blocked=True)
        net.partition(["a"], ["b"])
        net.add_fault([("a", "b")], extra_delay_ms=5.0, loss_probability=0.5)
        net.add_fault(loss_probability=0.5, duplicate_probability=0.5)
        net.heal()
        assert net.link_faults("a", "b") == (False, 0.0, 0.0, 0.0)
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == [(10.0, 1)]

    def test_partition_formed_mid_flight_drops(self, sim):
        """A partition severs the path for in-flight messages too."""
        net, a, b = make_pair(sim)
        a.send("b", "data", {"n": 1})
        sim.schedule(5.0, lambda: net.partition(["a"], ["b"]))
        sim.run()
        assert b.received == []


class TestGrayFailures:
    def test_degrade_link_adds_delay(self, sim):
        net, a, b = make_pair(sim)
        token = net.add_fault([("a", "b"), ("b", "a")], extra_delay_ms=25.0)
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == [(35.0, 1)]
        net.heal(token)
        a.send("b", "data", {"n": 2})
        sim.run()
        assert b.received[-1] == (sim.now, 2)
        assert net.link_faults("a", "b")[1] == 0.0

    def test_degrade_link_stacks(self, sim):
        net, a, b = make_pair(sim)
        t1 = net.add_fault([("a", "b")], extra_delay_ms=10.0)
        t2 = net.add_fault([("a", "b")], extra_delay_ms=5.0)
        assert net.link_faults("a", "b")[1] == 15.0
        net.heal(t1)
        assert net.link_faults("a", "b")[1] == 5.0
        net.heal(t2)
        net.heal(t2)  # idempotent
        assert net.link_faults("a", "b")[1] == 0.0

    def test_degrade_link_loss(self):
        sim = Simulator(seed=7)
        net, a, b = make_pair(sim)
        token = net.add_fault([("a", "b")], loss_probability=1.0)
        a.send("b", "data", {"n": 1})
        b.send("a", "data", {"n": 2})
        sim.run()
        assert b.received == []
        assert [n for _, n in a.received] == [2]
        net.heal(token)
        assert net.link_faults("a", "b")[2] == 0.0

    def test_loss_window_composes_with_base(self):
        sim = Simulator(seed=3)
        net, a, b = make_pair(sim, loss_probability=0.0)
        token = net.add_fault(loss_probability=1.0)
        assert net.link_faults("a", "b")[2] == 1.0
        a.send("b", "data", {"n": 1})
        sim.run()
        assert b.received == []
        net.heal(token)
        assert net.link_faults("a", "b")[2] == 0.0
        a.send("b", "data", {"n": 2})
        sim.run()
        assert [n for _, n in b.received] == [2]

    def test_duplication_window(self):
        sim = Simulator(seed=3)
        net, a, b = make_pair(sim)
        token = net.add_fault(duplicate_probability=1.0)
        a.send("b", "data", {"n": 1})
        sim.run()
        assert [n for _, n in b.received] == [1, 1]
        net.heal(token)
        a.send("b", "data", {"n": 2})
        sim.run()
        assert [n for _, n in b.received] == [1, 1, 2]

    def test_degrade_link_rejects_bad_args(self, sim):
        net, a, b = make_pair(sim)
        with pytest.raises(ValueError):
            net.add_fault([("a", "b")], extra_delay_ms=-1.0)
        with pytest.raises(ValueError):
            net.add_fault([("a", "b")], loss_probability=2.0)
        with pytest.raises(ValueError):
            net.add_fault(loss_probability=-0.5)
        with pytest.raises(ValueError):
            net.add_fault(duplicate_probability=1.5)


class TestMessage:
    def test_unique_ids(self):
        m1 = Message(src="a", dst="b", kind="k")
        m2 = Message(src="a", dst="b", kind="k")
        assert m1.msg_id != m2.msg_id

    def test_duplicate_copies_payload_and_reply_to(self):
        m = Message(src="a", dst="b", kind="k", payload={"x": 1}, reply_to=77)
        d = m.duplicate()
        assert d.msg_id != m.msg_id
        assert d.reply_to == 77
        assert d.payload == {"x": 1}
        d.payload["x"] = 2
        assert m.payload["x"] == 1  # independent copy

    def test_payload_is_the_one_way_to_read_fields(self):
        m = Message(src="a", dst="b", kind="k", payload={"x": 1})
        assert m.payload["x"] == 1
        with pytest.raises(TypeError):
            m["x"]
        assert not hasattr(m, "get")

    def test_duplicate_preserves_span_id(self):
        m = Message(src="a", dst="b", kind="k", span_id=42)
        assert m.duplicate().span_id == 42


class TestNetworkStats:
    def test_counters_since_reset(self, sim):
        net, a, b = make_pair(sim)
        a.send("b", "data", {"n": 1})
        sim.run()
        net.reset_counters()
        a.send("b", "data", {"n": 2})
        a.send("b", "ping", {"n": 3})
        sim.run()
        delta = net.stats
        assert delta.total_messages == 3  # data + ping + ping's reply
        assert delta.by_kind["data"] == 1
        assert delta.by_kind["ping"] == 1
        assert delta.by_pair[("a", "b")] == 2

    def test_drops_counted_since_reset(self, sim):
        net, a, b = make_pair(sim)
        a.send("b", "data", {"n": 0})
        sim.run()
        net.reset_counters()
        token = net.partition(["a"], ["b"])
        a.send("b", "data", {"n": 1})
        sim.run()
        delta = net.stats
        assert delta.dropped == 1
        assert delta.total_messages == 1  # sends are recorded, then dropped
        net.heal(token)


class TestRngStreamIsolation:
    """Per-purpose RNG streams: enabling a fault lane must never shift
    the draws of another lane (the golden determinism contract in the
    module docstring).  Before the split, a single shared ``sim.rng``
    meant e.g. ``duplicate_probability=0.0001`` consumed a dup draw per
    message and thereby reshuffled every later delivery delay."""

    def _delivery_times(self, **net_kwargs):
        sim = Simulator(seed=7)
        net, a, b = make_pair(
            sim, delay_model=Jittered(10.0, 8.0), **net_kwargs
        )
        for n in range(30):
            a.send("b", "data", {"n": n})
        sim.run()
        return b.received

    def test_fault_flag_noop_is_byte_identical(self):
        """Setting a fault probability that never fires (or a window
        that can't fire) leaves the whole trace untouched."""
        baseline = self._delivery_times()
        assert baseline == self._delivery_times(duplicate_probability=1e-12)
        assert baseline == self._delivery_times(loss_probability=1e-12)

    def test_loss_preserves_survivor_delays(self):
        """With real loss, every *surviving* message is delivered at
        exactly the delay the lossless run gave it — loss filters the
        trace, it does not reshuffle it."""
        baseline = {n: t for t, n in self._delivery_times()}
        lossy = self._delivery_times(loss_probability=0.3)
        assert 0 < len(lossy) < len(baseline)
        for t, n in lossy:
            assert baseline[n] == t

    def test_duplication_preserves_primary_delays(self):
        """Duplicate copies draw from the dup stream; every primary
        delivery still happens at exactly its lossless-run instant (the
        duplicates are pure additions to the trace)."""
        from collections import Counter

        baseline = Counter(self._delivery_times())
        duped = Counter(self._delivery_times(duplicate_probability=0.4))
        assert sum(duped.values()) > 30
        missing = baseline - duped
        assert not missing, f"primary deliveries perturbed: {missing}"

    def test_streams_are_seed_derived(self):
        """Same seed, same trace; different seed, different trace."""
        assert self._delivery_times() == self._delivery_times()
        sim = Simulator(seed=8)
        net, a, b = make_pair(sim, delay_model=Jittered(10.0, 8.0))
        for n in range(30):
            a.send("b", "data", {"n": n})
        sim.run()
        assert b.received != self._delivery_times()


# -- link records vs. a network that never caches ------------------------------


class UncachedNetwork(Network):
    """The oracle: the message path as it was before link records —
    every gate asks :meth:`link_faults` afresh for every message, so
    nothing here can go stale."""

    def send(self, message):
        src, dst = message.src, message.dst
        message.send_time = self.sim.now
        size = self.size_model(message) if self.size_model is not None else 0
        self.stats.total_messages += 1
        self.stats.by_kind[message.kind] += 1
        self.stats.by_pair[(src, dst)] += 1
        if size:
            self.stats.total_bytes += size
            self.stats.bytes_by_kind[message.kind] += size
        for tap in self._message_taps:
            tap(message)
        if self.obs is not None:
            self.obs.on_send(message, size)
        if dst not in self.node_ids:
            self.stats.unknown_destination += 1
            return self._lose(message, "unknown_destination")
        blocked, extra, loss, dup = self.link_faults(src, dst)
        if blocked:
            return self._lose(message, "partition")
        delay = self.delay_model.delay(src, dst, self._delay_rng)
        if loss and self._loss_rng.random() < loss:
            return self._lose(message, "loss")
        self.sim.call_later(delay + extra, self._deliver, message)
        if dup and self._dup_rng.random() < dup:
            self.stats.duplicated += 1
            if self.obs is not None:
                self.obs.on_duplicate(message)
            delay = self.delay_model.delay(src, dst, self._dup_rng)
            self.sim.call_later(delay + extra, self._deliver, message.duplicate())

    def _lose(self, message, reason):
        self.stats.dropped += 1
        if self.obs is not None:
            self.obs.on_drop(message, reason)

    def _deliver(self, message):
        if self.link_faults(message.src, message.dst)[0]:
            return self._lose(message, "partition_in_flight")
        if self.obs is not None:
            self.obs.on_deliver(message)
        self.node(message.dst).deliver(message)


class DrawingModel:
    """A delay model without ``link``: it must be asked per message."""

    def delay(self, src, dst, rng):
        return 5.0 + 10.0 * rng.random() + (3.0 if src < dst else 0.0)


def _edge_model(jitter_ms):
    model = EdgeDelayModel(EdgeTopologyConfig(jitter_ms=jitter_ms, processing_ms=2.0))
    for node_id, host in [("a", "client0"), ("b", "edge0"), ("c", "edge1"),
                          ("d", "edge1")]:
        model.place(node_id, host)
    model.set_home("client0", "edge0")
    return model


DELAY_MODELS = {
    "constant": lambda: ConstantDelay(10.0),
    "matrix": lambda: MatrixDelay({("a", "b"): 4.0, ("c", "a"): 30.0}, default_ms=12.0),
    "jittered": lambda: Jittered(10.0, 8.0),
    "edge": lambda: _edge_model(0.0),
    "edge_jittered": lambda: _edge_model(6.0),
    "drawing": DrawingModel,
}


class FateLog:
    """Stands in for ``net.obs``: one line per send, drop, duplicate and
    delivery, with its instant and (for drops) its reason."""

    def __init__(self, sim):
        self.sim = sim
        self.lines = []

    def on_send(self, message, size):
        self.lines.append((self.sim.now, "send", message.payload["n"], size))

    def on_drop(self, message, reason):
        self.lines.append((self.sim.now, "drop", message.payload["n"], reason))

    def on_duplicate(self, message):
        self.lines.append((self.sim.now, "duplicate", message.payload["n"], None))

    def on_deliver(self, message):
        self.lines.append((self.sim.now, "deliver", message.payload["n"], None))


SENDERS = ["a", "b", "c"]
ANYONE = SENDERS + ["d", "ghost"]  # "d" registers late, "ghost" never
PROBABILITIES = st.sampled_from([0.0, 0.4, 1.0])
INDEX = st.integers(min_value=0, max_value=5)
SEND = st.tuples(st.just("send"), st.sampled_from(SENDERS), st.sampled_from(ANYONE))
FAULTS = st.one_of(
    st.tuples(st.just("run"), st.sampled_from([1.0, 7.0, 40.0, 200.0])),
    st.tuples(st.just("partition"), st.permutations(ANYONE),
              st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("heal"), st.none() | INDEX),
    st.tuples(st.just("block"), st.sampled_from(ANYONE), st.sampled_from(ANYONE),
              st.booleans()),
    st.tuples(st.just("degrade_link"), st.sampled_from(ANYONE), st.sampled_from(ANYONE),
              st.sampled_from([0.0, 15.0]), PROBABILITIES, st.booleans()),
    st.tuples(st.sampled_from(["loss", "duplicate"]), PROBABILITIES),
    st.tuples(st.just("register")),
)


@st.composite
def episodes(draw):
    """Send, break exactly that link, send, repair it, send — the
    sequence in which a stale link record shows."""
    send = draw(SEND)
    _op, x, y = send
    symmetric = draw(st.booleans())
    fault, repair = draw(st.sampled_from([
        (("block", x, y, symmetric), ("heal", -1)),
        (("partition", [x] + [name for name in ANYONE if name != x], 1),
         ("heal", draw(st.sampled_from([None, -1])))),
        (("degrade_link", x, y, draw(st.sampled_from([0.0, 15.0])),
          draw(PROBABILITIES), symmetric), ("heal", -1)),
        (("loss", draw(PROBABILITIES)), ("heal", -1)),
        (("duplicate", draw(PROBABILITIES)), ("heal", -1)),
        (("register",), ("run", 1.0)),
    ]))
    pause = draw(st.sampled_from([[], [("run", 7.0)], [("run", 200.0)]]))
    return [send, *pause, fault, send, *pause, repair, send]


ACTIONS = st.lists(
    episodes() | SEND.map(lambda send: [send]) | FAULTS.map(lambda fault: [fault]),
    min_size=1, max_size=10,
).map(lambda steps: [action for step in steps for action in step])


def play(network_class, model, actions, instruments, base_loss=0.0, dup=0.0,
         lossless=False):
    """Run *actions* on a fresh world; returns everything observable:
    per-node deliveries, the counters, and the fate log if installed."""
    keep = 0.0 if lossless else 1.0
    sim = Simulator(seed=11)
    net = network_class(sim, DELAY_MODELS[model](), loss_probability=base_loss * keep,
                        duplicate_probability=dup)
    nodes = {name: Recorder(sim, net, name) for name in SENDERS}
    fates = None
    if "obs" in instruments:
        fates = net.obs = FateLog(sim)
    if "size" in instruments:
        net.size_model = lambda message: 40 + message.payload["n"]
    tapped = []
    if "tap" in instruments:
        net.add_tap(lambda message: tapped.append((sim.now, message.payload["n"])))
    tokens = []

    def links(a, b, symmetric):
        return [(a, b), (b, a)] if symmetric else [(a, b)]

    n = 0
    for op, *args in actions:
        if op == "send":
            n += 1
            nodes[args[0]].send(args[1], "data", {"n": n})
        elif op == "run":
            sim.run(until=sim.now + args[0])
        elif op == "partition":
            order, cut = args
            tokens.append(net.partition(order[:cut], order[cut:]))
        elif op == "heal":
            index = args[0]
            net.heal(None if index is None
                     else tokens[index % len(tokens)] if tokens else 10_000)
        elif op == "block":
            a, b, symmetric = args
            tokens.append(net.add_fault(links(a, b, symmetric), blocked=True))
        elif op == "degrade_link":
            a, b, extra, loss, symmetric = args
            tokens.append(net.add_fault(links(a, b, symmetric), extra_delay_ms=extra,
                                        loss_probability=loss * keep))
        elif op == "loss":
            tokens.append(net.add_fault(loss_probability=args[0] * keep))
        elif op == "duplicate":
            tokens.append(net.add_fault(duplicate_probability=args[0]))
        elif op == "register" and "d" not in nodes:
            nodes["d"] = Recorder(sim, net, "d")
    sim.run()
    stats = net.stats
    return {
        "received": {name: node.received for name, node in nodes.items()},
        "counters": (stats.total_messages, stats.dropped, stats.unknown_destination,
                     stats.duplicated, stats.total_bytes, dict(stats.by_kind),
                     dict(stats.by_pair), dict(stats.bytes_by_kind)),
        "fates": fates.lines if fates is not None else None,
        "tapped": tapped,
    }


def _around(fault, repair, dst="b"):
    """One episode by hand, so every invalidation is exercised on every
    run whatever the random examples happen to contain."""
    send = ("send", "a", dst)
    return dict(model="jittered", instruments=set(), base_loss=0.0, dup=0.0,
                actions=[send, fault, send, ("run", 7.0), send, repair, send])


class TestLinkRecordsAgainstUncachedTwin:
    @settings(max_examples=300, deadline=None)
    @example(**_around(("block", "a", "b", False), ("heal", -1)))
    @example(**_around(("partition", ["a", "b", "c", "d", "ghost"], 1), ("heal", -1)))
    @example(**_around(("partition", ["a", "b", "c", "d", "ghost"], 1), ("heal", None)))
    @example(**_around(("degrade_link", "a", "b", 15.0, 1.0, True), ("heal", -1)))
    @example(**_around(("loss", 1.0), ("heal", -1)))
    @example(**_around(("duplicate", 1.0), ("heal", -1)))
    @example(**_around(("register",), ("run", 1.0), dst="d"))
    @given(
        model=st.sampled_from(sorted(DELAY_MODELS)),
        actions=ACTIONS,
        instruments=st.sets(st.sampled_from(["obs", "size", "tap"])),
        base_loss=st.sampled_from([0.0, 0.0, 0.3]),
        dup=st.sampled_from([0.0, 0.0, 0.5]),
    )
    def test_every_fate_equals_the_uncached_twins(self, model, actions,
                                                  instruments, base_loss, dup):
        """Whatever sequence of faults, repairs, late registrations and
        sends: same deliveries at the same instants, same drops for the
        same reasons, same counters as the twin that asks ``link_faults``
        and ``delay_model.delay`` for every message."""
        cached = play(Network, model, actions, instruments, base_loss, dup)
        assert cached == play(UncachedNetwork, model, actions, instruments,
                              base_loss, dup)
        if not dup and all(op != "duplicate" for op, *_ in actions):
            # Survivors keep the lossless run's delays: loss only filters.
            lossless = play(Network, model, actions, instruments, lossless=True)
            for name, received in cached["received"].items():
                assert set(received) <= set(lossless["received"][name])

    def test_models_resolve_to_what_delay_returns(self):
        """``link()`` and ``delay()`` are two views of one model."""
        for name, build in DELAY_MODELS.items():
            model = build()
            link = getattr(model, "link", None)
            for src in SENDERS:
                for dst in SENDERS + ["d"]:
                    fixed = link(src, dst) if link is not None else None
                    if fixed is None:
                        assert name in ("nested_jitter", "drawing")
                        continue
                    base, jitter = fixed
                    draw = random.Random(5).uniform(0.0, jitter) if jitter else 0.0
                    assert model.delay(src, dst, random.Random(5)) == base + draw
