"""Unit tests for nodes: dispatch, RPC, crash/recovery, timers."""

import types

import pytest

from repro.sim import (
    ConstantDelay,
    Network,
    Node,
    NodeCrashed,
    RpcTimeout,
    Simulator,
)


class Server(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recovered = 0
        self.sync_calls = []

    def on_echo(self, msg):
        self.reply(msg, payload={"x": msg.payload["x"]})

    def on_slow_echo(self, msg):
        def work():
            yield self.sim.sleep(50.0)
            self.reply(msg, payload={"x": msg.payload["x"]})

        return work()

    def on_oneway(self, msg):
        self.sync_calls.append(msg.payload["x"])

    def on_recover(self):
        self.recovered += 1


@pytest.fixture
def world():
    sim = Simulator(seed=2)
    net = Network(sim, ConstantDelay(10.0))
    a = Server(sim, net, "a")
    b = Server(sim, net, "b")
    return sim, net, a, b


class TestDispatch:
    def test_handler_dispatch(self, world):
        sim, net, a, b = world
        a.send("b", "oneway", {"x": 1})
        sim.run()
        assert b.sync_calls == [1]

    def test_missing_handler_raises(self, world):
        sim, net, a, b = world
        a.send("b", "nonexistent", {})
        with pytest.raises(AttributeError, match="no handler"):
            sim.run()

    def test_generator_handler_is_spawned(self, world):
        sim, net, a, b = world

        def proc():
            reply = yield a.call("b", "slow_echo", {"x": 7})
            return (reply.payload["x"], sim.now)

        assert sim.run_process(proc()) == (7, 70.0)  # 10 + 50 + 10


class TestRpc:
    def test_call_reply_roundtrip(self, world):
        sim, net, a, b = world

        def proc():
            reply = yield a.call("b", "echo", {"x": 3})
            return (reply.payload["x"], reply.src, sim.now)

        assert sim.run_process(proc()) == (3, "b", 20.0)

    def test_timeout_raises(self, world):
        sim, net, a, b = world
        net.partition(["a"], ["b"])

        def proc():
            try:
                yield a.call("b", "echo", {"x": 1}, timeout=100.0)
            except RpcTimeout:
                return sim.now

        assert sim.run_process(proc()) == 100.0

    def test_late_reply_after_timeout_is_dropped(self, world):
        sim, net, a, b = world
        # one-way block a->b removed after the timeout would have fired;
        # easier: timeout shorter than the round trip.
        def proc():
            try:
                yield a.call("b", "echo", {"x": 1}, timeout=15.0)
            except RpcTimeout:
                pass
            yield sim.sleep(100.0)  # late reply arrives at t=20, ignored
            return True

        assert sim.run_process(proc()) is True

    def test_duplicate_reply_resolves_once(self, world):
        sim, net, a, b = world
        net.add_fault(duplicate_probability=1.0)

        def proc():
            reply = yield a.call("b", "echo", {"x": 5})
            return reply.payload["x"]

        assert sim.run_process(proc()) == 5

    def test_call_from_crashed_node_fails(self, world):
        sim, net, a, b = world
        a.crash()

        def proc():
            try:
                yield a.call("b", "echo", {"x": 1})
            except NodeCrashed:
                return "crashed"

        assert sim.run_process(proc()) == "crashed"


class Noter(Server):
    """Replies to ``echo_note``, then sends the requester a ``note``; as
    the requester, logs every ``note`` it receives."""

    log = None

    def on_echo_note(self, msg):
        self.reply(msg, payload={"x": msg.payload["x"]})
        self.send(msg.src, "note", {"x": msg.payload["x"]})

    def on_note(self, msg):
        self.log.append(("note", msg.payload["x"]))


class TestReplySinks:
    """``request`` hands the outcome to a callable in the turn a
    ``call`` future's callback takes, so the two kinds of sink are
    interchangeable for the order of events."""

    @staticmethod
    def _same_instant_program(callable_sinks):
        sim = Simulator(seed=2)
        net = Network(sim, ConstantDelay(10.0))
        a, b = Noter(sim, net, "a"), Noter(sim, net, "b")
        log = a.log = []
        for x in range(4):
            if callable_sinks and x % 2:
                a.request("b", "echo_note", {"x": x}, None,
                          lambda reply: log.append(("reply", reply.payload["x"])))
            else:
                a.call("b", "echo_note", {"x": x}).add_callback(
                    lambda future: log.append(("reply", future.value.payload["x"])))
        sim.run()
        assert sim.now == 20.0 and not a._pending_rpcs
        return log

    def test_request_and_call_callbacks_keep_their_relative_order(self):
        """Eight messages land on ``a`` at t=20, a reply and a note per
        request: every callback runs after all of them, in request
        order, whichever sink the request had."""
        mixed = self._same_instant_program(callable_sinks=True)
        assert mixed == self._same_instant_program(callable_sinks=False)
        assert mixed == [("note", x) for x in range(4)] + [("reply", x) for x in range(4)]

    def test_request_from_a_crashed_node_fails_its_callback_two_turns_later(
            self, world):
        """As ``call``'s future does: a marker queued after both requests
        runs before either callback, and the callbacks keep issue order."""
        sim, net, a, b = world
        a.crash()
        log = []
        assert a.request("b", "echo", {"x": 1}, None,
                         lambda exc: log.append(("request", exc.node_id))) is None
        a.call("b", "echo", {"x": 2}).add_callback(
            lambda future: log.append(("call", future.exception.node_id)))
        sim.call_soon(log.append, "marker")
        sim.run()
        assert log == ["marker", ("request", "a"), ("call", "a")]
        assert sim.now == 0.0 and net.stats.total_messages == 0


class TestCrashRecovery:
    def test_crashed_node_drops_messages(self, world):
        sim, net, a, b = world
        b.crash()
        a.send("b", "oneway", {"x": 1})
        sim.run()
        assert b.sync_calls == []

    def test_crash_fails_pending_rpcs(self, world):
        sim, net, a, b = world

        def proc():
            future = a.call("b", "slow_echo", {"x": 1})
            yield sim.sleep(30.0)  # request delivered, work in progress
            a.crash()
            try:
                yield future
            except NodeCrashed:
                return "failed"

        assert sim.run_process(proc()) == "failed"

    def test_recover_invokes_hook_and_resumes(self, world):
        sim, net, a, b = world
        b.crash()
        b.recover()
        assert b.recovered == 1
        a.send("b", "oneway", {"x": 2})
        sim.run()
        assert b.sync_calls == [2]

    def test_crash_recover_idempotent(self, world):
        sim, net, a, b = world
        b.crash()
        b.crash()
        b.recover()
        b.recover()
        assert b.recovered == 1

    def test_send_while_crashed_suppressed(self, world):
        sim, net, a, b = world
        a.crash()
        assert a.send("b", "oneway", {"x": 1}) is None
        sim.run()
        assert b.sync_calls == []

    def test_check_alive_guard(self, world):
        sim, net, a, b = world
        a.crash()
        with pytest.raises(NodeCrashed):
            a.check_alive()


class TestSlowMode:
    def test_slow_mode_defers_dispatch(self, world):
        sim, net, a, b = world
        b.set_slow(40.0)
        assert b.is_slow
        a.send("b", "oneway", {"x": 1})
        sim.run()
        # 10ms network + 40ms local backlog
        assert b.sync_calls == [1]
        assert sim.now == 50.0

    def test_slow_mode_delays_rpc_replies(self, world):
        sim, net, a, b = world
        b.set_slow(30.0)

        def proc():
            reply = yield a.call("b", "echo", {"x": 2})
            return (reply.payload["x"], sim.now)

        # request: 10 net + 30 slow, reply: 10 net (client is healthy)
        assert sim.run_process(proc()) == (2, 50.0)

    def test_clear_slow_restores_latency(self, world):
        sim, net, a, b = world
        b.set_slow(40.0)
        b.clear_slow()
        assert not b.is_slow
        a.send("b", "oneway", {"x": 1})
        sim.run()
        assert sim.now == 10.0

    def test_crash_while_slow_drops_backlog(self, world):
        sim, net, a, b = world
        b.set_slow(40.0)
        a.send("b", "oneway", {"x": 1})
        sim.schedule(20.0, b.crash)   # message arrived at 10, queued
        sim.schedule(25.0, b.recover)
        sim.run()
        assert b.sync_calls == []  # restart loses queued input

    def test_negative_slow_rejected(self, world):
        sim, net, a, b = world
        with pytest.raises(ValueError):
            a.set_slow(-1.0)


class TestTimers:
    def test_after_fires_when_alive(self, world):
        sim, net, a, b = world
        fired = []
        a.after(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_after_suppressed_while_crashed(self, world):
        sim, net, a, b = world
        fired = []
        a.after(5.0, lambda: fired.append(1))
        a.crash()
        sim.run()
        assert fired == []

    def test_after_suppressed_across_crash_recover_cycle(self, world):
        """A timer set before a crash must not fire after recovery —
        recovery models a process restart that loses its schedule."""
        sim, net, a, b = world
        fired = []
        a.after(10.0, lambda: fired.append(1))
        sim.schedule(2.0, a.crash)
        sim.schedule(4.0, a.recover)
        sim.run()
        assert fired == []


class TestMessagePathSeams:
    """The boundaries other layers hook: ``bench/probe.py`` wraps
    ``Node.deliver`` and ``Simulator.call_later`` on the *class*,
    ``chaos/weaken.py`` patches ``send`` on *instances*, protocols
    override ``on_<kind>`` in subclasses.  Nothing the per-message path
    remembers (link records, handler tables) may go around them."""

    def test_class_level_wrappers_see_every_delivery_and_timer(self, world, monkeypatch):
        sim, net, a, b = world
        sim.run_process(self._echo(a, 0))  # records and tables are warm
        before = net.stats.total_messages
        seen = {"deliver": 0, "call_later": 0}

        def counted(name, original):
            def wrapper(self, *args, **kwargs):
                seen[name] += 1
                return original(self, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(Node, "deliver", counted("deliver", Node.deliver))
        monkeypatch.setattr(
            Simulator, "call_later", counted("call_later", Simulator.call_later))
        for x in range(5):
            sim.run_process(self._echo(a, x))
        sent = net.stats.total_messages - before
        assert sent == 10
        assert seen == {"deliver": sent, "call_later": sent}

    @staticmethod
    def _echo(node, x):
        reply = yield node.call("b", "echo", {"x": x})
        assert reply.payload["x"] == x

    def test_instance_patched_send_intercepts_reply(self, world):
        sim, net, a, b = world
        swallowed = []

        def send(self, dst, kind, payload=None, reply_to=None, span=None):
            swallowed.append((dst, kind, reply_to is not None))

        b.send = types.MethodType(send, b)
        future = a.call("b", "echo", {"x": 1}, timeout=100.0)
        sim.run()
        assert swallowed == [("a", "echo_reply", True)]
        assert isinstance(future.exception, RpcTimeout)

    def test_subclass_override_after_parent_dispatched_the_kind(self, world):
        sim, net, a, b = world
        a.send("b", "oneway", {"x": 1})
        sim.run()  # Server has dispatched "oneway"

        class Doubler(Server):
            def on_oneway(self, msg):
                self.sync_calls.append(2 * msg.payload["x"])

        c = Doubler(sim, net, "c")
        a.send("c", "oneway", {"x": 2})
        a.send("b", "oneway", {"x": 3})
        sim.run()
        assert c.sync_calls == [4]
        assert b.sync_calls == [1, 3]

    def test_obs_tracer_is_none_on_a_closed_network(self, world):
        sim, net, a, b = world
        assert a.obs_tracer is None
        net.close()
        assert a.net is None and a.obs_tracer is None
