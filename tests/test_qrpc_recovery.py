"""QRPC across a *caller* crash: the recovery-race regression tests.

The node layer already discards late deliveries (``crash()`` fails every
pending RPC future and ``_dispatch`` drops unmatched replies), but a
:class:`QuorumCall` is a generator that outlives the crash of the node
it runs on.  Before the epoch guard, replies it had recorded *before*
the crash stayed in ``call.replies`` and could complete a quorum after
recovery with a single fresh responder — a quorum assembled across a
crash, which no quorum-intersection argument covers.

Pinned contract: a reply gathered by the pre-crash incarnation never
counts toward a quorum completed by the recovered one; the first round
after recovery starts from an empty reply set and re-contacts a full
quorum.
"""

from collections import defaultdict

import pytest

from repro.quorum import READ, QuorumSpec, qrpc
from repro.sim import ConstantDelay, Network, Node, Simulator


class EchoServer(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = 0

    def on_q(self, msg):
        self.requests += 1
        self.reply(msg, payload={"from": self.node_id})


def make_world(n=3, delay=10.0, seed=0, **system_kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantDelay(delay))
    servers = [EchoServer(sim, net, f"n{i}") for i in range(n)]
    client = Node(sim, net, "client")
    system = QuorumSpec(kind="majority", **system_kwargs).build(
        [s.node_id for s in servers]
    )
    return sim, net, servers, client, system


def tap_request_batches(sim, net):
    batches = defaultdict(set)
    net.add_tap(
        lambda m: batches[sim.now].add(m.dst) if m.kind == "q" else None
    )
    return batches


class TestCallerCrashRecovery:
    def test_pre_crash_replies_do_not_complete_a_post_recovery_quorum(self):
        """Replies from before the caller's crash are discarded: the
        round after recovery re-contacts a *full* fresh quorum instead
        of only the members that had not answered yet."""
        sim, net, servers, client, system = make_world(read_size=3)
        # Stagger the repliers: n0 answers at t=20, n1 at t=70, n2 at
        # t=300 — the client crashes at t=100 holding {n0, n1}.
        servers[1].set_slow(50.0)
        servers[2].set_slow(280.0)
        sim.schedule(100.0, client.crash)
        sim.schedule(150.0, client.recover)
        batches = tap_request_batches(sim, net)

        def proc():
            replies = yield from qrpc(
                client, system, READ, "q", {}, initial_timeout_ms=500.0
            )
            return (sim.now, set(replies))

        when, replies = sim.run_process(proc())
        assert replies == {"n0", "n1", "n2"}
        # Round 1 at t=0 reached everyone; the post-recovery round at
        # t=500 must again reach everyone — with the bug it asked only
        # n2, splicing n0/n1's pre-crash replies into the new quorum.
        assert batches[0.0] == {"n0", "n1", "n2"}
        assert batches[500.0] == {"n0", "n1", "n2"}
        # Completion waits for the slowest fresh replier of round 2.
        assert when == pytest.approx(500.0 + 10.0 + 280.0 + 10.0)

    def test_reply_in_flight_across_the_crash_is_discarded(self):
        """A reply to a request issued before the crash that *arrives*
        after recovery is dropped at the node layer and never surfaces
        in the call's reply set."""
        sim, net, servers, client, system = make_world(read_size=2)
        servers[0].set_slow(120.0)  # reply would land at t=140
        servers[1].set_slow(120.0)
        servers[2].set_slow(120.0)
        sim.schedule(50.0, client.crash)
        sim.schedule(60.0, client.recover)
        observed = []

        def proc():
            replies = yield from qrpc(
                client, system, READ, "q", {}, initial_timeout_ms=400.0
            )
            observed.append(dict(replies))
            return sim.now

        when = sim.run_process(proc())
        # Nothing before the t=400 retransmission could have counted:
        # completion is that round's send + slow processing + return.
        assert when == pytest.approx(400.0 + 10.0 + 120.0 + 10.0)
        assert len(observed[0]) >= 2

    def test_crash_free_behaviour_is_unchanged(self):
        """Sanity: without a crash the epoch guard is inert — one round,
        one quorum, no retransmission."""
        sim, net, servers, client, system = make_world()
        batches = tap_request_batches(sim, net)

        def proc():
            replies = yield from qrpc(
                client, system, READ, "q", {}, initial_timeout_ms=400.0
            )
            return (sim.now, len(replies))

        when, count = sim.run_process(proc())
        assert when == pytest.approx(20.0)
        assert count >= 2
        assert list(batches) == [0.0]

    def test_double_crash_still_terminates(self):
        """Two crash/recover cycles during one call: each resets the
        epoch; the call still completes with a post-final-recovery
        quorum rather than hanging or mixing epochs."""
        sim, net, servers, client, system = make_world(read_size=3)
        servers[2].set_slow(200.0)
        for t in (50.0, 700.0):
            sim.schedule(t, client.crash)
        for t in (80.0, 730.0):
            sim.schedule(t, client.recover)

        def proc():
            replies = yield from qrpc(
                client, system, READ, "q", {}, initial_timeout_ms=500.0
            )
            return set(replies)

        assert sim.run_process(proc()) == {"n0", "n1", "n2"}
