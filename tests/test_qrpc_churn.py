"""QRPC under churn: broadcast escalation and timer/reply races.

Regression tests for two behaviours that only show up when faults and
retransmissions interleave:

* ``broadcast_after`` escalation — after enough failed attempts QRPC
  stops sampling random quorums and sends to *everyone*, which is what
  lets a call make progress when crash + partition + loss leave exactly
  one viable quorum.
* Late replies racing the retransmission timer — a reply can land on
  the same instant as the per-attempt timeout (``qrpc.py`` re-checks
  ``done`` after the sleep wakes for this reason).  The observable
  contract pinned here: ties never hang, never double-count a replier,
  and responders from earlier attempts are not re-asked.
"""

from collections import defaultdict

import pytest

from repro.quorum import READ, QrpcError, QuorumSpec, qrpc
from repro.sim import ConstantDelay, Network, Node, Simulator


class EchoServer(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = 0

    def on_q(self, msg):
        self.requests += 1
        self.reply(msg, payload={"from": self.node_id})


def make_world(n=5, delay=10.0, seed=0, **system_kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantDelay(delay))
    servers = [EchoServer(sim, net, f"n{i}") for i in range(n)]
    client = Node(sim, net, "client")
    system = QuorumSpec(kind="majority", **system_kwargs).build(
        [s.node_id for s in servers]
    )
    return sim, net, servers, client, system


def tap_request_batches(sim, net):
    """Record the set of `q` destinations per send instant."""
    batches = defaultdict(set)
    net.add_tap(
        lambda m: batches[sim.now].add(m.dst) if m.kind == "q" else None
    )
    return batches


class TestBroadcastEscalationUnderChurn:
    def test_crash_partition_loss_combo_eventually_gathers_quorum(self):
        """One node crashed, one partitioned away, 60% loss on the rest:
        random 3-of-5 quorums keep including dead members, but the
        broadcast escalation plus retransmission grinds out the single
        viable quorum {n2,n3,n4} once the loss window lifts."""
        sim, net, servers, client, system = make_world(seed=11)
        servers[0].crash()
        net.partition({"n1"}, {"client", "n2", "n3", "n4"})
        loss = net.add_fault(loss_probability=0.6)
        sim.schedule(2_000.0, lambda: net.heal(loss))
        batches = tap_request_batches(sim, net)

        def proc():
            replies = yield from qrpc(
                client, system, READ, "q", {},
                initial_timeout_ms=50.0, broadcast_after=2, max_attempts=20,
            )
            return set(replies)

        assert sim.run_process(proc()) == {"n2", "n3", "n4"}
        # At least one attempt escalated to a full broadcast.
        assert any(len(dsts) == 5 for dsts in batches.values())

    def test_escalation_respects_max_attempts(self):
        """Broadcasting is not a liveness oracle: with no quorum alive
        the call still gives up after max_attempts."""
        sim, net, servers, client, system = make_world(seed=2)
        for s in servers[:3]:
            s.crash()

        def proc():
            try:
                yield from qrpc(
                    client, system, READ, "q", {},
                    initial_timeout_ms=50.0, broadcast_after=1,
                    max_attempts=4,
                )
            except QrpcError as exc:
                return exc.attempts

        assert sim.run_process(proc()) == 4

    def test_responders_not_reasked_across_attempts(self):
        """Replies gathered before a partition are kept; escalated
        retransmissions go only to the nodes that have not answered."""
        sim, net, servers, client, system = make_world(
            seed=1, read_size=4
        )
        token = net.partition({"client", "n0", "n1"}, {"n2", "n3", "n4"})
        sim.schedule(120.0, lambda: net.heal(token))
        batches = tap_request_batches(sim, net)

        def proc():
            replies = yield from qrpc(
                client, system, READ, "q", {},
                initial_timeout_ms=100.0, broadcast_after=1,
                max_attempts=10,
            )
            return (sim.now, set(replies))

        when, replies = sim.run_process(proc())
        assert when == pytest.approx(320.0)
        assert replies == {"n0", "n1", "n2", "n3", "n4"}
        # Attempts after the first (t=100 and t=300, per the 2x backoff)
        # are broadcasts minus the early responders n0/n1.
        later = [dsts for t, dsts in sorted(batches.items()) if t > 0.0]
        assert later == [{"n2", "n3", "n4"}, {"n2", "n3", "n4"}]

    def test_duplicated_replies_counted_once(self):
        """Duplication storms must not fake a quorum: the replies dict
        is keyed by node, so each replier counts once."""
        sim, net, servers, client, system = make_world(seed=7)
        net.add_fault(duplicate_probability=0.9)
        counted = []

        def proc():
            replies = yield from qrpc(
                client, system, READ, "q", {}, initial_timeout_ms=100.0
            )
            counted.append(replies)
            return len(replies)

        n = sim.run_process(proc())
        assert n == len(set(counted[0]))
        assert system.is_read_quorum(set(counted[0]))


class TestTimerReplyRaces:
    def test_reply_just_under_the_timer_completes_first_attempt(self):
        """RTT strictly inside the timeout window: the first attempt
        completes and nothing is retransmitted."""
        sim, net, servers, client, system = make_world(delay=10.0)
        batches = tap_request_batches(sim, net)

        def proc():
            replies = yield from qrpc(
                client, system, READ, "q", {}, initial_timeout_ms=20.5
            )
            return (sim.now, len(replies))

        when, count = sim.run_process(proc())
        assert when == pytest.approx(20.0)
        assert count >= 3
        assert list(batches) == [0.0]  # no second attempt

    def test_reply_tied_with_timer_terminates_via_retransmission(self):
        """RTT exactly equal to the timeout: the tie goes to the timer
        (the per-call timeout fires with the retransmission sleep), so
        the first attempt's replies are discarded — but the call must
        then complete cleanly on the second attempt, not hang and not
        double-count repliers."""
        sim, net, servers, client, system = make_world(delay=10.0)
        batches = tap_request_batches(sim, net)

        def proc():
            replies = yield from qrpc(
                client, system, READ, "q", {}, initial_timeout_ms=20.0
            )
            return (sim.now, set(replies))

        when, replies = sim.run_process(proc())
        assert when == pytest.approx(40.0)  # exactly one extra round trip
        assert len(replies) == 3 and system.is_read_quorum(replies)
        assert sorted(batches) == [0.0, 20.0]
        # The retransmission resamples a full fresh quorum.
        assert len(batches[20.0]) == 3

    def test_tie_outcome_is_deterministic(self):
        """The tied race resolves identically across runs — event order
        at equal timestamps is (time, seq)-deterministic, which the
        chaos campaigns rely on for replay."""
        def once():
            sim, net, servers, client, system = make_world(delay=10.0, seed=5)

            def proc():
                replies = yield from qrpc(
                    client, system, READ, "q", {}, initial_timeout_ms=20.0
                )
                return (sim.now, sorted(replies))

            return sim.run_process(proc())

        assert once() == once()

    def test_late_quorum_completion_beats_next_timer(self):
        """Replies that arrive mid-window after earlier attempts failed
        complete the call immediately — the pending retransmission sleep
        for the *current* attempt must not delay the return."""
        sim, net, servers, client, system = make_world(seed=3)
        # Everything blocked until t=130: attempts 1 (t=0) and 2 (t=100)
        # launch into the partition and are dropped at send; attempt 3
        # (t=300) goes out after the heal and completes mid-window.
        net.partition(["client"], [s.node_id for s in servers])
        sim.schedule(130.0, net.heal)

        def proc():
            replies = yield from qrpc(
                client, system, READ, "q", {},
                initial_timeout_ms=100.0,
            )
            return (sim.now, len(replies))

        when, count = sim.run_process(proc())
        assert count >= 3
        # Attempt 3 fires at t=300 and its replies land at t=320; the
        # call returns then, not at the attempt-3 timer (t=700).
        assert when == pytest.approx(320.0)
