"""Tests for QRPC: quorum gathering, retransmission, failure handling."""

import pytest

from repro.quorum import (
    READ,
    WRITE,
    QrpcError,
    QuorumCall,
    QuorumSpec,
)
from repro.sim import ConstantDelay, Network, Node, Simulator


class EchoServer(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = 0

    def on_q(self, msg):
        self.requests += 1
        self.reply(msg, payload={"from": self.node_id, "x": msg.payload.get("x")})


def make_world(n=5, delay=10.0, seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantDelay(delay))
    servers = [EchoServer(sim, net, f"n{i}") for i in range(n)]
    client = Node(sim, net, "client")
    return sim, net, servers, client


class TestBasicQrpc:
    def test_read_quorum_gathered(self):
        sim, net, servers, client = make_world()
        system = QuorumSpec.parse("majority").build([s.node_id for s in servers])

        def proc():
            replies = yield from QuorumCall(
                client, system, READ, lambda target: ("q", {"x": 1})
            ).run()
            return replies

        replies = sim.run_process(proc())
        assert len(replies) >= 3
        assert system.is_read_quorum(set(replies))
        assert all(r.payload["x"] == 1 for r in replies.values())

    def test_write_quorum_gathered(self):
        sim, net, servers, client = make_world()
        system = QuorumSpec.parse("rowa").build([s.node_id for s in servers])

        def proc():
            replies = yield from QuorumCall(client, system, WRITE, lambda target: ("q", {})).run()
            return replies

        replies = sim.run_process(proc())
        assert set(replies) == {s.node_id for s in servers}

    def test_invalid_mode_rejected(self):
        sim, net, servers, client = make_world()
        system = QuorumSpec.parse("majority").build([s.node_id for s in servers])
        with pytest.raises(ValueError):
            QuorumCall(client, system, "NEITHER", request_for=lambda t: ("q", {}))

    def test_completes_at_quorum_latency(self):
        sim, net, servers, client = make_world(delay=10.0)
        system = QuorumSpec.parse("majority").build([s.node_id for s in servers])

        def proc():
            yield from QuorumCall(client, system, READ, lambda target: ("q", {})).run()
            return sim.now

        assert sim.run_process(proc()) == 20.0  # one round trip


class TestRetransmission:
    def test_retries_until_quorum_after_heal(self):
        sim, net, servers, client = make_world()
        system = QuorumSpec.parse("majority").build([s.node_id for s in servers])
        # block everything; heal after 1 second
        net.partition(["client"], [s.node_id for s in servers])
        sim.schedule(1000.0, net.heal)

        def proc():
            replies = yield from QuorumCall(
                client, system, READ, lambda target: ("q", {}), initial_timeout_ms=100.0
            ).run()
            return (sim.now, len(replies))

        when, count = sim.run_process(proc())
        assert when > 1000.0
        assert count >= 3

    def test_gives_up_after_max_attempts(self):
        sim, net, servers, client = make_world()
        system = QuorumSpec.parse("majority").build([s.node_id for s in servers])
        net.partition(["client"], [s.node_id for s in servers])

        def proc():
            try:
                yield from QuorumCall(
                    client, system, READ, lambda target: ("q", {}),
                    initial_timeout_ms=50.0, max_attempts=3,
                ).run()
            except QrpcError as exc:
                return exc.attempts

        assert sim.run_process(proc()) == 3

    def test_exponential_backoff_caps(self):
        sim, net, servers, client = make_world()
        system = QuorumSpec.parse("majority").build([s.node_id for s in servers])
        net.partition(["client"], [s.node_id for s in servers])

        def proc():
            try:
                yield from QuorumCall(
                    client, system, READ, lambda target: ("q", {}),
                    initial_timeout_ms=100.0,
                    max_timeout_ms=200.0, max_attempts=4,
                ).run()
            except QrpcError:
                return sim.now

        # attempts waits: 100 + 200 + 200 + 200 = 700
        assert sim.run_process(proc()) == pytest.approx(700.0)

    def test_replies_accumulate_across_attempts(self):
        """Partial quorums from different attempts combine."""
        sim, net, servers, client = make_world(n=3, seed=3)
        system = QuorumSpec.parse("majority:r=3,w=1").build([s.node_id for s in servers])
        # one server unreachable for a while
        net.partition(["client"], ["n0"])
        sim.schedule(500.0, net.heal)

        def proc():
            replies = yield from QuorumCall(
                client, system, READ, lambda target: ("q", {}), initial_timeout_ms=100.0
            ).run()
            return set(replies)

        assert sim.run_process(proc()) == {"n0", "n1", "n2"}

    def test_crashed_server_does_not_block_majority(self):
        sim, net, servers, client = make_world()
        servers[0].crash()
        servers[1].crash()
        system = QuorumSpec.parse("majority").build([s.node_id for s in servers])

        def proc():
            replies = yield from QuorumCall(
                client, system, READ, lambda target: ("q", {}), initial_timeout_ms=100.0
            ).run()
            return set(replies)

        replies = sim.run_process(proc())
        assert len(replies) == 3
        assert "n0" not in replies and "n1" not in replies


class TestVariation:
    def test_custom_done_predicate(self):
        """The DQVL-style variation: loop until a protocol condition."""
        sim, net, servers, client = make_world()
        system = QuorumSpec.parse("majority").build([s.node_id for s in servers])
        seen = set()

        def request_for(target):
            return ("q", {"x": target})

        call = QuorumCall(
            client, system, READ,
            request_for=request_for,
            done=lambda replies: len(replies) >= 4,  # more than a quorum
            initial_timeout_ms=100.0,
        )

        def proc():
            replies = yield from call.run()
            return len(replies)

        assert sim.run_process(proc()) >= 4

    def test_request_factory_can_skip_targets(self):
        sim, net, servers, client = make_world()
        system = QuorumSpec.parse("majority").build([s.node_id for s in servers])

        def request_for(target):
            if target == "n0":
                return None
            return ("q", {})

        call = QuorumCall(
            client, system, READ, request_for=request_for,
            initial_timeout_ms=50.0,
        )

        def proc():
            replies = yield from call.run()
            return replies

        replies = sim.run_process(proc())
        assert "n0" not in replies
        assert servers[0].requests == 0

    def test_vacuously_true_predicate_sends_nothing(self):
        sim, net, servers, client = make_world()
        system = QuorumSpec.parse("majority").build([s.node_id for s in servers])
        call = QuorumCall(
            client, system, READ,
            request_for=lambda t: ("q", {}),
            done=lambda replies: True,
        )

        def proc():
            replies = yield from call.run()
            return replies

        assert sim.run_process(proc()) == {}
        assert all(s.requests == 0 for s in servers)

    def test_prefer_included_every_attempt(self):
        sim, net, servers, client = make_world(seed=9)
        system = QuorumSpec.parse("majority").build([s.node_id for s in servers])

        def proc():
            replies = yield from QuorumCall(
                client, system, READ, lambda target: ("q", {}), prefer="n2",
            ).run()
            return replies

        replies = sim.run_process(proc())
        assert "n2" in replies

    def test_local_node_preferred_when_member(self):
        sim = Simulator(seed=0)
        net = Network(sim, ConstantDelay(10.0))
        servers = [EchoServer(sim, net, f"n{i}") for i in range(5)]
        # the client *is* n0 here: member of the system
        system = QuorumSpec.parse("majority").build([s.node_id for s in servers])

        def proc():
            replies = yield from QuorumCall(
                servers[0], system, READ, lambda target: ("q", {})
            ).run()
            return replies

        replies = sim.run_process(proc())
        assert "n0" in replies
