"""Tests for QRPC failover behaviour and ROWA-Async replica failover."""

import pytest

from repro.protocols import build_rowa_async_cluster
from repro.quorum import READ, QuorumCall, QuorumSpec, qrpc
from repro.sim import ConstantDelay, Network, Node, Simulator


class EchoServer(Node):
    def on_q(self, msg):
        self.reply(msg, payload={"from": self.node_id})


def make_world(n=5, seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantDelay(10.0))
    servers = [EchoServer(sim, net, f"n{i}") for i in range(n)]
    client = Node(sim, net, "client")
    return sim, net, servers, client


class TestPreferDropOnRetry:
    def test_dead_preferred_single_node_quorum_fails_over(self):
        """With read quorums of size 1, pinning a dead preferred node on
        every retransmission would never recover; the retry must sample
        fresh (the paper: 'retransmissions are each to a new randomly
        selected quorum')."""
        sim, net, servers, client = make_world(seed=2)
        servers[0].crash()
        system = QuorumSpec.parse("rowa").build([s.node_id for s in servers])

        def proc():
            replies = yield from qrpc(
                client, system, READ, "q", {},
                prefer="n0", initial_timeout_ms=50.0, max_attempts=5,
            )
            return set(replies)

        replies = sim.run_process(proc())
        assert replies and "n0" not in replies

    def test_alive_preferred_used_first(self):
        sim, net, servers, client = make_world(seed=3)
        system = QuorumSpec.parse("rowa").build([s.node_id for s in servers])

        def proc():
            replies = yield from qrpc(client, system, READ, "q", {}, prefer="n2")
            return set(replies)

        assert sim.run_process(proc()) == {"n2"}


class TestBroadcastEscalation:
    def test_broadcast_after_attempts_reaches_everyone(self):
        """After `broadcast_after` failed attempts, QRPC sends to all
        nodes — the paper's 'more aggressive implementation'."""
        sim, net, servers, client = make_world(seed=4)
        # Only n3 and n4 alive: random quorums of 3 can never succeed,
        # but a broadcast gathers whatever is reachable.
        for s in servers[:3]:
            s.crash()
        system = QuorumSpec.parse("majority:r=2,w=4").build(
            [s.node_id for s in servers]
        )

        def proc():
            replies = yield from qrpc(
                client, system, READ, "q", {},
                initial_timeout_ms=50.0, max_attempts=6, broadcast_after=1,
            )
            return set(replies)

        assert sim.run_process(proc()) == {"n3", "n4"}

    def test_no_broadcast_when_disabled(self):
        sim, net, servers, client = make_world(seed=5)
        system = QuorumSpec.parse("majority").build([s.node_id for s in servers])
        sent_to = set()
        net.add_tap(lambda m: sent_to.add(m.dst) if m.kind == "q" else None)

        def proc():
            replies = yield from qrpc(
                client, system, READ, "q", {}, broadcast_after=10**9,
            )
            return replies

        sim.run_process(proc())
        assert len(sent_to) <= 3  # one sampled quorum, no broadcast


class TestRowaAsyncFailover:
    def test_reads_fail_over_to_another_replica(self):
        sim = Simulator(seed=6)
        net = Network(sim, ConstantDelay(10.0))
        cluster = build_rowa_async_cluster(
            sim, net, ["s0", "s1", "s2"],
            rpc_timeout_ms=100.0, max_attempts=4,
        )
        client = cluster.client("c", prefer="s0")
        cluster.server("s0").crash()

        def scenario():
            yield from client.write("x", "v")
            r = yield from client.read("x")
            return r.value

        assert sim.run_process(scenario(), until=600_000.0) == "v"

    def test_no_failover_without_fallbacks(self):
        from repro.protocols import SingleReplicaClient
        from repro.sim import RpcTimeout

        sim = Simulator(seed=7)
        net = Network(sim, ConstantDelay(10.0))
        cluster = build_rowa_async_cluster(sim, net, ["s0", "s1"])
        client = SingleReplicaClient(
            sim, net, "c", "s0", [], ("ra_read", "ra_write"),
            rpc_timeout_ms=100.0, max_attempts=2,
        )
        cluster.server("s0").crash()

        def scenario():
            try:
                yield from client.read("x")
            except RpcTimeout:
                return "stuck"

        assert sim.run_process(scenario(), until=600_000.0) == "stuck"
