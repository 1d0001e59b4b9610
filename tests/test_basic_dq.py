"""Protocol tests for the basic (lease-free) dual-quorum protocol."""

import pytest

from repro.core import (
    DqvlConfig, DqvlOqsNode, build_basic_dq_cluster, build_dqvl_cluster,
)
from repro.quorum import QuorumSpec
from repro.sim import ConstantDelay, Network, Simulator
from repro.types import ZERO_LC


def make_cluster(n_iqs=3, n_oqs=3, delay=10.0, seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantDelay(delay))
    config = DqvlConfig(
        inval_initial_timeout_ms=100.0, qrpc_initial_timeout_ms=100.0
    )
    cluster = build_basic_dq_cluster(
        sim, net,
        [f"iqs{i}" for i in range(n_iqs)],
        [f"oqs{i}" for i in range(n_oqs)],
        config,
    )
    return sim, net, cluster


class TestBasics:
    def test_initial_read(self):
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            r = yield from client.read("x")
            return (r.value, r.lc)

        assert sim.run_process(scenario()) == (None, ZERO_LC)

    def test_write_then_read(self):
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            w = yield from client.write("x", "hello")
            r = yield from client.read("x")
            return (r.value, r.lc == w.lc)

        assert sim.run_process(scenario()) == ("hello", True)

    def test_read_burst_hits_after_first_miss(self):
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v")
            hits = []
            for _ in range(3):
                r = yield from client.read("x")
                hits.append(r.hit)
            return hits

        assert sim.run_process(scenario()) == [False, True, True]

    def test_write_burst_suppresses_after_first(self):
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v0")
            yield from client.read("x")
            yield from client.write("x", "v1")  # through (invalidate)
            net.reset_counters()
            yield from client.write("x", "v2")  # suppress
            return net.stats.by_kind.get("inval", 0)

        assert sim.run_process(scenario()) == 0

    def test_no_stale_read_after_cross_client_write(self):
        sim, net, cluster = make_cluster()
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        c1 = cluster.client("c1", prefer_oqs="oqs1")

        def scenario():
            yield from c0.write("x", "v1")
            r = yield from c1.read("x")
            assert r.value == "v1"
            yield from c0.write("x", "v2")
            r = yield from c1.read("x")
            return r.value

        assert sim.run_process(scenario()) == "v2"

    def test_first_write_on_fresh_system_suppresses(self):
        """With per-node callback tracking the IQS can prove that no OQS
        node cached anything yet, so the first write needs no
        invalidations.  (The paper's global lastReadLC scalar cannot
        express this and would invalidate everyone — see DESIGN.md.)"""
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v0")
            return net.stats.by_kind.get("inval", 0)

        assert sim.run_process(scenario()) == 0

    def test_write_after_read_invalidates(self):
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v0")
            yield from client.read("x")
            net.reset_counters()
            yield from client.write("x", "v1")
            return net.stats.by_kind.get("inval", 0)

        assert sim.run_process(scenario()) > 0


class TestBlockingSemantics:
    def test_write_blocks_while_oqs_node_unreachable(self):
        """The basic protocol's weakness: a write cannot complete while
        an OQS node that may hold a valid copy is unreachable."""
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")
        state = {}

        def scenario():
            yield from client.write("x", "v0")
            yield from client.read("x")
            cluster.oqs_node("oqs0").crash()
            write_proc = sim.spawn(client.write("x", "v1"))
            state["proc"] = write_proc
            yield sim.sleep(30_000.0)
            state["blocked"] = not write_proc.done
            cluster.oqs_node("oqs0").recover()
            yield write_proc
            return state["blocked"]

        assert sim.run_process(scenario(), until=600_000.0) is True

    def test_write_proceeds_when_unreachable_node_never_cached(self):
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")
        # oqs2 never cached anything and is down; majority-write still OK
        cluster.oqs_node("oqs2").crash()

        def scenario():
            w = yield from client.write("x", "v0")
            return w.value

        assert sim.run_process(scenario(), until=600_000.0) == "v0"


class TestValidityRule:
    """The hit test on the preset's public lease view: with an infinite
    volume lease granted by every IQS server, only the per-object
    columns decide."""

    @staticmethod
    def granted_node():
        sim, net, cluster = make_cluster()
        node = cluster.oqs_node("oqs0")
        for iqs in ("iqs0", "iqs1", "iqs2"):
            node.view.apply_grant(
                iqs, "vol0", length_ms=float("inf"), epoch=0, requestor_time=0.0,
            )
        return node

    def test_hit_needs_quorum_of_valid_columns(self):
        """A single valid column is not enough: a write quorum could
        avoid it entirely (Condition C)."""
        node = self.granted_node()
        from repro.types import LogicalClock

        node.view.apply_renewal("iqs0", "x", 0, LogicalClock(5, "w"))
        assert not node.is_local_valid("x")  # one column < quorum of 2
        node.view.apply_renewal("iqs1", "x", 0, LogicalClock(5, "w"))
        assert node.is_local_valid("x")

    def test_max_clock_rule(self):
        """An invalidation with the highest clock blocks hits even if a
        quorum of other columns is still marked valid."""
        node = self.granted_node()
        from repro.types import LogicalClock

        for iqs in ("iqs0", "iqs1"):
            node.view.apply_renewal(iqs, "x", 0, LogicalClock(5, "w"))
        assert node.is_local_valid("x")
        node.view.apply_invalidation("iqs2", "x", LogicalClock(7, "w"))
        assert not node.is_local_valid("x")

    def test_renewal_with_equal_clock_validates(self):
        node = self.granted_node()
        from repro.types import LogicalClock

        lc = LogicalClock(3, "w")
        node.view.apply_invalidation("iqs0", "x", lc)
        node.view.apply_renewal("iqs1", "x", 0, lc)
        assert not node.is_local_valid("x")
        assert node.view.apply_renewal("iqs0", "x", 0, lc)
        assert node.is_local_valid("x")

    def test_never_heard_object_is_invalid(self):
        sim, net, cluster = make_cluster()
        node = cluster.oqs_node("oqs0")
        assert not node.is_local_valid("nope")


class TestKeeperMargin:
    """The keeper's ``renewal_margin_ms < lease_length_ms`` check runs on
    the config an OQS node is built with, so after the preset."""

    SHORT_LEASE = DqvlConfig(proactive_renewal=True, lease_length_ms=800.0)

    def test_dqvl_rejects_margin_at_or_above_lease(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError, match="renewal_margin_ms"):
            build_dqvl_cluster(sim, Network(sim), ["iqs0"], ["oqs0"],
                               self.SHORT_LEASE)
        with pytest.raises(ValueError, match="renewal_margin_ms"):
            DqvlOqsNode(sim, Network(sim), "oqs1",
                        QuorumSpec.parse("single").build(["iqs0"]), self.SHORT_LEASE)

    def test_basic_dq_accepts_the_same_config(self):
        sim = Simulator(seed=0)
        cluster = build_basic_dq_cluster(sim, Network(sim), ["iqs0"], ["oqs0"],
                                         self.SHORT_LEASE)
        assert cluster.config.lease_length_ms == float("inf")
        assert not cluster.config.proactive_renewal


class TestFaults:
    def test_correct_under_loss(self):
        sim = Simulator(seed=31)
        net = Network(sim, ConstantDelay(10.0), loss_probability=0.15)
        config = DqvlConfig(
            inval_initial_timeout_ms=80.0, qrpc_initial_timeout_ms=80.0
        )
        cluster = build_basic_dq_cluster(
            sim, net, ["iqs0", "iqs1", "iqs2"], ["oqs0", "oqs1", "oqs2"], config
        )
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            for i in range(6):
                yield from client.write("x", f"v{i}")
            r = yield from client.read("x")
            return r.value

        assert sim.run_process(scenario(), until=600_000.0) == "v5"
