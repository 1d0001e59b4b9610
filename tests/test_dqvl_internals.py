"""White-box unit tests for DQVL node internals.

The protocol tests exercise behaviour end to end; these pin down the
individual decision functions — the OQS hit condition, the IQS write
classification, and statistics — by manipulating node state
directly.
"""

import pytest

from repro.core import DqvlConfig, build_dqvl_cluster
from repro.core.leases import VolumeLeaseGrant
from repro.sim import ConstantDelay, Network, Simulator
from repro.types import ZERO_LC, LogicalClock


def lc(n, node="w"):
    return LogicalClock(n, node)


@pytest.fixture
def world():
    sim = Simulator(seed=0)
    net = Network(sim, ConstantDelay(10.0))
    config = DqvlConfig(
        lease_length_ms=1_000.0,
        inval_initial_timeout_ms=100.0,
        qrpc_initial_timeout_ms=100.0,
    )
    cluster = build_dqvl_cluster(
        sim, net, ["iqs0", "iqs1", "iqs2"], ["oqs0", "oqs1", "oqs2"], config,
    )
    return sim, net, cluster


def give_valid_lease(node, iqs_id, obj, clock, now_grant=None):
    """Install a valid (volume, object) pair from *iqs_id* at *node*."""
    grant = VolumeLeaseGrant(
        volume=node.volume_of(obj), length_ms=1_000.0, epoch=0,
        delayed=(), requestor_time=now_grant if now_grant is not None else node.clock.now(),
    )
    node.view.apply_grant(iqs_id, grant)
    node.view.apply_renewal(iqs_id, obj, epoch=0, lc=clock)


class TestOqsHitCondition:
    def test_requires_full_read_quorum_of_servers(self, world):
        sim, net, cluster = world
        node = cluster.oqs_node("oqs0")
        # majority of 3 needs 2 servers; one valid column is not enough
        give_valid_lease(node, "iqs0", "x", lc(5))
        assert not node.is_local_valid("x")
        give_valid_lease(node, "iqs1", "x", lc(5))
        assert node.is_local_valid("x")

    def test_max_clock_rule_blocks(self, world):
        sim, net, cluster = world
        node = cluster.oqs_node("oqs0")
        give_valid_lease(node, "iqs0", "x", lc(5))
        give_valid_lease(node, "iqs1", "x", lc(5))
        assert node.is_local_valid("x")
        # a newer invalidation from the third server blocks serving 5
        node.view.apply_invalidation("iqs2", "x", lc(9))
        assert not node.is_local_valid("x")

    def test_volume_expiry_blocks(self, world):
        sim, net, cluster = world
        node = cluster.oqs_node("oqs0")
        give_valid_lease(node, "iqs0", "x", lc(5))
        give_valid_lease(node, "iqs1", "x", lc(5))
        sim.run(until=2_000.0)  # past the 1s lease
        assert not node.is_local_valid("x")

    def test_epoch_mismatch_blocks(self, world):
        sim, net, cluster = world
        node = cluster.oqs_node("oqs0")
        give_valid_lease(node, "iqs0", "x", lc(5))
        give_valid_lease(node, "iqs1", "x", lc(5))
        # a re-grant with a bumped epoch revokes the object leases
        grant = VolumeLeaseGrant(
            volume=node.volume_of("x"), length_ms=1_000.0, epoch=3,
            delayed=(), requestor_time=node.clock.now(),
        )
        node.view.apply_grant("iqs0", grant)
        assert not node.is_local_valid("x")


class TestIqsClassification:
    def test_never_renewed_is_invalid(self, world):
        sim, net, cluster = world
        iqs = cluster.iqs_node("iqs0")
        assert iqs._classify_oqs_node("x", iqs.volume_of("x"), "oqs0", lc(1)) == "invalid"

    def test_acked_this_write_is_invalid(self, world):
        sim, net, cluster = world
        iqs = cluster.iqs_node("iqs0")
        iqs._record_ack("x", "oqs0", lc(7))
        assert iqs._classify_oqs_node("x", iqs.volume_of("x"), "oqs0", lc(7)) == "invalid"
        # ...but an older ack does not cover a newer write
        iqs.note_renewal("x", "oqs0", lc(7))
        iqs.leases.grant(iqs.volume_of("x"), "oqs0", iqs.clock.now(), 0.0)
        assert iqs._classify_oqs_node("x", iqs.volume_of("x"), "oqs0", lc(9)) != "invalid"

    def test_ack_strictly_after_renewal_is_invalid(self, world):
        sim, net, cluster = world
        iqs = cluster.iqs_node("iqs0")
        iqs.note_renewal("x", "oqs0", lc(5))
        iqs._record_ack("x", "oqs0", lc(6))
        assert iqs._classify_oqs_node("x", iqs.volume_of("x"), "oqs0", lc(9)) == "invalid"

    def test_equal_ack_and_renewal_is_suspected(self, world):
        """The equality case: the node may have revalidated after acking."""
        sim, net, cluster = world
        iqs = cluster.iqs_node("iqs0")
        volume = iqs.volume_of("x")
        iqs.note_renewal("x", "oqs0", lc(5))
        iqs._record_ack("x", "oqs0", lc(5))
        iqs.leases.grant(volume, "oqs0", iqs.clock.now(), 0.0)
        assert iqs._classify_oqs_node("x", volume, "oqs0", lc(9)) == "valid"

    def test_expired_volume_is_expired_class(self, world):
        sim, net, cluster = world
        iqs = cluster.iqs_node("iqs0")
        volume = iqs.volume_of("x")
        iqs.note_renewal("x", "oqs0", lc(5))
        iqs.leases.grant(volume, "oqs0", now=0.0, requestor_time=0.0)
        sim.run(until=5_000.0)  # the 1s lease lapsed
        assert iqs._classify_oqs_node("x", volume, "oqs0", lc(9)) == "expired"

    def test_no_volume_grant_short_circuits(self, world):
        """A node with callbacks but no volume grant cannot read; it is
        invalid without any queue entry."""
        sim, net, cluster = world
        iqs = cluster.iqs_node("iqs0")
        volume = iqs.volume_of("x")
        iqs.note_renewal("x", "oqs0", lc(5))
        assert iqs._classify_oqs_node("x", volume, "oqs0", lc(9)) == "invalid"
        assert iqs.leases.delayed_count(volume, "oqs0") == 0


class TestTracing:
    def test_protocol_events_traced(self, world):
        """Hits, misses and write outcomes land in the node counters."""
        sim, net, cluster = world
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v1")
            yield from client.read("x")   # miss
            yield from client.read("x")   # hit
            yield from client.write("x", "v2")  # through

        sim.run_process(scenario())
        oqs0 = cluster.oqs_node("oqs0")
        assert (oqs0.read_misses, oqs0.read_hits) == (1, 1)
        # counted at the IQS servers that applied each write
        assert sum(n.writes_suppressed for n in cluster.iqs_nodes) > 0
        assert sum(n.writes_through for n in cluster.iqs_nodes) > 0

    def test_live_callback_count(self, world):
        sim, net, cluster = world
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v1")
            yield from client.read("x")

        sim.run_process(scenario())
        total = sum(n.live_callback_count() for n in cluster.iqs_nodes)
        assert total >= 1  # the renewal installed callbacks
        # a write's acks tear them down
        def write_again():
            yield from client.write("x", "v2")

        sim.run_process(write_again())
        after = sum(n.live_callback_count() for n in cluster.iqs_nodes)
        assert after < total


class TestClusterAccessors:
    def test_node_lookup(self, world):
        sim, net, cluster = world
        assert cluster.iqs_node("iqs1").node_id == "iqs1"
        assert cluster.oqs_node("oqs2").node_id == "oqs2"
        with pytest.raises(StopIteration):
            cluster.iqs_node("nope")

    def test_owq_safety_warning(self):
        import warnings

        from repro.quorum import QuorumSpec

        sim = Simulator(seed=0)
        net = Network(sim, ConstantDelay(1.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_dqvl_cluster(
                sim, net, ["i0", "i1", "i2"], ["o0", "o1", "o2"],
                DqvlConfig(),
                oqs_system=QuorumSpec.parse("majority").build(["o0", "o1", "o2"]),
            )
        assert any("regular semantics" in str(w.message) for w in caught)


class TestValidationCoalescing:
    def test_read_storm_produces_one_renewal_exchange(self, world):
        """Ten concurrent reads of a just-invalidated object must trigger
        a single validation (single-flight), not ten renewal rounds."""
        sim, net, cluster = world
        client_nodes = [
            cluster.client(f"c{i}", prefer_oqs="oqs0") for i in range(10)
        ]

        def setup():
            yield from client_nodes[0].write("x", "v1")
            yield from client_nodes[0].read("x")  # prime the cache
            yield from client_nodes[0].write("x", "v2")  # invalidate

        sim.run_process(setup(), until=600_000.0)
        node = cluster.oqs_node("oqs0")
        renewals_before = node.renewals_sent
        snap = net.snapshot()

        procs = [sim.spawn(c.read("x")) for c in client_nodes]
        sim.run(until=sim.now + 600_000.0)
        assert all(p.done for p in procs)
        assert all(p.value.value == "v2" for p in procs)

        diff = net.stats.diff(snap)
        renewal_msgs = (
            diff.by_kind.get("obj_renew", 0)
            + diff.by_kind.get("vlobj_renew", 0)
            + diff.by_kind.get("vl_renew", 0)
        )
        # one validation touches at most an IQS read quorum (2 of 3)
        assert renewal_msgs <= 3
        assert node.validations_coalesced >= 8

    def test_coalesced_readers_all_get_fresh_value(self, world):
        sim, net, cluster = world
        c = cluster.client("c0", prefer_oqs="oqs0")

        def setup():
            yield from c.write("x", "v1")
            yield from c.read("x")
            yield from c.write("x", "v2")

        sim.run_process(setup(), until=600_000.0)
        readers = [cluster.client(f"r{i}", prefer_oqs="oqs0") for i in range(5)]
        procs = [sim.spawn(r.read("x")) for r in readers]
        sim.run(until=sim.now + 600_000.0)
        assert {p.value.value for p in procs} == {"v2"}
