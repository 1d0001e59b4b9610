"""Tests for finite and adaptive object leases (footnote 4 / ref [9])."""

import pytest

from repro.core import DqvlConfig, build_dqvl_cluster
from repro.core.leases import AdaptiveObjectLeasePolicy, ObjectLeaseTable
from repro.sim import ConstantDelay, Network, Simulator


def make_cluster(seed=0, **config_kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantDelay(10.0))
    config = DqvlConfig(
        lease_length_ms=60_000.0,  # long volume lease: isolate object leases
        inval_initial_timeout_ms=100.0,
        qrpc_initial_timeout_ms=100.0,
        **config_kwargs,
    )
    cluster = build_dqvl_cluster(
        sim, net,
        ["iqs0", "iqs1", "iqs2"],
        ["oqs0", "oqs1", "oqs2"],
        config,
    )
    return sim, net, cluster


class TestConfig:
    def test_fixed_and_adaptive_exclusive(self):
        with pytest.raises(ValueError):
            DqvlConfig(object_lease_ms=1000.0, adaptive_object_leases=True)

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            DqvlConfig(object_lease_ms=0.0)
        with pytest.raises(ValueError):
            DqvlConfig(object_lease_min_ms=10.0, object_lease_max_ms=5.0)

    def test_finite_flag(self):
        assert not DqvlConfig().finite_object_leases
        assert DqvlConfig(object_lease_ms=500.0).finite_object_leases
        assert DqvlConfig(adaptive_object_leases=True).finite_object_leases


class TestObjectLeaseTable:
    def test_grant_and_expiry(self):
        table = ObjectLeaseTable(max_drift=0.01)
        table.grant("x", "j", now=100.0, length_ms=1000.0)
        assert not table.is_expired("x", "j", now=1100.0)
        assert table.is_expired("x", "j", now=1111.0)  # 100 + 1010 + eps
        assert table.is_expired("y", "j", now=0.0)  # never granted


class TestAdaptivePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveObjectLeasePolicy(0.0, 10.0)
        with pytest.raises(ValueError):
            AdaptiveObjectLeasePolicy(10.0, 5.0)
        with pytest.raises(ValueError):
            AdaptiveObjectLeasePolicy(10.0, 100.0, initial_ms=5.0)

    def test_hot_reader_earns_longer_leases(self):
        policy = AdaptiveObjectLeasePolicy(100.0, 1600.0)
        lengths = [policy.on_renewal("x", now=t * 50.0) for t in range(6)]
        assert lengths[0] == 100.0
        assert lengths[-1] == 1600.0  # doubled up to the cap

    def test_slow_reader_keeps_short_leases(self):
        policy = AdaptiveObjectLeasePolicy(100.0, 1600.0)
        a = policy.on_renewal("x", now=0.0)
        b = policy.on_renewal("x", now=10_000.0)  # long after expiry
        assert a == b == 100.0

    def test_write_halves(self):
        policy = AdaptiveObjectLeasePolicy(100.0, 1600.0)
        policy.on_renewal("x", now=0.0)
        policy.on_renewal("x", now=10.0)  # 200
        policy.on_renewal("x", now=20.0)  # 400
        policy.on_write("x")
        assert policy.length_for("x") == 200.0
        for _ in range(5):
            policy.on_write("x")
        assert policy.length_for("x") == 100.0  # floored

    def test_per_object_independence(self):
        policy = AdaptiveObjectLeasePolicy(100.0, 1600.0)
        policy.on_renewal("x", now=0.0)
        policy.on_renewal("x", now=10.0)
        assert policy.length_for("x") > policy.length_for("y")


class TestFiniteLeaseProtocol:
    def test_hit_until_object_lease_expires(self):
        sim, net, cluster = make_cluster(object_lease_ms=1_000.0)
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v1")
            r1 = yield from client.read("x")  # miss, takes object lease
            r2 = yield from client.read("x")  # hit
            yield sim.sleep(2_000.0)  # object lease lapses (volume fine)
            r3 = yield from client.read("x")  # must renew the object
            return (r1.hit, r2.hit, r3.hit, r3.value)

        assert sim.run_process(scenario()) == (False, True, False, "v1")

    def test_expired_object_lease_suppresses_invalidation(self):
        """A write behind an expired *object* lease needs no invalidation
        and no delayed-queue entry — the footnote-4 saving."""
        sim, net, cluster = make_cluster(object_lease_ms=500.0)
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v1")
            yield from client.read("x")
            yield sim.sleep(1_500.0)  # object lease gone
            net.reset_counters()
            yield from client.write("x", "v2")
            diff = net.stats
            r = yield from client.read("x")
            return (diff.by_kind.get("inval", 0), r.value)

        invals, value = sim.run_process(scenario())
        assert invals == 0
        assert value == "v2"
        assert sum(n.delayed_enqueued for n in cluster.iqs_nodes) == 0

    def test_live_object_lease_still_invalidated(self):
        sim, net, cluster = make_cluster(object_lease_ms=30_000.0)
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v1")
            yield from client.read("x")
            net.reset_counters()
            yield from client.write("x", "v2")
            return net.stats.by_kind.get("inval", 0)

        assert sim.run_process(scenario()) > 0

    def test_no_stale_reads_with_finite_leases_and_drift(self):
        sim = Simulator(seed=5)
        from repro.sim import DriftingClock

        max_drift = 0.02
        net = Network(sim, ConstantDelay(10.0))
        ids = ["iqs0", "iqs1", "iqs2", "oqs0", "oqs1", "oqs2"]
        clocks = {
            node_id: DriftingClock(sim, drift=d, max_drift=max_drift)
            for node_id, d in zip(ids, [0.02, -0.02, 0.0, -0.02, 0.02, 0.01])
        }
        config = DqvlConfig(
            lease_length_ms=2_000.0,
            object_lease_ms=700.0,
            max_drift=max_drift,
            inval_initial_timeout_ms=100.0,
            qrpc_initial_timeout_ms=100.0,
        )
        cluster = build_dqvl_cluster(sim, net, ids[:3], ids[3:], config, clocks=clocks)
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            stale = []
            for i in range(12):
                yield from client.write("x", f"v{i}")
                yield sim.sleep(sim.rng.uniform(0, 900))
                r = yield from client.read("x")
                if r.value != f"v{i}":
                    stale.append((i, r.value))
            return stale

        assert sim.run_process(scenario(), until=600_000.0) == []

    def test_adaptive_leases_work_end_to_end(self):
        sim, net, cluster = make_cluster(
            adaptive_object_leases=True,
            object_lease_min_ms=500.0,
            object_lease_max_ms=8_000.0,
        )
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v1")
            values = []
            for _ in range(6):
                r = yield from client.read("x")
                values.append(r.value)
                yield sim.sleep(400.0)
            return values

        values = sim.run_process(scenario(), until=600_000.0)
        assert values == ["v1"] * 6
        # the hot object earned a longer lease on some IQS server
        lengths = [
            node.lease_policy.length_for("x") for node in cluster.iqs_nodes
        ]
        assert max(lengths) > 500.0
