"""Protocol tests for DQVL (dual quorum with volume leases).

These exercise the scenarios of the paper's Section 3.2: read hits and
misses, write suppression and write-through, delayed invalidations
behind expired volume leases, writes completing by waiting out a lease,
epoch-based garbage collection, and the lease/callback invariant.
"""

import pytest

from repro.core import DqvlConfig, build_dqvl_cluster
from repro.core.volumes import ExplicitVolumeMap
from repro.sim import ConstantDelay, DriftingClock, Network, Simulator
from repro.types import ZERO_LC


def make_cluster(
    n_iqs=3,
    n_oqs=3,
    delay=10.0,
    lease_ms=2000.0,
    seed=0,
    config=None,
    **config_kwargs,
):
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantDelay(delay))
    config = config or DqvlConfig(
        lease_length_ms=lease_ms,
        inval_initial_timeout_ms=100.0,
        qrpc_initial_timeout_ms=100.0,
        **config_kwargs,
    )
    cluster = build_dqvl_cluster(
        sim,
        net,
        [f"iqs{i}" for i in range(n_iqs)],
        [f"oqs{i}" for i in range(n_oqs)],
        config,
    )
    return sim, net, cluster


class TestReadWriteBasics:
    def test_read_before_any_write_returns_initial(self):
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
            w = yield from client.write("x", "v1")
            r = yield from client.read("x")
            return (w.lc, r.value, r.lc)

        lc, value, rlc = sim.run_process(scenario())
        assert value == "v1"
        assert rlc == lc

    def test_repeat_reads_hit_locally(self):
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v1")
            results = []
            for _ in range(4):
                r = yield from client.read("x")
                results.append((r.hit, r.latency))
            return results

        results = sim.run_process(scenario())
        assert results[0] == (False, 40.0)  # miss: client+renewal round
        for hit, latency in results[1:]:
            assert hit is True
            assert latency == 20.0  # one client round trip

    def test_read_after_write_misses_then_hits(self):
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v1")
            yield from client.read("x")
            yield from client.write("x", "v2")
            r1 = yield from client.read("x")
            r2 = yield from client.read("x")
            return (r1.value, r1.hit, r2.value, r2.hit)

        assert sim.run_process(scenario()) == ("v2", False, "v2", True)

    def test_write_clocks_increase_across_clients(self):
        sim, net, cluster = make_cluster()
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        c1 = cluster.client("c1", prefer_oqs="oqs1")

        def scenario():
            w1 = yield from c0.write("x", "a")
            w2 = yield from c1.write("x", "b")
            w3 = yield from c0.write("x", "c")
            return [w1.lc, w2.lc, w3.lc]

        lcs = sim.run_process(scenario())
        assert lcs[0] < lcs[1] < lcs[2]

    def test_cross_client_read_sees_other_writer(self):
        sim, net, cluster = make_cluster()
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        c1 = cluster.client("c1", prefer_oqs="oqs1")

        def scenario():
            yield from c0.write("x", "from-c0")
            r = yield from c1.read("x")
            return r.value

        assert sim.run_process(scenario()) == "from-c0"

    def test_distinct_objects_independent(self):
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "vx")
            yield from client.write("y", "vy")
            rx = yield from client.read("x")
            ry = yield from client.read("y")
            return (rx.value, ry.value)

        assert sim.run_process(scenario()) == ("vx", "vy")


class TestSuppressionAndInvalidation:
    def test_write_burst_suppresses(self):
        """After the first write invalidates, subsequent writes in the
        burst are pure suppressions (no invalidation traffic)."""
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v0")
            yield from client.read("x")  # installs callbacks
            yield from client.write("x", "v1")  # through
            net.reset_counters()
            yield from client.write("x", "v2")  # suppress
            yield from client.write("x", "v3")  # suppress
            return net.stats.by_kind.get("inval", 0)

        assert sim.run_process(scenario()) == 0

    def test_first_write_after_read_is_through(self):
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v0")
            yield from client.read("x")
            net.reset_counters()
            yield from client.write("x", "v1")
            return net.stats.by_kind.get("inval", 0)

        assert sim.run_process(scenario()) > 0

    def test_no_stale_hit_after_invalidation(self):
        """The write's invalidation must break Condition C at caches."""
        sim, net, cluster = make_cluster()
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        c1 = cluster.client("c1", prefer_oqs="oqs1")

        def scenario():
            yield from c0.write("x", "v1")
            r = yield from c1.read("x")  # c1's replica caches v1
            assert r.value == "v1"
            yield from c0.write("x", "v2")
            r = yield from c1.read("x")
            return (r.value, r.hit)

        value, hit = sim.run_process(scenario())
        assert value == "v2"
        assert hit is False

    def test_stats_counters(self):
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v0")
            yield from client.read("x")
            yield from client.read("x")
            yield from client.write("x", "v1")
            yield from client.write("x", "v2")

        sim.run_process(scenario())
        assert cluster.total_read_hits == 1
        assert cluster.total_read_misses == 1
        assert cluster.total_writes_through >= 1
        assert cluster.total_writes_suppressed >= 1


class TestLeaseExpiryPaths:
    def test_write_completes_by_waiting_out_lease(self):
        """An unreachable OQS replica cannot block a write longer than
        the volume lease (the paper's key availability argument)."""
        sim, net, cluster = make_cluster(lease_ms=1000.0)
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v1")
            yield from client.read("x")  # oqs0 holds leases now
            cluster.oqs_node("oqs0").crash()
            w = yield from client.write("x", "v2")
            return w.end

        end = sim.run_process(scenario())
        volume = cluster.iqs_nodes[0].volume_of("x")
        granted = [iqs.leases.row(volume)["oqs0"].expires for iqs in cluster.iqs_nodes
                   if "oqs0" in iqs.leases.row(volume)]
        lapse = max(granted)
        # A server that granted oqs0 a lease wakes just past its expiry
        # (its clock runs at simulated time here) and replies one 10 ms hop
        # later: the write never waits for a retransmission interval.
        assert lapse > 1000.0
        assert end <= lapse + 0.001 + 10.0

    def test_delayed_invalidation_delivered_on_renewal(self):
        """A write behind an expired lease is queued; the holder's next
        volume renewal delivers it and the next read revalidates."""
        sim, net, cluster = make_cluster(lease_ms=500.0)
        c0 = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from c0.write("x", "v1")
            yield from c0.read("x")
            # let oqs0's leases lapse
            yield sim.sleep(1000.0)
            net.reset_counters()
            yield from c0.write("x", "v2")  # lease expired: delayed inval
            direct_invals = net.stats.by_kind.get("inval", 0)
            r = yield from c0.read("x")  # renewal applies the delayed inval
            return (direct_invals, r.value)

        direct_invals, value = sim.run_process(scenario())
        assert direct_invals == 0  # suppressed into the delayed queue
        assert value == "v2"
        total_delayed = sum(n.delayed_enqueued for n in cluster.iqs_nodes)
        assert total_delayed > 0

    def test_crashed_oqs_node_resyncs_after_recovery(self):
        sim, net, cluster = make_cluster(lease_ms=500.0)
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        c1 = cluster.client("c1", prefer_oqs="oqs1")

        def scenario():
            yield from c1.write("x", "v1")
            r = yield from c1.read("x")
            assert r.value == "v1"
            node = cluster.oqs_node("oqs1")
            node.crash()
            yield from c0.write("x", "v2")  # completes via lease expiry
            yield sim.sleep(1000.0)
            node.recover()
            r = yield from c1.read("x")
            return r.value

        assert sim.run_process(scenario()) == "v2"

    def test_expired_lease_blocks_hits(self):
        """Once the volume lease lapses, a cached object cannot be served
        without renewal — even with no intervening write."""
        sim, net, cluster = make_cluster(lease_ms=300.0)
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v1")
            r1 = yield from client.read("x")
            yield sim.sleep(1000.0)  # lease long gone
            r2 = yield from client.read("x")
            return (r1.hit, r2.hit, r2.value)

        assert sim.run_process(scenario()) == (False, False, "v1")


class TestEpochs:
    def test_queue_overflow_bumps_epoch_and_resyncs(self):
        sim, net, cluster = make_cluster(
            lease_ms=400.0,
            config=DqvlConfig(
                lease_length_ms=400.0,
                inval_initial_timeout_ms=100.0,
                qrpc_initial_timeout_ms=100.0,
            ),
        )
        for iqs in cluster.iqs_nodes:
            iqs.leases.max_delayed = 2
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            # cache several objects at oqs0
            for key in ("a", "b", "c", "d"):
                yield from client.write(key, f"{key}0")
                yield from client.read(key)
            yield sim.sleep(1000.0)  # leases lapse
            # four delayed invalidations overflow the bound of 2
            for key in ("a", "b", "c", "d"):
                yield from client.write(key, f"{key}1")
            reads = []
            for key in ("a", "b", "c", "d"):
                r = yield from client.read(key)
                reads.append(r.value)
            return reads

        values = sim.run_process(scenario())
        assert values == ["a1", "b1", "c1", "d1"]
        assert sum(n.leases.epoch_bumps for n in cluster.iqs_nodes) > 0

    def test_manual_gc_forces_revalidation(self):
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v1")
            yield from client.read("x")
            for iqs in cluster.iqs_nodes:
                iqs.leases.bump_epoch(iqs.volume_of("x"), "oqs0")
            # next read must renew: old-epoch object leases are unusable
            # after the node's next volume renewal carries the new epoch.
            yield sim.sleep(3000.0)  # let the current lease lapse
            r = yield from client.read("x")
            return (r.hit, r.value)

        hit, value = sim.run_process(scenario())
        assert hit is False
        assert value == "v1"


class TestVolumes:
    def test_objects_share_volume_lease(self):
        """One volume renewal covers all objects in the volume: reading a
        second object under a freshly renewed volume needs only the
        object renewal, not a new volume lease."""
        sim, net, cluster = make_cluster()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "vx")
            yield from client.write("y", "vy")
            yield from client.read("x")  # renews volume + object x
            net.reset_counters()
            yield from client.read("y")  # object renewal only
            diff = net.stats
            return (
                diff.by_kind.get("vl_renew", 0) + diff.by_kind.get("vlobj_renew", 0),
                diff.by_kind.get("obj_renew", 0),
            )

        vl, obj = sim.run_process(scenario())
        assert vl == 0
        assert obj > 0

    def test_separate_volumes_lease_independently(self):
        vm = ExplicitVolumeMap({"x": "vol-x", "y": "vol-y"})
        sim, net, cluster = make_cluster(
            config=DqvlConfig(
                lease_length_ms=2000.0,
                volume_map=vm,
                inval_initial_timeout_ms=100.0,
                qrpc_initial_timeout_ms=100.0,
            )
        )
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "vx")
            yield from client.read("x")
            net.reset_counters()
            yield from client.read("y")  # different volume: needs a lease
            diff = net.stats
            return diff.by_kind.get("vlobj_renew", 0)

        assert sim.run_process(scenario()) > 0


class TestProactiveRenewal:
    def test_keeper_sustains_hits_past_lease_expiry(self):
        sim, net, cluster = make_cluster(
            config=DqvlConfig(
                lease_length_ms=500.0,
                proactive_renewal=True,
                renewal_margin_ms=200.0,
                interest_window_ms=10_000.0,
                inval_initial_timeout_ms=100.0,
                qrpc_initial_timeout_ms=100.0,
            )
        )
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v1")
            yield from client.read("x")
            hits = []
            for _ in range(5):
                yield sim.sleep(400.0)  # just under a lease each time
                r = yield from client.read("x")
                hits.append(r.hit)
            return hits

        hits = sim.run_process(scenario())
        assert all(hits), f"expected sustained hits, got {hits}"

    def test_keeper_stops_after_interest_window(self):
        sim, net, cluster = make_cluster(
            config=DqvlConfig(
                lease_length_ms=500.0,
                proactive_renewal=True,
                renewal_margin_ms=200.0,
                interest_window_ms=1_000.0,
                inval_initial_timeout_ms=100.0,
                qrpc_initial_timeout_ms=100.0,
            )
        )
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            yield from client.write("x", "v1")
            yield from client.read("x")
            yield sim.sleep(5_000.0)  # way past the interest window
            net.reset_counters()
            yield sim.sleep(5_000.0)
            return net.stats.by_kind.get("vl_renew", 0)

        assert sim.run_process(scenario()) == 0


class TestFaultTolerance:
    def test_correct_under_message_loss(self):
        sim = Simulator(seed=11)
        net = Network(sim, ConstantDelay(10.0), loss_probability=0.2)
        config = DqvlConfig(
            lease_length_ms=2000.0,
            inval_initial_timeout_ms=80.0,
            qrpc_initial_timeout_ms=80.0,
        )
        cluster = build_dqvl_cluster(
            sim, net, ["iqs0", "iqs1", "iqs2"], ["oqs0", "oqs1", "oqs2"], config
        )
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            values = []
            for i in range(8):
                yield from client.write("x", f"v{i}")
                r = yield from client.read("x")
                values.append(r.value)
            return values

        values = sim.run_process(scenario(), until=600_000.0)
        assert values == [f"v{i}" for i in range(8)]

    def test_correct_under_duplication(self):
        sim = Simulator(seed=12)
        net = Network(sim, ConstantDelay(10.0), duplicate_probability=0.3)
        config = DqvlConfig(
            lease_length_ms=2000.0,
            inval_initial_timeout_ms=100.0,
            qrpc_initial_timeout_ms=100.0,
        )
        cluster = build_dqvl_cluster(
            sim, net, ["iqs0", "iqs1", "iqs2"], ["oqs0", "oqs1", "oqs2"], config
        )
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            for i in range(5):
                yield from client.write("x", f"v{i}")
            r = yield from client.read("x")
            return r.value

        assert sim.run_process(scenario(), until=600_000.0) == "v4"

    def test_write_succeeds_with_iqs_minority_down(self):
        sim, net, cluster = make_cluster(n_iqs=5)
        cluster.iqs_node("iqs0").crash()
        cluster.iqs_node("iqs1").crash()
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            w = yield from client.write("x", "v1")
            r = yield from client.read("x")
            return r.value

        assert sim.run_process(scenario(), until=600_000.0) == "v1"

    def test_drifting_clocks_never_produce_stale_hits(self):
        """With bounded drift on every clock, the conservative lease
        arithmetic must still prevent stale reads."""
        sim = Simulator(seed=13)
        net = Network(sim, ConstantDelay(10.0))
        max_drift = 0.02
        config = DqvlConfig(
            lease_length_ms=500.0,
            max_drift=max_drift,
            inval_initial_timeout_ms=100.0,
            qrpc_initial_timeout_ms=100.0,
        )
        drifts = [-max_drift, 0.0, max_drift, max_drift / 2, -max_drift / 2, 0.01]
        ids = ["iqs0", "iqs1", "iqs2", "oqs0", "oqs1", "oqs2"]
        clocks = {
            node_id: DriftingClock(sim, drift=d, max_drift=max_drift)
            for node_id, d in zip(ids, drifts)
        }
        cluster = build_dqvl_cluster(
            sim, net, ids[:3], ids[3:], config, clocks=clocks
        )
        client = cluster.client("c0", prefer_oqs="oqs0")

        def scenario():
            stale = []
            for i in range(10):
                yield from client.write("x", f"v{i}")
                yield sim.sleep(sim.rng.uniform(0, 700))
                r = yield from client.read("x")
                if r.value != f"v{i}":
                    stale.append((i, r.value))
            return stale

        assert sim.run_process(scenario(), until=600_000.0) == []


class TestInvariant:
    def test_lease_callback_invariant(self):
        """The paper's key invariant (zero-drift form): whenever an OQS
        node holds a valid (volume, object) pair from IQS node i, then at
        i the volume lease is unexpired and the callback is installed
        (lastAckLC not newer than lastReadLC)."""
        sim, net, cluster = make_cluster(lease_ms=800.0, seed=21)
        clients = [
            cluster.client(f"c{k}", prefer_oqs=f"oqs{k}") for k in range(3)
        ]
        violations = []

        def check_invariant():
            now = sim.now
            for j in cluster.oqs_nodes:
                for i in cluster.iqs_nodes:
                    for obj in ("x", "y"):
                        vol = j.volume_of(obj)
                        if not j.view.object_valid(vol, obj, i.node_id, now):
                            continue
                        if i.leases.is_expired(vol, j.node_id, now):
                            violations.append(
                                (now, j.node_id, i.node_id, obj, "lease-expired-at-iqs")
                            )
                        renew = i._last_renew_lc.get(obj, {}).get(j.node_id)
                        if renew is None or i.last_ack_lc(obj, j.node_id) > renew:
                            violations.append(
                                (now, j.node_id, i.node_id, obj, "no-callback-installed")
                            )

        def workload(client, key):
            for i in range(15):
                yield from client.write(key, f"{client.node_id}-{i}")
                check_invariant()
                yield from client.read(key)
                check_invariant()
                yield sim.sleep(sim.rng.uniform(0, 400))
                check_invariant()

        procs = [
            sim.spawn(workload(clients[0], "x")),
            sim.spawn(workload(clients[1], "x")),
            sim.spawn(workload(clients[2], "y")),
        ]
        sim.run(until=600_000.0)
        assert all(p.done for p in procs)
        assert violations == []
