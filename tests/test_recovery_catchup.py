"""Post-crash catch-up: ``Node.on_recover`` hooks x in-flight timers x
the chaos ``crash`` fault.

With resilience attached and durable state, a recovered OQS node must
not serve local hits from its pre-crash cache until the anti-entropy
catch-up has revalidated it against an IQS read quorum — invalidations
sent while the node was down were never delivered, so the cache may be
arbitrarily stale even though every entry *looks* lease-covered.
"""

import pytest

from repro.chaos.faults import Fault, FaultSchedule
from repro.core import DqvlConfig, build_dqvl_cluster
from repro.resilience import NodeResilience
from repro.sim import ConstantDelay, Network, Simulator


def make_cluster(seed=0, n=3, lease_ms=1_000.0, volatile=False,
                 resilience=True):
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantDelay(15.0))
    config = DqvlConfig(
        lease_length_ms=lease_ms,
        inval_initial_timeout_ms=100.0,
        qrpc_initial_timeout_ms=100.0,
        volatile_oqs_recovery=volatile,
    )
    cluster = build_dqvl_cluster(
        sim, net,
        [f"iqs{i}" for i in range(n)],
        [f"oqs{i}" for i in range(n)],
        config,
    )
    if resilience:
        for node in cluster.oqs_nodes:
            node.resilience = NodeResilience(sim, node.node_id)
    return sim, net, cluster


class TestCatchUp:
    def test_recovery_revalidates_before_hits_resume(self):
        """A write lands while the caching node is down; its recovered
        cache still holds the old value under still-valid-looking
        leases.  Catch-up must repair it before any hit is served."""
        sim, net, cluster = make_cluster()
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        c1 = cluster.client("c1", prefer_oqs="oqs1")
        node = cluster.oqs_node("oqs0")

        def scenario():
            yield from c0.write("x", "v1")
            yield from c0.read("x")
            assert node.local_value("x")[0] == "v1"
            node.crash()
            yield sim.sleep(2_000.0)  # oqs0's lease lapses...
            yield from c1.write("x", "v2")  # ...so this write completes
            node.recover()
            assert node.catchups_started == 1
            assert node._catching_up is True
            # A read racing the catch-up is served as a miss (it pays
            # the validation round trip) — never as a stale hit.
            r = yield from c0.read("x")
            assert r.hit is False
            assert r.value == "v2"
            yield sim.sleep(200.0)
            assert node._catching_up is False
            assert node.local_value("x")[0] == "v2"
            r2 = yield from c0.read("x")
            return (r2.hit, r2.value)

        hit, value = sim.run_process(scenario(), until=600_000.0)
        assert (hit, value) == (True, "v2")  # hits resume once caught up

    def test_volatile_recovery_has_nothing_to_catch_up(self):
        """Amnesia recovery empties the cache — there is nothing stale
        to revalidate, so no catch-up sweep starts."""
        sim, net, cluster = make_cluster(volatile=True)
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        node = cluster.oqs_node("oqs0")

        def scenario():
            yield from c0.write("x", "v1")
            yield from c0.read("x")
            node.crash()
            node.recover()
            assert node.local_value("x")[0] is None
            r = yield from c0.read("x")
            return r.value

        assert sim.run_process(scenario(), until=600_000.0) == "v1"
        assert node.catchups_started == 0
        assert node._catching_up is False

    def test_empty_cache_skips_the_sweep(self):
        sim, net, cluster = make_cluster()
        node = cluster.oqs_node("oqs0")
        node.crash()
        node.recover()
        assert node.catchups_started == 0
        assert node._catching_up is False

    def test_no_resilience_means_no_catchup(self):
        """Without the layer attached, recovery behaves as the seed
        protocol did: the cache serves again immediately."""
        sim, net, cluster = make_cluster(resilience=False)
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        node = cluster.oqs_node("oqs0")

        def scenario():
            yield from c0.write("x", "v1")
            yield from c0.read("x")
            node.crash()
            node.recover()
            r = yield from c0.read("x")
            return r.hit

        assert sim.run_process(scenario(), until=600_000.0) is True
        assert node.catchups_started == 0

    def test_catchup_retries_until_the_quorum_is_reachable(self):
        """Recovery behind a partition: the sweep keeps retrying (hits
        stay disabled the whole time) and completes once healed."""
        sim, net, cluster = make_cluster()
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        c1 = cluster.client("c1", prefer_oqs="oqs1")
        node = cluster.oqs_node("oqs0")

        def scenario():
            yield from c0.write("x", "v1")
            yield from c0.read("x")
            node.crash()
            yield sim.sleep(2_000.0)
            yield from c1.write("x", "v2")
            net.partition(
                ["oqs0"],
                ["c0", "c1", "iqs0", "iqs1", "iqs2", "oqs1", "oqs2"],
            )
            node.recover()
            assert node._catching_up is True
            yield sim.sleep(5_000.0)
            assert node._catching_up is True  # still cut off, still retrying
            net.heal()
            # The stuck validation's backoff interval grew during the
            # partition; allow for one full capped interval after heal.
            yield sim.sleep(10_000.0)
            assert node._catching_up is False
            return node.local_value("x")[0]

        assert sim.run_process(scenario(), until=600_000.0) == "v2"
        assert node.catchups_started == 1

    def test_second_crash_abandons_the_sweep_and_recovery_restarts_it(self):
        sim, net, cluster = make_cluster()
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        node = cluster.oqs_node("oqs0")

        def scenario():
            yield from c0.write("x", "v1")
            yield from c0.read("x")
            node.crash()
            yield sim.sleep(2_000.0)
            net.partition(
                ["oqs0"],
                ["c0", "iqs0", "iqs1", "iqs2", "oqs1", "oqs2"],
            )
            node.recover()  # sweep #1 starts, stuck behind the partition
            yield sim.sleep(1_000.0)
            node.crash()  # mid-sweep: the epoch guard abandons sweep #1
            yield sim.sleep(1_000.0)
            net.heal()
            node.recover()  # sweep #2 starts fresh and completes
            yield sim.sleep(2_000.0)
            return (node.catchups_started, node._catching_up)

        started, catching = sim.run_process(scenario(), until=600_000.0)
        assert started == 2
        assert catching is False


class TestTimersAcrossCrash:
    def test_pre_crash_timer_never_fires_on_the_recovered_incarnation(self):
        """``Node.after`` epoch guard: a callback armed before the crash
        must not fire after recovery, even though recovery happens
        before the timer's due time."""
        sim, net, cluster = make_cluster()
        node = cluster.oqs_node("oqs0")
        fired = []
        node.after(1_000.0, lambda: fired.append(sim.now))
        FaultSchedule([Fault.make("crash", 400.0, 200.0, nodes=["oqs0"])]).install(sim, net)
        sim.run(until=5_000.0)
        assert fired == []

    def test_post_recovery_timer_fires_normally(self):
        sim, net, cluster = make_cluster()
        node = cluster.oqs_node("oqs0")
        fired = []
        FaultSchedule([Fault.make("crash", 400.0, 200.0, nodes=["oqs0"])]).install(sim, net)
        sim.schedule(700.0, lambda: node.after(300.0, lambda: fired.append(sim.now)))
        sim.run(until=5_000.0)
        assert fired == [pytest.approx(1_000.0)]


class TestChaosCrashFault:
    def test_chaos_crash_window_drives_the_same_recovery_path(self):
        """A chaos ``crash`` fault window (as the nemesis generates)
        must exercise exactly the on_recover path: timer suppression,
        cache repair, and the catch-up counter."""
        sim, net, cluster = make_cluster()
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        c1 = cluster.client("c1", prefer_oqs="oqs1")
        node = cluster.oqs_node("oqs0")
        schedule = FaultSchedule([
            Fault.make("crash", start=500.0, duration=2_500.0, nodes=("oqs0",)),
        ])
        schedule.install(sim, net)
        fired = []

        def scenario():
            yield from c0.write("x", "v1")
            yield from c0.read("x")
            node.after(1_000.0, lambda: fired.append(sim.now))  # dies with the crash
            yield sim.sleep(2_000.0)  # crash hits at t=500
            yield from c1.write("x", "v2")
            yield sim.sleep(2_000.0)  # recovery at t=3000, then catch-up
            r = yield from c0.read("x")
            return r.value

        assert sim.run_process(scenario(), until=600_000.0) == "v2"
        assert node.catchups_started == 1
        assert node._catching_up is False
        assert node.local_value("x")[0] == "v2"
        assert fired == []
