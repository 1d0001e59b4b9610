"""Crash-recovery modes and network-partition scenarios for DQVL."""

import pytest

from repro.consistency import History, check_regular
from repro.core import DqvlConfig, build_dqvl_cluster
from repro.quorum import QrpcError
from repro.sim import ConstantDelay, Network, Simulator
from repro.workload import BernoulliOpStream, UniformKeyChooser, closed_loop


def make_cluster(seed=0, n=3, volatile=False, lease_ms=1_000.0,
                 client_max_attempts=None):
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantDelay(15.0))
    config = DqvlConfig(
        lease_length_ms=lease_ms,
        inval_initial_timeout_ms=100.0,
        qrpc_initial_timeout_ms=100.0,
        volatile_oqs_recovery=volatile,
        client_max_attempts=client_max_attempts,
    )
    cluster = build_dqvl_cluster(
        sim, net,
        [f"iqs{i}" for i in range(n)],
        [f"oqs{i}" for i in range(n)],
        config,
    )
    return sim, net, cluster


class TestVolatileRecovery:
    def test_restart_loses_cache_and_revalidates(self):
        sim, net, cluster = make_cluster(volatile=True)
        client = cluster.client("c0", prefer_oqs="oqs0")
        node = cluster.oqs_node("oqs0")

        def scenario():
            yield from client.write("x", "v1")
            yield from client.read("x")
            assert node.local_value("x")[0] == "v1"
            node.crash()
            node.recover()
            assert node.local_value("x")[0] is None  # amnesia
            r = yield from client.read("x")
            return (r.hit, r.value)

        hit, value = sim.run_process(scenario(), until=600_000.0)
        assert hit is False  # must revalidate
        assert value == "v1"

    def test_stable_storage_keeps_cache(self):
        sim, net, cluster = make_cluster(volatile=False)
        client = cluster.client("c0", prefer_oqs="oqs0")
        node = cluster.oqs_node("oqs0")

        def scenario():
            yield from client.write("x", "v1")
            yield from client.read("x")
            node.crash()
            node.recover()
            r = yield from client.read("x")
            return (r.hit, r.value)

        hit, value = sim.run_process(scenario(), until=600_000.0)
        # leases were still valid across the instant restart
        assert (hit, value) == (True, "v1")

    def test_volatile_recovery_is_regular_under_churn(self):
        from repro.chaos.faults import Fault, FaultSchedule

        sim, net, cluster = make_cluster(seed=7, volatile=True, lease_ms=800.0)
        FaultSchedule([
            Fault.make("crash", 1_000.0, 1_500.0, nodes=["oqs0"]),
            Fault.make("crash", 3_000.0, 1_000.0, nodes=["oqs1"]),
        ]).install(sim, net)
        history = History()
        procs = []
        for c in range(3):
            client = cluster.client(f"c{c}", prefer_oqs=f"oqs{c}")
            stream = BernoulliOpStream(
                sim.rng, UniformKeyChooser(["hot", "k"]), 0.35, label=f"c{c}-"
            )
            procs.append(sim.spawn(closed_loop(sim, client, stream, history, 35)))
        sim.run(until=3_600_000.0)
        assert all(p.done for p in procs)
        assert check_regular(history) == []


class TestPartitions:
    def test_iqs_minority_partition_rejects_writes(self):
        """A client that can only reach a minority of the IQS cannot
        write (regular semantics would be forfeited) — the paper's
        availability model in action."""
        sim, net, cluster = make_cluster(n=5, client_max_attempts=3)
        client = cluster.client("c0", prefer_oqs="oqs0")
        # client + 2 IQS nodes on one side; 3 IQS nodes on the other
        net.partition(
            ["c0", "iqs0", "iqs1", "oqs0", "oqs1", "oqs2", "oqs3", "oqs4"],
            ["iqs2", "iqs3", "iqs4"],
        )

        def scenario():
            try:
                yield from client.write("x", "v1")
            except QrpcError:
                return "rejected"

        assert sim.run_process(scenario(), until=600_000.0) == "rejected"

    def test_iqs_majority_side_still_writes(self):
        sim, net, cluster = make_cluster(n=5)
        client = cluster.client("c0", prefer_oqs="oqs0")
        # only a minority of the IQS is cut off
        net.partition(
            ["c0", "iqs0", "iqs1", "iqs2", "oqs0", "oqs1", "oqs2", "oqs3", "oqs4"],
            ["iqs3", "iqs4"],
        )

        def scenario():
            w = yield from client.write("x", "v1")
            r = yield from client.read("x")
            return r.value

        assert sim.run_process(scenario(), until=600_000.0) == "v1"

    def test_reads_on_partitioned_cache_reject_rather_than_serve_stale(self):
        """An OQS node cut off from the whole IQS: once its leases lapse
        it cannot validate, so reads error out instead of returning
        possibly-stale data — the regular-semantics trade."""
        sim, net, cluster = make_cluster(lease_ms=600.0, client_max_attempts=3)
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        c1 = cluster.client("c1", prefer_oqs="oqs1")

        def scenario():
            yield from c0.write("x", "v1")
            yield from c0.read("x")
            # isolate oqs0 (and its client) from the IQS
            net.partition(
                ["c0", "oqs0"],
                ["iqs0", "iqs1", "iqs2", "oqs1", "oqs2", "c1"],
            )
            yield sim.sleep(2_000.0)  # leases lapse
            try:
                yield from c0.read("x")
                outcome = "served"
            except QrpcError:
                outcome = "rejected"
            # meanwhile the majority side keeps making progress
            yield from c1.write("x", "v2")
            r = yield from c1.read("x")
            return (outcome, r.value)

        outcome, value = sim.run_process(scenario(), until=600_000.0)
        assert outcome == "rejected"
        assert value == "v2"

    def test_heal_reconverges(self):
        sim, net, cluster = make_cluster(lease_ms=600.0)
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        c1 = cluster.client("c1", prefer_oqs="oqs1")

        def scenario():
            yield from c0.write("x", "v1")
            yield from c0.read("x")
            net.partition(
                ["c0", "oqs0"],
                ["iqs0", "iqs1", "iqs2", "oqs1", "oqs2", "c1"],
            )
            yield from c1.write("x", "v2")  # completes via lease expiry
            net.heal()
            r = yield from c0.read("x")
            return (r.value, r.hit)

        value, hit = sim.run_process(scenario(), until=600_000.0)
        assert value == "v2"
        assert hit is False  # had to revalidate after the partition
