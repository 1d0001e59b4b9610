"""End-to-end consistency integration tests.

Runs every protocol under concurrent multi-client workloads — with and
without fault injection — and checks the recorded histories against the
regular-semantics checker.  This is the executable form of the paper's
Section 3.3 correctness claim, plus the demonstration that ROWA-Async
(and only ROWA-Async) violates regular semantics.
"""

import pytest

from repro.consistency import History, check_regular, staleness_report
from repro.core import DqvlConfig, build_dqvl_cluster
from repro.harness import ExperimentConfig, run_response_time
from repro.protocols import build_rowa_async_cluster
from repro.sim import ConstantDelay, MatrixDelay, Network, Simulator
from repro.workload import BernoulliOpStream, UniformKeyChooser, closed_loop

STRONG_PROTOCOLS = ["dqvl", "basic_dq", "majority", "rowa", "primary_backup"]


class TestRegularSemanticsEndToEnd:
    @pytest.mark.parametrize("protocol", STRONG_PROTOCOLS)
    @pytest.mark.parametrize("write_ratio", [0.05, 0.5])
    def test_protocol_is_regular(self, protocol, write_ratio):
        cfg = ExperimentConfig(
            protocol=protocol,
            write_ratio=write_ratio,
            ops_per_client=80,
            warmup_ops=5,
            seed=17,
        )
        result = run_response_time(cfg)
        violations = check_regular(result.full_history())
        assert violations == [], violations[:3]

    @pytest.mark.parametrize("protocol", STRONG_PROTOCOLS)
    def test_protocol_regular_under_low_locality(self, protocol):
        """Low locality maximises cross-replica traffic — the hard case."""
        cfg = ExperimentConfig(
            protocol=protocol,
            write_ratio=0.3,
            locality=0.3,
            ops_per_client=60,
            warmup_ops=5,
            seed=23,
        )
        result = run_response_time(cfg)
        assert check_regular(result.full_history()) == []

    def test_dqvl_regular_with_contended_object(self):
        """Three clients hammer the SAME object from different replicas —
        the anti-locality worst case the protocol must survive."""
        sim = Simulator(seed=29)
        net = Network(sim, ConstantDelay(15.0))
        config = DqvlConfig(
            lease_length_ms=1500.0,
            inval_initial_timeout_ms=100.0,
            qrpc_initial_timeout_ms=100.0,
        )
        cluster = build_dqvl_cluster(
            sim, net,
            [f"iqs{i}" for i in range(3)],
            [f"oqs{i}" for i in range(3)],
            config,
        )
        history = History()
        procs = []
        for k in range(3):
            client = cluster.client(f"c{k}", prefer_oqs=f"oqs{k}")
            stream = BernoulliOpStream(
                sim.rng, UniformKeyChooser(["hot"]), write_ratio=0.4, label=f"c{k}-"
            )
            procs.append(
                sim.spawn(closed_loop(sim, client, stream, history, num_ops=50))
            )
        sim.run(until=3_600_000.0)
        assert all(p.done for p in procs)
        assert check_regular(history) == []

    def test_dqvl_regular_under_loss_and_crashes(self):
        sim = Simulator(seed=31)
        net = Network(sim, ConstantDelay(15.0), loss_probability=0.1)
        config = DqvlConfig(
            lease_length_ms=1000.0,
            inval_initial_timeout_ms=100.0,
            qrpc_initial_timeout_ms=100.0,
        )
        cluster = build_dqvl_cluster(
            sim, net,
            [f"iqs{i}" for i in range(5)],
            [f"oqs{i}" for i in range(5)],
            config,
        )
        # crash/recover an OQS node and an IQS node mid-run
        from repro.chaos.faults import Fault, FaultSchedule

        FaultSchedule([
            Fault.make("crash", 2_000.0, 3_000.0, nodes=["oqs1"]),
            Fault.make("crash", 4_000.0, 3_000.0, nodes=["iqs0"]),
        ]).install(sim, net)

        history = History()
        procs = []
        for k in range(3):
            client = cluster.client(f"c{k}", prefer_oqs=f"oqs{k}")
            stream = BernoulliOpStream(
                sim.rng, UniformKeyChooser(["a", "b"]), write_ratio=0.3, label=f"c{k}-"
            )
            procs.append(
                sim.spawn(closed_loop(sim, client, stream, history, num_ops=40))
            )
        sim.run(until=3_600_000.0)
        assert all(p.done for p in procs)
        assert check_regular(history) == []

    def test_dqvl_regular_during_network_partition(self):
        """A partition separating one OQS node: writes proceed after the
        lease expires; the rejoined node must not serve stale data."""
        sim = Simulator(seed=37)
        net = Network(sim, ConstantDelay(15.0))
        config = DqvlConfig(
            lease_length_ms=800.0,
            inval_initial_timeout_ms=100.0,
            qrpc_initial_timeout_ms=100.0,
        )
        cluster = build_dqvl_cluster(
            sim, net,
            [f"iqs{i}" for i in range(3)],
            [f"oqs{i}" for i in range(3)],
            config,
        )
        everyone_else = [f"iqs{i}" for i in range(3)] + ["oqs0", "oqs1"]
        from repro.chaos.faults import Fault, FaultSchedule

        FaultSchedule([
            Fault.make("partition", 1_500.0, 3_000.0, groups=[everyone_else, ["oqs2"]]),
        ]).install(sim, net)

        history = History()
        c0 = cluster.client("c0", prefer_oqs="oqs0")
        c2 = cluster.client("c2", prefer_oqs="oqs2")
        net.delay_model  # c2 partitioned with oqs2? clients stay connected
        stream0 = BernoulliOpStream(
            sim.rng, UniformKeyChooser(["k"]), write_ratio=0.5, label="c0-"
        )
        stream2 = BernoulliOpStream(
            sim.rng, UniformKeyChooser(["k"]), write_ratio=0.0, label="c2-"
        )
        p0 = sim.spawn(closed_loop(sim, c0, stream0, history, num_ops=40))
        p2 = sim.spawn(closed_loop(sim, c2, stream2, history, num_ops=40))
        sim.run(until=3_600_000.0)
        assert p0.done and p2.done
        assert check_regular(history) == []


class TestRowaAsyncAnomalies:
    def test_stale_read_violates_regular_semantics(self):
        """Deterministic construction of the ROWA-Async anomaly: a write
        completes at one replica while a distant replica still serves
        the old value."""
        sim = Simulator(seed=0)
        delays = MatrixDelay({}, default_ms=1.0)
        delays.set("s0", "s1", 100.0)  # slow inter-replica link
        net = Network(sim, delays)
        cluster = build_rowa_async_cluster(
            sim, net, ["s0", "s1"], gossip_interval_ms=10_000.0
        )
        writer = cluster.client("w", prefer="s0")
        reader = cluster.client("r", prefer="s1")
        history = History()

        def scenario():
            w1 = yield from writer.write("x", "v1")
            history.ops.append(w1)
            yield sim.sleep(500.0)  # v1 fully propagated
            w2 = yield from writer.write("x", "v2")  # completes at t~502
            history.ops.append(w2)
            r = yield from reader.read("x")  # push still in flight
            history.ops.append(r)
            return r.value

        value = sim.run_process(scenario(), until=600_000.0)
        assert value == "v1"  # the stale read happened
        violations = check_regular(history)
        assert len(violations) == 1

    def test_staleness_unbounded_during_partition(self):
        """With the propagation path severed, staleness grows without
        bound — the paper's core criticism of ROWA-Async."""
        sim = Simulator(seed=1)
        net = Network(sim, ConstantDelay(5.0))
        cluster = build_rowa_async_cluster(
            sim, net, ["s0", "s1"], gossip_interval_ms=1_000.0
        )
        net.partition(["s0"], ["s1"])
        writer = cluster.client("w", prefer="s0")
        reader = cluster.client("r", prefer="s1")
        history = History()

        def scenario():
            w = yield from writer.write("x", "new")
            history.ops.append(w)
            for _ in range(5):
                yield sim.sleep(60_000.0)  # a minute at a time
                r = yield from reader.read("x")
                history.ops.append(r)

        sim.run_process(scenario(), until=3_600_000.0)
        report = staleness_report(history)
        assert report.stale_reads == 5
        assert report.max_staleness_ms > 250_000.0

    def test_workload_level_violations_appear(self):
        """Under cross-node contention the harness-level run shows
        ROWA-Async violating regular semantics while DQVL does not."""
        # Contend on one object from all clients; clients sit next to
        # their replica (5 ms) while replicas are far apart (100 ms), so
        # writes complete long before their epidemic push lands — the
        # realistic edge geometry in which the anomaly shows.
        sim = Simulator(seed=41)
        delays = MatrixDelay({}, default_ms=100.0)
        for k in range(3):
            delays.set(f"c{k}", f"s{k}", 5.0)
        net = Network(sim, delays)
        cluster = build_rowa_async_cluster(
            sim, net, [f"s{i}" for i in range(3)], gossip_interval_ms=2_000.0
        )
        history = History()
        procs = []
        for k in range(3):
            client = cluster.client(f"c{k}", prefer=f"s{k}")
            stream = BernoulliOpStream(
                sim.rng, UniformKeyChooser(["hot"]), write_ratio=0.4, label=f"c{k}-"
            )
            procs.append(
                sim.spawn(closed_loop(sim, client, stream, history, num_ops=60))
            )
        sim.run(until=3_600_000.0)
        assert all(p.done for p in procs)
        assert len(check_regular(history)) > 0


class TestSimulationMatchesAnalyticModel:
    """The simulator's steady-state latencies match the closed forms."""

    def test_dqvl_read_hit(self):
        from repro.analysis import expected_latency

        cfg = ExperimentConfig(
            protocol="dqvl", write_ratio=0.0, ops_per_client=50,
            warmup_ops=5, seed=2,
        )
        res = run_response_time(cfg)
        assert res.summary.reads.mean == pytest.approx(
            expected_latency("dqvl", "read", local=True, miss=False), abs=1.0
        )

    def test_majority_read_and_write(self):
        from repro.analysis import expected_latency

        cfg = ExperimentConfig(
            protocol="majority", write_ratio=0.5, ops_per_client=60,
            warmup_ops=5, seed=3,
        )
        res = run_response_time(cfg)
        assert res.summary.reads.mean == pytest.approx(
            expected_latency("majority", "read"), abs=1.0
        )
        assert res.summary.writes.mean == pytest.approx(
            expected_latency("majority", "write"), abs=1.0
        )

    def test_rowa_latencies(self):
        from repro.analysis import expected_latency

        cfg = ExperimentConfig(
            protocol="rowa", write_ratio=0.5, ops_per_client=60,
            warmup_ops=5, seed=4,
        )
        res = run_response_time(cfg)
        assert res.summary.reads.mean == pytest.approx(
            expected_latency("rowa", "read"), abs=1.0
        )
        assert res.summary.writes.mean == pytest.approx(
            expected_latency("rowa", "write"), abs=1.0
        )

    def test_rowa_async_flat(self):
        from repro.analysis import expected_latency

        cfg = ExperimentConfig(
            protocol="rowa_async", write_ratio=0.5, ops_per_client=60,
            warmup_ops=5, seed=5,
        )
        res = run_response_time(cfg)
        assert res.summary.overall.mean == pytest.approx(
            expected_latency("rowa_async", "read"), abs=1.0
        )
