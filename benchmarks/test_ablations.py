"""Ablation benchmarks — the design choices DESIGN.md calls out.

A1  volume-lease length vs. write latency when an OQS replica is
    unreachable (the lease is the write's escape hatch);
A2  objects-per-volume amortisation of lease renewals;
A3  OQS read-quorum size > 1 (the paper's future-work configuration);
A4  grid-quorum IQS vs. majority IQS (future work: reduce system load);
A5  read/write burst length vs. hit and suppression rates (the locality
    assumption that makes DQVL's common case cheap).
"""

import warnings

import pytest

from repro.analysis import (
    grid_messages_per_request,
    majority_messages_per_request,
)
from repro.consistency import History
from repro.core import DqvlConfig, build_dqvl_cluster
from repro.core.volumes import HashVolumeMap
from repro.harness import ExperimentConfig, format_series, format_table, run_sweep
from repro.analysis.availability import quorum_availability
from repro.quorum import QuorumSpec
from repro.sim import ConstantDelay, Network, Simulator
from repro.workload import BernoulliOpStream, UniformKeyChooser, closed_loop


def _small_cluster(lease_ms, seed=0, n=3, oqs_system=None, iqs_system=None,
                   volume_map=None):
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantDelay(10.0))
    kwargs = dict(
        lease_length_ms=lease_ms,
        inval_initial_timeout_ms=100.0,
        qrpc_initial_timeout_ms=100.0,
    )
    if volume_map is not None:
        kwargs["volume_map"] = volume_map
    config = DqvlConfig(**kwargs)
    cluster = build_dqvl_cluster(
        sim, net,
        [f"iqs{i}" for i in range(n)],
        [f"oqs{i}" for i in range(n)],
        config,
        oqs_system=oqs_system,
        iqs_system=iqs_system,
    )
    return sim, net, cluster


def test_a1_lease_length_vs_write_latency(benchmark, emit):
    """A1: the volume lease bounds how long an unreachable OQS replica
    can block a write — latency scales with the lease, not with the
    outage."""
    lease_lengths = [250.0, 500.0, 1000.0, 2000.0, 4000.0]

    def experiment():
        latencies = []
        for lease in lease_lengths:
            sim, net, cluster = _small_cluster(lease)
            client = cluster.client("c0", prefer_oqs="oqs0")

            def scenario():
                yield from client.write("x", "v0")
                yield from client.read("x")  # oqs0 takes leases
                cluster.oqs_node("oqs0").crash()
                w = yield from client.write("x", "v1")
                return w.latency

            latencies.append(sim.run_process(scenario(), until=600_000.0))
        return latencies

    latencies = benchmark.pedantic(experiment, rounds=1, iterations=1)
    emit(
        "ablation_a1_lease_vs_write_latency",
        format_series(
            "lease_ms", lease_lengths, [("write_latency_ms", latencies)],
            title="A1: write latency with an unreachable lease holder",
        ),
    )
    # Write latency tracks the lease length (within protocol rounds)...
    for lease, latency in zip(lease_lengths, latencies):
        assert latency <= lease + 600.0
    # ...and grows with it.
    assert latencies[0] < latencies[-1]


def test_a2_volume_size_amortisation(benchmark, emit):
    """A2: grouping objects into fewer volumes amortises volume-lease
    renewals across the working set."""
    num_objects = 32
    volume_counts = [1, 4, 16, 32]

    def experiment():
        rows = []
        for volumes in volume_counts:
            sim, net, cluster = _small_cluster(
                lease_ms=2_000.0, volume_map=HashVolumeMap(volumes)
            )
            client = cluster.client("c0", prefer_oqs="oqs0")
            keys = [f"obj{i}" for i in range(num_objects)]
            history = History()
            stream = BernoulliOpStream(
                sim.rng, UniformKeyChooser(keys), write_ratio=0.02
            )

            def scenario():
                # touch every object once to populate
                for key in keys:
                    yield from client.write(key, "init")
                net.reset_counters()
                yield from closed_loop(sim, client, stream, history, num_ops=400)

            sim.run_process(scenario(), until=3_600_000.0)
            renewals = (
                net.stats.by_kind["vl_renew"] + net.stats.by_kind["vlobj_renew"]
            )
            rows.append(renewals / max(len(history), 1))
        return rows

    renewal_rates = benchmark.pedantic(experiment, rounds=1, iterations=1)
    emit(
        "ablation_a2_volume_amortisation",
        format_series(
            "num_volumes", volume_counts,
            [("volume_renewals_per_op", renewal_rates)],
            title="A2: volume-lease renewals per operation vs volume count",
        ),
    )
    # Renewal traffic grows with the number of volumes.
    assert renewal_rates[0] <= renewal_rates[-1]
    assert renewal_rates[-1] > 0


def test_a3_oqs_read_quorum_size(benchmark, emit):
    """A3 (future work): OQS read quorums larger than one trade read
    latency for invalidation tolerance — with orq = 2, a write can
    invalidate without waiting for a crashed replica's lease."""

    def experiment():
        rows = []
        for orq in (1, 2):
            n = 3
            oqs_ids = [f"oqs{i}" for i in range(n)]
            if orq == 1:
                oqs_system = None  # default read-one/write-all
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    oqs_system = QuorumSpec(
                        kind="majority", read_size=orq, write_size=n - orq + 1
                    ).build(oqs_ids)
            sim, net, cluster = _small_cluster(
                lease_ms=5_000.0, oqs_system=oqs_system
            )
            client = cluster.client("c0", prefer_oqs="oqs0")

            def scenario():
                yield from client.write("x", "v0")
                r1 = yield from client.read("x")
                r2 = yield from client.read("x")
                # a lease-holding OQS replica becomes unreachable: with
                # orq = 1 the write must wait out its volume lease; with
                # orq = 2 (owq = 2) it can invalidate the other two.
                cluster.oqs_node("oqs0").crash()
                w = yield from client.write("x", "v1")
                return (r2.latency, w.latency)

            read_lat, write_lat = sim.run_process(scenario(), until=600_000.0)
            rows.append([orq, read_lat, write_lat])
        return rows

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    emit(
        "ablation_a3_oqs_read_quorum",
        format_table(
            ["orq", "read hit ms", "write ms (1 OQS node down)"],
            rows,
            title="A3: OQS read-quorum size trade-off",
        ),
    )
    (orq1_read, orq1_write) = rows[0][1], rows[0][2]
    (orq2_read, orq2_write) = rows[1][1], rows[1][2]
    # Larger read quorums cost read latency...
    assert orq2_read >= orq1_read
    # ...but let writes dodge the lease wait when a replica is down.
    assert orq2_write < orq1_write


def test_a4_grid_iqs(benchmark, emit):
    """A4 (future work): a grid-quorum IQS lowers per-write quorum sizes
    (message load) at an availability cost, vs. the majority IQS."""

    def experiment():
        n = 9
        iqs_ids = [f"iqs{i}" for i in range(n)]
        rows = []
        for name in ("majority", "grid"):
            spec = QuorumSpec.parse("grid:3x3" if name == "grid" else "majority")
            system = spec.build(iqs_ids)
            sim, net, cluster = _small_cluster(lease_ms=5_000.0, n=9, iqs_system=system)
            client = cluster.client("c0", prefer_oqs="oqs0")
            history = History()
            stream = BernoulliOpStream(
                sim.rng, UniformKeyChooser(["x"]), write_ratio=0.5
            )

            def scenario():
                yield from closed_loop(sim, client, stream, history, num_ops=100)

            sim.run_process(scenario(), until=3_600_000.0)
            msgs = net.stats.total_messages / len(history)
            avail = 1 - quorum_availability(spec, n, 0.01)[1]
            rows.append([name, system.read.min_size, system.write.min_size,
                         round(msgs, 2), avail])
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    emit(
        "ablation_a4_grid_iqs",
        format_table(
            ["iqs", "rq", "wq", "msgs/op (sim)", "write unavailability"],
            rows,
            title="A4: grid vs majority IQS at n=9, w=0.5",
        ),
    )
    majority_row, grid_row = rows
    # Grid read quorums are smaller (3 vs 5): fewer messages per op.
    assert grid_row[1] < majority_row[1]
    assert grid_row[3] < majority_row[3]
    # The price: worse write availability.
    assert grid_row[4] > majority_row[4]


def test_a6_atomic_semantics_cost(benchmark, emit):
    """A6 (paper's future work, Section 6): what does upgrading DQVL
    from regular to atomic semantics cost?  Atomic reads add an
    ABD-style write-back of the selected value to an IQS write quorum."""
    from repro.core import DqvlAtomicClient

    def experiment():
        rows = []
        for semantics in ("regular", "atomic"):
            sim, net, cluster = _small_cluster(lease_ms=5_000.0)
            if semantics == "atomic":
                client = DqvlAtomicClient(
                    sim, net, "c0", cluster.iqs_system, cluster.oqs_system,
                    cluster.config, prefer_oqs="oqs0",
                )
            else:
                client = cluster.client("c0", prefer_oqs="oqs0")
            history = History()
            stream = BernoulliOpStream(
                sim.rng, UniformKeyChooser(["x"]), write_ratio=0.05
            )

            def scenario():
                yield from client.write("x", "init")
                net.reset_counters()
                yield from closed_loop(sim, client, stream, history, num_ops=200)

            sim.run_process(scenario(), until=3_600_000.0)
            from repro.harness import summarize

            s = summarize(history)
            msgs = net.stats.total_messages / len(history)
            rows.append(
                [semantics, round(s.reads.mean, 1), round(s.writes.mean, 1),
                 round(msgs, 2)]
            )
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    emit(
        "ablation_a6_atomic_cost",
        format_table(
            ["semantics", "read ms", "write ms", "msgs/op"],
            rows,
            title="A6: regular vs atomic DQVL (w=0.05, 3+3 nodes, 10 ms links)",
        ),
    )
    regular, atomic = rows
    # Atomic reads pay roughly one extra quorum round...
    assert atomic[1] > regular[1] + 15.0
    # ...and more messages; writes are unchanged.
    assert atomic[3] > regular[3]
    assert atomic[2] == pytest.approx(regular[2], rel=0.3)


def test_a8_bytes_vs_messages(benchmark, emit):
    """A8: byte-weighted traffic.  Figure 9 counts messages with equal
    weight; the paper's related-work argument, though, is that
    invalidations carry no data.  With realistic sizes (1 KiB values,
    64 B control messages) DQVL's wire cost drops below ROWA's at the
    interleaved 50 % write ratio despite sending MORE messages."""
    from repro.analysis import EdgeServiceSizeModel
    from repro.core import build_dqvl_cluster
    from repro.protocols import build_rowa_async_cluster, build_rowa_cluster

    def run_one(kind: str, write_ratio: float):
        sim = Simulator(seed=33)
        net = Network(
            sim, ConstantDelay(10.0), size_model=EdgeServiceSizeModel()
        )
        n = 9
        clients = []
        if kind == "dqvl":
            config = DqvlConfig(
                lease_length_ms=30_000.0,
                inval_initial_timeout_ms=100.0,
                qrpc_initial_timeout_ms=100.0,
            )
            cluster = build_dqvl_cluster(
                sim, net,
                [f"iqs{i}" for i in range(n)], [f"oqs{i}" for i in range(n)],
                config,
            )
            clients = [
                cluster.client(f"c{k}", prefer_oqs=f"oqs{k}") for k in range(3)
            ]
        elif kind == "rowa":
            cluster = build_rowa_cluster(sim, net, [f"s{i}" for i in range(n)])
            clients = [cluster.client(f"c{k}", prefer=f"s{k}") for k in range(3)]
        else:
            cluster = build_rowa_async_cluster(
                sim, net, [f"s{i}" for i in range(n)], gossip_interval_ms=0.0
            )
            clients = [cluster.client(f"c{k}", prefer=f"s{k}") for k in range(3)]

        history = History()
        procs = []
        for k, client in enumerate(clients):
            stream = BernoulliOpStream(
                sim.rng, UniformKeyChooser([f"obj{k}"]), write_ratio,
                label=f"c{k}-",
            )
            procs.append(
                sim.spawn(closed_loop(sim, client, stream, history, 120))
            )
        sim.run(until=3_600_000.0)
        assert all(p.done for p in procs)
        ops = len(history)
        return (
            net.stats.total_messages / ops,
            net.stats.total_bytes / ops / 1024.0,
        )

    def experiment():
        rows = []
        for kind in ("dqvl", "rowa", "rowa_async"):
            for w in (0.05, 0.5):
                msgs, kib = run_one(kind, w)
                rows.append([kind, w, round(msgs, 2), round(kib, 2)])
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    emit(
        "ablation_a8_bytes_vs_messages",
        format_table(
            ["protocol", "write_ratio", "msgs/op", "KiB/op"],
            rows,
            title="A8: byte-weighted traffic (1 KiB values, 64 B control)",
        ),
    )
    table = {(r[0], r[1]): (r[2], r[3]) for r in rows}
    # At w=0.5: ROWA ships the value to all 9 replicas; DQVL ships it to
    # the 5-member IQS write quorum and sends tiny invalidations — fewer
    # bytes even if more messages.
    dq_msgs, dq_kib = table[("dqvl", 0.5)]
    rowa_msgs, rowa_kib = table[("rowa", 0.5)]
    assert dq_kib < rowa_kib
    # the epidemic baseline also ships values everywhere
    _, ra_kib = table[("rowa_async", 0.5)]
    assert dq_kib < ra_kib


def test_a7_object_lease_modes(benchmark, emit):
    """A7 (footnote 4 / the paper's [9]): infinite callbacks vs fixed
    finite object leases vs adaptive lengths — the state/traffic
    trade-off on a mixed read-hot/write-hot workload."""

    def experiment():
        rows = []
        modes = [
            ("infinite", {}),
            ("fixed-1s", {"object_lease_ms": 1_000.0}),
            ("fixed-8s", {"object_lease_ms": 8_000.0}),
            ("adaptive", {
                "adaptive_object_leases": True,
                "object_lease_min_ms": 1_000.0,
                "object_lease_max_ms": 16_000.0,
            }),
        ]
        for name, extra in modes:
            sim = Simulator(seed=21)
            net = Network(sim, ConstantDelay(10.0))
            config = DqvlConfig(
                lease_length_ms=120_000.0,
                inval_initial_timeout_ms=100.0,
                qrpc_initial_timeout_ms=100.0,
                **extra,
            )
            cluster = build_dqvl_cluster(
                sim, net, [f"iqs{i}" for i in range(3)],
                [f"oqs{i}" for i in range(3)], config,
            )
            client = cluster.client("c0", prefer_oqs="oqs0")
            history = History()
            cold_keys = [f"cold{i}" for i in range(60)]

            def scenario():
                # phase 1: a scan touches 60 objects once each — each
                # read installs a callback at the IQS servers
                for key in cold_keys:
                    yield from client.write(key, "init")
                    r = yield from client.read(key)
                    history.ops.append(r)
                # phase 2: interest moves to one hot object; the cold
                # callbacks linger (or expire, depending on the mode)
                yield from client.write("hot", "init")
                net.reset_counters()
                for i in range(100):
                    r = yield from client.read("hot")
                    history.ops.append(r)
                    yield sim.sleep(300.0)

            sim.run_process(scenario(), until=3_600_000.0)
            renewals = (
                net.stats.by_kind["obj_renew"] + net.stats.by_kind["vlobj_renew"]
            )
            callbacks = max(n.live_callback_count() for n in cluster.iqs_nodes)
            rows.append([name, renewals, callbacks])
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    emit(
        "ablation_a7_object_lease_modes",
        format_table(
            ["mode", "hot-phase renewals", "live callbacks after scan"],
            rows,
            title="A7: object-lease modes (60-object scan, then one hot object)",
        ),
    )
    by_name = {r[0]: r for r in rows}
    # Infinite callbacks never decay: every scanned object's callback
    # still binds the IQS (a write to any of them must invalidate).
    assert by_name["infinite"][2] >= 60
    # Finite leases shed the abandoned callbacks on their own...
    assert by_name["fixed-1s"][2] <= 2
    # ...at the price of renewal traffic on the hot object, which the
    # adaptive policy then claws back (longer leases where reads recur).
    assert by_name["fixed-1s"][1] > by_name["fixed-8s"][1]
    assert by_name["adaptive"][1] <= by_name["fixed-1s"][1]
    assert by_name["adaptive"][2] < by_name["infinite"][2]


def _collect_write_suppression(result):
    """Worker-side collector: sweep points do not carry the deployment."""
    cluster = result.deployment.cluster
    return {
        "writes_through": cluster.total_writes_through,
        "writes_suppressed": cluster.total_writes_suppressed,
    }


def test_a5_burst_length_vs_hit_rate(benchmark, emit):
    """A5: the paper's workload assumption quantified — longer read/write
    bursts raise the hit and suppression rates that make DQVL cheap."""
    bursts = [1.0, 2.0, 4.0, 8.0, 16.0]

    def experiment():
        points = run_sweep(
            [
                ExperimentConfig(
                    protocol="dqvl",
                    write_ratio=0.5,
                    mean_write_burst=burst,
                    ops_per_client=200,
                    warmup_ops=10,
                    seed=13,
                )
                for burst in bursts
            ],
            collect=_collect_write_suppression,
        )
        hit_rates = [p.summary.read_hit_rate for p in points]
        suppression_rates = []
        for p in points:
            through = p.extras["writes_through"]
            suppressed = p.extras["writes_suppressed"]
            suppression_rates.append(suppressed / max(through + suppressed, 1))
        return hit_rates, suppression_rates

    hit_rates, suppression_rates = benchmark.pedantic(experiment, rounds=1, iterations=1)
    emit(
        "ablation_a5_burst_vs_hit_rate",
        format_series(
            "mean_write_burst", bursts,
            [("read_hit_rate", hit_rates), ("write_suppression_rate", suppression_rates)],
            title="A5: burstiness vs hit/suppression rates (w=0.5)",
        ),
    )
    # Longer bursts help both rates substantially.
    assert hit_rates[-1] > hit_rates[0] + 0.2
    assert suppression_rates[-1] > suppression_rates[0] + 0.2
