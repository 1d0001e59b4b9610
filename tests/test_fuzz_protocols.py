"""Randomized protocol fuzzing across many seeds.

Each case builds a small cluster, drives concurrent clients with a
random mix of reads/writes/contention (and, for the hard variants,
message loss plus crash/recovery), then checks the recorded history
against regular semantics.  Failures print the seed, making every case
deterministically replayable.
"""

import pytest

from repro.consistency import History, check_regular
from repro.core import DqvlConfig, build_basic_dq_cluster, build_dqvl_cluster
from repro.chaos.faults import Fault, FaultSchedule
from repro.sim import ConstantDelay, JitteredDelay, Network, Simulator
from repro.workload import BernoulliOpStream, UniformKeyChooser, ZipfKeyChooser, closed_loop

SEEDS = [11, 23, 37, 41, 59]


def run_fuzz(
    seed: int,
    builder,
    *,
    loss: float = 0.0,
    jitter_ms: float = 0.0,
    crashes: bool = False,
    n_iqs: int = 3,
    n_oqs: int = 3,
    clients: int = 3,
    ops: int = 40,
    lease_ms: float = 1_200.0,
):
    sim = Simulator(seed=seed)
    delay = ConstantDelay(12.0)
    if jitter_ms:
        delay = JitteredDelay(delay, jitter_ms)
    net = Network(sim, delay, loss_probability=loss)
    config = DqvlConfig(
        lease_length_ms=lease_ms,
        inval_initial_timeout_ms=80.0,
        qrpc_initial_timeout_ms=80.0,
    )
    cluster = builder(
        sim, net,
        [f"iqs{i}" for i in range(n_iqs)],
        [f"oqs{i}" for i in range(n_oqs)],
        config,
    )
    if crashes:
        FaultSchedule([
            Fault.make("crash", 1_500.0, 2_500.0, nodes=[cluster.oqs_nodes[0].node_id]),
            Fault.make("crash", 3_000.0, 2_000.0, nodes=[cluster.iqs_nodes[-1].node_id]),
        ]).install(sim, net)

    history = History()
    procs = []
    rng = sim.rng
    write_ratio = 0.15 + 0.5 * rng.random()
    keys = ["hot"] + [f"k{i}" for i in range(3)]
    for c in range(clients):
        client = cluster.client(f"c{c}", prefer_oqs=f"oqs{c % n_oqs}")
        stream = BernoulliOpStream(
            rng, ZipfKeyChooser(keys, s=1.0), write_ratio, label=f"c{c}-"
        )
        procs.append(sim.spawn(closed_loop(sim, client, stream, history, ops)))
    sim.run(until=3_600_000.0)
    assert all(p.done for p in procs), f"seed={seed}: workload stuck"
    violations = check_regular(history)
    assert violations == [], f"seed={seed}: {violations[:3]}"


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_dqvl_clean_network(seed):
    run_fuzz(seed, build_dqvl_cluster)


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_dqvl_lossy_jittery(seed):
    run_fuzz(seed, build_dqvl_cluster, loss=0.08, jitter_ms=15.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_dqvl_with_crashes(seed):
    run_fuzz(seed, build_dqvl_cluster, crashes=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_dqvl_everything_at_once(seed):
    run_fuzz(
        seed, build_dqvl_cluster,
        loss=0.05, jitter_ms=10.0, crashes=True,
        n_iqs=5, n_oqs=5, lease_ms=900.0,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_dqvl_short_leases(seed):
    """Sub-RTT-scale leases churn constantly; correctness must hold."""
    run_fuzz(seed, build_dqvl_cluster, lease_ms=200.0)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_fuzz_dqvl_finite_object_leases(seed):
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantDelay(12.0), loss_probability=0.05)
    config = DqvlConfig(
        lease_length_ms=1_500.0,
        object_lease_ms=400.0,
        inval_initial_timeout_ms=80.0,
        qrpc_initial_timeout_ms=80.0,
    )
    cluster = build_dqvl_cluster(
        sim, net, ["iqs0", "iqs1", "iqs2"], ["oqs0", "oqs1", "oqs2"], config
    )
    history = History()
    procs = []
    for c in range(3):
        client = cluster.client(f"c{c}", prefer_oqs=f"oqs{c}")
        stream = BernoulliOpStream(
            sim.rng, UniformKeyChooser(["hot", "k1"]), 0.35, label=f"c{c}-"
        )
        procs.append(sim.spawn(closed_loop(sim, client, stream, history, 35)))
    sim.run(until=3_600_000.0)
    assert all(p.done for p in procs)
    assert check_regular(history) == [], f"seed={seed}"


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_fuzz_basic_dq(seed):
    run_fuzz(seed, build_basic_dq_cluster, loss=0.05)
