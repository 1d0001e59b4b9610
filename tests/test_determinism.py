"""Cross-process determinism regression tests.

The simulator promises: same seed → same trace.  Within one process
that is easy; *across* processes Python's randomized string hashing can
silently break it if any code path iterates a set/frozenset of node ids
in hash order before consuming randomness (this actually happened: QRPC
used to send to `frozenset` targets in iteration order).  These tests
run the same experiment in subprocesses with different PYTHONHASHSEED
values and require identical results.

Nor may the result rest on interpreter internals: the kernel once
recycled objects when ``sys.getrefcount`` proved them unreferenced,
which a debugger, coverage or any ``sys.settrace`` hook perturbs.  The
golden-trace scenario and a model-checker corpus replay must therefore
produce the same bytes with a trace hook installed.
"""

import glob
import os
import subprocess
import sys

import repro.sim

SCRIPT = r"""
from repro.consistency import History, check_regular
from repro.core import DqvlConfig, build_dqvl_cluster
from repro.sim import ConstantDelay, Network, Simulator
from repro.workload import BernoulliOpStream, ZipfKeyChooser, closed_loop

sim = Simulator(seed=99)
net = Network(sim, ConstantDelay(12.0), loss_probability=0.1)
config = DqvlConfig(lease_length_ms=900.0, inval_initial_timeout_ms=80.0,
                    qrpc_initial_timeout_ms=80.0)
cluster = build_dqvl_cluster(
    sim, net, ["iqs0", "iqs1", "iqs2"], ["oqs0", "oqs1", "oqs2"], config)
history = History()
keys = ["hot", "k1", "k2"]
procs = [
    sim.spawn(closed_loop(
        sim,
        cluster.client(f"c{c}", prefer_oqs=f"oqs{c}"),
        BernoulliOpStream(sim.rng, ZipfKeyChooser(keys, s=1.0), 0.4, label=f"c{c}-"),
        history, 30))
    for c in range(3)
]
sim.run(until=3_600_000.0)
assert all(p.done for p in procs)
fingerprint = (
    net.stats.total_messages,
    len(history),
    sum(int(op.lc.counter) for op in history.ops),
    round(sum(op.latency for op in history.ops), 3),
)
print(fingerprint)
"""


def run_with_hashseed(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_identical_traces_across_hash_seeds():
    results = {run_with_hashseed(s) for s in ("1", "31337", "random")}
    assert len(results) == 1, f"traces diverged across hash seeds: {results}"


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MC_REPRO = os.path.join(REPO_ROOT, "tests", "mc_corpus",
                        "dqvl_seed0_skip_write_invalidation.json")

TRACE_SCRIPT = r"""
import os, sys
sys.path[:0] = [sys.argv[1], os.path.join(sys.argv[1], "src")]
if sys.argv[3] == "settrace":
    sys.settrace(lambda *a: None)
from repro.mc import replay_mc_repro
from tests.test_sim_kernel import TestGoldenTrace

golden = TestGoldenTrace.scenario_trace()
assert golden == TestGoldenTrace.EXPECTED, golden
print(golden)
print(replay_mc_repro(sys.argv[2]).trace_text)
"""


def run_traces(hashseed: str, hook: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, "-c", TRACE_SCRIPT, REPO_ROOT, MC_REPRO, hook],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert len(out.stdout) > 1000
    return out.stdout


def test_traces_survive_hash_seeds_and_trace_hooks():
    cells = [("1", "plain"), ("31337", "plain"), ("31337", "settrace")]
    results = {run_traces(seed, hook) for seed, hook in cells}
    assert len(results) == 1, "golden trace / mc replay bytes diverged"


def test_sim_package_never_consults_refcounts():
    sources = glob.glob(os.path.join(os.path.dirname(repro.sim.__file__), "*.py"))
    assert sources
    for path in sources:
        with open(path) as fh:
            assert "getrefcount" not in fh.read(), path
