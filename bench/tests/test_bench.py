"""Smoke test of the benchmark itself (not part of tier-1; run it with
``python -m pytest bench/tests/test_bench.py``, ~2 minutes).

One ``--scale 0.05 --repeats 1`` suite run, then the properties the
ledger rests on: every metric ``BENCHMARK.json`` names is reported for
every workload, a traced pass reproduces the untraced counts, and
``--compare`` tells an unchanged result from a regressed one.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = [sys.executable, os.path.join(BENCH, "run.py")]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + list(args), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bench") / "suite.json")
    done = _run("--seed", "5", "--scale", "0.05", "--repeats", "1",
                "--seconds", "0.5", "--out", path)
    assert done.returncode == 0, done.stdout
    with open(path) as handle:
        return path, json.load(handle)


def test_every_named_metric_is_reported_for_every_workload(spec, suite):
    _, result = suite
    assert sorted(result["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    for name, entry in result["workloads"].items():
        assert sorted(entry["end_to_end"]) == sorted(
            m["name"] for m in spec["end_to_end"]), name
        assert sorted(entry["per_layer"]) == sorted(
            m["name"] for m in spec["per_layer"]), name
        for stat in entry["end_to_end"].values():
            assert stat["median"] > 0, name


def test_outputs_correct_and_traced_counts_equal_untraced(suite):
    _, result = suite
    for name, entry in result["workloads"].items():
        # the child compares every traced execution's simulated
        # signature with the untraced one; any mismatch is a problem
        assert entry["problems"] == [], name
        assert entry["signature"]["violations"] == 0, name
        assert entry["failed"] == 0, name
        shares = sum(v for k, v in entry["per_layer"].items()
                     if k.endswith(".self_share"))
        assert abs(shares - 1.0) <= 0.01, name


def test_compare_with_itself_is_all_ok(suite):
    path, _ = suite
    done = _run("--compare", path, path)
    assert done.returncode == 0, done.stdout
    verdicts = [line.split()[-1] for line in done.stdout.splitlines()[1:-1]]
    assert verdicts and set(verdicts) == {"ok"}, done.stdout
    assert "identical" in done.stdout.splitlines()[-1]


def test_compare_flags_a_regression_and_a_sim_difference(spec, suite, tmp_path):
    path, result = suite
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "ops_per_s")
    slower = copy.deepcopy(result)
    stat = slower["workloads"]["fig7_baselines"]["end_to_end"]["ops_per_s"]
    for key in ("median", "q1", "q3"):
        stat[key] *= 1.0 - bound - 0.05
    slower_path = str(tmp_path / "slower.json")
    with open(slower_path, "w") as handle:
        json.dump(slower, handle)
    done = _run("--compare", path, slower_path)
    assert done.returncode == 1
    rows = [line for line in done.stdout.splitlines()
            if line.startswith("fig7_baselines") and " ops_per_s " in line]
    assert rows and rows[0].endswith("regressed"), done.stdout

    drifted = copy.deepcopy(result)
    drifted["workloads"]["fig6_dqvl"]["signature"]["messages"] += 1
    drifted_path = str(tmp_path / "drifted.json")
    with open(drifted_path, "w") as handle:
        json.dump(drifted, handle)
    done = _run("--compare", path, drifted_path)
    assert done.returncode == 1
    assert "first on fig6_dqvl: messages" in done.stdout


def test_compare_refuses_a_different_scale(suite, tmp_path):
    path, result = suite
    other = dict(result, scale=1.0)
    other_path = str(tmp_path / "other.json")
    with open(other_path, "w") as handle:
        json.dump(other, handle)
    done = _run("--compare", path, other_path)
    assert done.returncode == 2
    assert "scale differs" in done.stdout
