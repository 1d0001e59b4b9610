"""End-to-end wall-clock and per-layer benchmark of the whole simulator.

Three ways to run it, all from the repository root::

    python3 bench/run.py --workload fig7_dqvl --seed 7 --seconds 13 --trace 0
    python3 bench/run.py --seed 2005
    python3 bench/run.py --compare bench/out/base.json bench/out/latest.json

The first is the one-measurement form ``BENCHMARK.json`` names: one
workload, one seed; the last line printed is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1``).
The second runs every workload ``--repeats`` times plus one traced
pass, prints every metric with its unit, checks the outputs and writes
``bench/out/latest.json``.  The third compares two such files.

Every measurement happens in a fresh single-threaded child
(``bench/child.py``), one at a time, with ``PYTHONHASHSEED=0`` and no
``REPRO_*`` variable set, so nothing is served from a sweep cache.
Host metrics (wall clock, memory; noisy) are medians; sim metrics
(simulated ms and counts) must repeat exactly.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, BENCH_DIR)

from compare import compare, is_host_metric, spread  # noqa: E402

#: common multiplier on every workload's op count; 1.0 is the frozen
#: size BENCHMARK.json is measured at (bench/tests use 0.05)
DEFAULT_SCALE = 1.0
#: fresh children that only set up; setup_s is the median over these
#: and the measuring child's own set-up
SETUP_PROBES = 5
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spawn_child(workload: str, seed: int, scale: float, seconds: float,
                mode: str) -> Dict[str, Any]:
    """Run one child to completion and return the JSON it printed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, os.path.join(BENCH_DIR, "child.py"),
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--seconds", repr(seconds), "--mode", mode, "--t0", repr(time.time()),
    ]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(
            f"{mode} child for {workload} exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(spec: Dict[str, Any], workload: str, seed: int, scale: float,
            seconds: float, trace: bool) -> Dict[str, Any]:
    """One measurement of one workload: the end-to-end metrics
    (``trace`` off) or the per-layer ledger (``trace`` on), with the
    correctness gates applied."""
    load_before = os.getloadavg()[0]
    if trace:
        child = spawn_child(workload, seed, scale, seconds, "traced")
        metrics = child["per_layer"]
        expected = spec["per_layer"]
    else:
        setups = [
            spawn_child(workload, seed, scale, seconds, "setup")["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        child = spawn_child(workload, seed, scale, seconds, "timed")
        setups.append(child["setup_s"])
        metrics = {
            "ops_per_s": child["ops_per_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        expected = spec["end_to_end"]
    load_after = os.getloadavg()[0]

    problems = list(child["problems"])
    if child["signature"]["violations"]:
        problems.append(f"{child['signature']['violations']} violations")
    names = [metric["name"] for metric in expected]
    if sorted(names) != sorted(metrics):
        problems.append(
            "metrics measured differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(metrics))}"
        )
    for name in [workload] + list(metrics):
        if not NAME_RE.match(name):
            problems.append(f"name {name!r} is not made of letters, digits, _ . -")
    return {
        "workload": workload,
        "trace": trace,
        "metrics": metrics,
        "units": {metric["name"]: metric["unit"] for metric in expected},
        "attempted": child["attempted"],
        "failed": child["failed"],
        "signature": child["signature"],
        "executions": child["executions"],
        "problems": problems,
        "load_before": load_before,
        "load_after": load_after,
        "noisy": max(load_before, load_after) > (os.cpu_count() or 1),
    }


def print_metrics(result: Dict[str, Any]) -> None:
    for name, value in result["metrics"].items():
        kind = "host" if is_host_metric(name) else "sim"
        print(f"  {name:<44} {value:>16.6f} {result['units'].get(name, ''):<8} {kind}")


def run_one(spec: Dict[str, Any], args: argparse.Namespace) -> int:
    """The BENCHMARK.json form: one workload, result as the last line."""
    result = measure(spec, args.workload, args.seed, args.scale, args.seconds,
                     bool(args.trace))
    print(f"{args.workload} seed={args.seed} scale={args.scale} "
          f"wall_s={[round(e['raw_wall_s'], 2) for e in result['executions']]} "
          f"slowdown={[round(e['slowdown'], 2) for e in result['executions']]} "
          f"load={result['load_before']:.2f}->{result['load_after']:.2f}"
          f"{' noisy' if result['noisy'] else ''}")
    print_metrics(result)
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": result["units"].get(name, "")}
            for name, value in result["metrics"].items()
        },
    }))
    return 1 if result["problems"] else 0


def _stat(values: List[float], unit: str) -> Dict[str, Any]:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": unit, "values": values}


def run_suite(spec: Dict[str, Any], args: argparse.Namespace) -> int:
    """Every workload: ``--repeats`` timed measurements, then (unless
    ``--trace 0``) one traced pass; writes ``bench/out/latest.json``."""
    names = [w["name"] for w in spec["workloads"]]
    nproc = os.cpu_count() or 1
    suite: Dict[str, Any] = {
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "repeats": args.repeats, "python": platform.python_version(),
        "nproc": nproc, "workloads": {},
    }
    failed = False
    for name in names:
        runs = []
        for _ in range(args.repeats):
            run = measure(spec, name, args.seed, args.scale, args.seconds, False)
            if run["noisy"]:
                # 1-min load above the core count: something else ran.
                # Repeat once; a second noisy result is kept and marked.
                run = measure(spec, name, args.seed, args.scale, args.seconds, False)
            runs.append(run)
        traced = (measure(spec, name, args.seed, args.scale, args.seconds, True)
                  if args.trace else None)
        everything = runs + ([traced] if traced else [])
        problems = [p for run in everything for p in run["problems"]]
        if any(run["signature"] != runs[0]["signature"] for run in everything):
            problems.append("repeats disagree on a sim metric or count")
        entry = {
            "end_to_end": {
                metric["name"]: _stat(
                    [run["metrics"][metric["name"]] for run in runs], metric["unit"]
                )
                for metric in spec["end_to_end"]
            },
            "per_layer": traced["metrics"] if traced else {},
            "signature": runs[0]["signature"],
            "attempted": runs[0]["attempted"],
            "failed": runs[0]["failed"],
            "load": [[run["load_before"], run["load_after"]] for run in everything],
            "noisy": any(run["noisy"] for run in everything),
            "problems": problems,
        }
        suite["workloads"][name] = entry
        failed = failed or bool(problems)

        print(f"{name}: attempted={entry['attempted']} failed={entry['failed']}"
              f"{' noisy' if entry['noisy'] else ''}")
        for metric, stat in entry["end_to_end"].items():
            print(f"  {metric:<44} {stat['median']:>16.6f} {stat['unit']:<8} host  "
                  f"q1={stat['q1']:.6f} q3={stat['q3']:.6f} n={stat['n']} "
                  f"spread={spread(stat):.3f}")
        if traced:
            print_metrics(traced)
        for problem in problems:
            print(f"  PROBLEM: {problem}")

    path = os.path.abspath(args.out)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(suite, handle, indent=1, sort_keys=True)
    print(f"wrote {path}; "
          f"{'FAILED the correctness gate' if failed else 'outputs correct'}")
    return 1 if failed else 0


def run_compare(spec: Dict[str, Any], base_path: str, new_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    try:
        lines, bad = compare(base, new, spec["end_to_end"])
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="measure this one workload and print one JSON result")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="timed region to accumulate per measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one workload: 1 = per-layer ledger instead of the "
                             "end-to-end metrics; suite: 0 = skip the traced pass")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="common multiplier on every workload's op count")
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite mode: timed measurements per workload")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "latest.json"),
                        help="suite mode: where to write the result")
    parser.add_argument("--compare", nargs=2, metavar=("BASE.json", "NEW.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return run_compare(spec, *args.compare)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro beside bench/: nothing to measure",
              file=sys.stderr)
        return 2
    if args.workload:
        args.trace = args.trace or 0
        return run_one(spec, args)
    args.trace = 1 if args.trace is None else args.trace
    return run_suite(spec, args)


if __name__ == "__main__":
    sys.exit(main())
