"""Function-level reach of ``src/repro``: which functions only tests call.

Runs two sets of entry points under a profile hook that records every
``repro`` code object a process calls:

* the product set: ``pytest benchmarks/ --benchmark-disable``,
  ``bench/run.py --seconds 1 --trace 0`` on every workload, each
  ``examples/*.py``, ``repro report`` and the README and CI ``repro``
  commands below at small scale, plus the CI's inline POR cross-check
  and crash-storm availability gate;
* tier-1: ``pytest tests/``.

It then prints every function (``def`` in ``src/repro``) that only
tier-1 reaches and every function nothing reaches, with line counts.
A function's lines run from its first decorator (or ``def``) to its
last line, less those of the functions nested in it (counted on their
own).

``KEEP`` lists the functions deliberately left test-reached, each with
its reason: an *oracle* tests compare the product against, a *fixture*
tests load or replay, an *interface* the examples or users call, or a
*rare safety path* the product takes only under a fault the product
set does not inject.  The script exits 1 when a function that only
tests reach, or that nothing reaches, is missing from ``KEEP``.

The hook is installed by a ``sitecustomize`` module on ``PYTHONPATH``,
so it follows every Python subprocess that keeps that variable, the
bench children included.  Sweeps run in-process
(``REPRO_SWEEP_WORKERS=1``) but for one, since a pool worker exits
without the hook's dump.  A test that sets its own profile function
has it called from the hook, so its counts hold; a test that counts
frames may fail under the hook, which does not change what it reached.

Run from the repository root::

    python3 tools/reach.py [--jobs 2] [--verbose]

With ``--jobs 2`` it took 1.6-2.6 minutes of wall clock on a 2-core
x86-64 host (CPython 3.11); tier-1 under the hook, about 100 s, is the
longest command.  Every command runs in a temporary directory, except
that ``pytest benchmarks/`` and ``repro report`` rewrite the committed
``results/`` tables byte-identically.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ENV_DIR = "REACH_OUT_DIR"  # bench/run.py drops REPRO_* from its children's environment

SITECUSTOMIZE = r'''
import atexit, os, sys, threading

_out = os.environ.get("REACH_OUT_DIR")
if _out:
    _seen = {}
    _user = [None]

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in _seen:
                _seen[id(code)] = code
        if _user[0] is not None:
            _user[0](frame, event, arg)

    def _setprofile(fn, _real=sys.setprofile):
        if fn is _hook:  # threading installs the hook in each new thread
            _real(fn)
        else:
            _user[0] = fn

    sys.setprofile(_hook)
    threading.setprofile(_hook)
    sys.setprofile = _setprofile
    sys.getprofile = lambda: _user[0]

    @atexit.register
    def _dump():
        codes = list(_seen.values())
        with open(os.path.join(_out, "%d.txt" % os.getpid()), "w") as fh:
            for code in codes:
                if "repro" in code.co_filename:
                    fh.write("%s\t%d\n" % (code.co_filename, code.co_firstlineno))
'''

REPRO = [sys.executable, "-m", "repro"]

# README.md and .github/workflows/ci.yml commands, at small scale.
CLI = [
    ["protocols"],
    ["run", "--help"],
    ["figure", "fig6a", "--ops", "20"],
    ["figure", "fig7b", "--ops", "20", "--json"],
    ["figure", "fig8a", "--chart"],
    ["figure", "fig9b"],
    ["run", "--protocol", "dqvl", "--write-ratio", "0.05", "--locality", "0.9", "--ops", "30", "--json"],
    ["run", "--iqs", "majority:r=2,w=4", "--oqs", "rowa", "--edges", "5", "--ops", "20", "--json"],
    ["sweep", "--protocol", "dqvl", "--write-ratios", "0", "0.5", "--localities", "0.7", "1.0", "--ops", "15"],
    ["availability", "--protocol", "dqvl", "--p", "0.15", "--epochs", "50"],
    ["chaos", "--protocols", "all", "--seeds", "1", "--ops", "10"],
    ["chaos", "--protocols", "dqvl,basic_dq", "--seeds", "1", "--nemeses", "all", "--ops", "10",
     "--trace", "--trace-dir", "traces"],
    ["chaos", "--protocols", "all", "--seeds", "1", "--nemeses", "all", "--frontend", "--ops", "10"],
    ["chaos", "--protocols", "dqvl", "--seeds", "1", "--nemeses", "all", "--resilience", "--ops", "10"],
    ["chaos", "--protocols", "dqvl", "--seeds", "2", "--nemeses", "crash_storm", "--resilience"],
    ["chaos", "--weaken", "ignore_volume_expiry", "--shrink", "--seeds", "2", "--ops", "10",
     "--corpus-dir", "corpus"],
    ["chaos", "--seeds", "1", "--iqs", "grid:2x2", "--edges", "4", "--ops", "10", "--json"],
    ["trace", "--ops", "20", "--partition", "200:400", "--export", "chrome", "--out", "t.json"],
    ["trace", "--ops", "20", "--partition", "200:400", "--export", "jsonl", "--out", "t.jsonl"],
    ["trace", "--protocol", "dqvl", "--write-ratio", "0.2", "--ops", "20", "--out", "t2.json"],
    ["why", "--protocol", "dqvl", "--top", "3", "--seed", "0", "--check-conservation"],
    ["why", "--protocol", "majority", "--seed", "0", "--check-conservation", "--budget-out", "b.json"],
    ["why", "--protocol", "dqvl", "--seed", "0", "--partition", "200:3000", "--check-conservation"],
    ["why", "--protocol", "dqvl", "--seed", "0", "--json", "a.json"],
    ["cdn", "--users", "100000", "--horizon-ms", "400"],
    ["cdn", "--iqs", "grid:2x2", "--users", "100000", "--horizon-ms", "400"],
    ["cdn", "--users", "1000000", "--rate", "0.0002", "--regions", "2", "--pops-per-region", "2",
     "--volumes", "64", "--zipf", "1.1", "--issuers-per-pop", "8", "--horizon-ms", "500",
     "--flash-at-ms", "200", "--flash-peak", "5", "--json-out", "cdn.json", "--budget-out",
     "cdn_budget.json", "--json"],
    ["cdn", "--users", "100000", "--horizon-ms", "400", "--arrivals", "mmpp",
     "--diurnal-amplitude", "0.5", "--diurnal-period-ms", "400", "--trace"],
    ["cdn", "--users", "100000", "--horizon-ms", "400", "--balance", "round_robin",
     "--flash-at-ms", "100", "--flash-peak", "3", "--diurnal-amplitude", "0.3"],
    ["tune", "--validate-top", "2", "--json-out", "frontier_validated.json"],
    ["tune", "--validate-top", "2", "--json"],
    ["tune", "--num-edges", "9", "--read-fraction", "0.95", "--p", "0.01", "--json"],
    ["tune", "--json-out", "frontier.json"],
    ["explore", "--strategy", "dfs", "--budget", "30", "--por"],
    ["explore", "--weaken", "keeper_abandons_lapse", "--strategy", "walk", "--budget", "100"],
    ["explore", "--weaken", "drop_vl_acks", "--strategy", "walk", "--budget", "100", "--save",
     "--corpus-dir", "mc"],
    ["explore", "--weaken", "ignore_object_invalidations", "--strategy", "dfs", "--budget", "30",
     "--no-shrink"],
    ["explore", "--weaken", "skip_write_invalidation", "--strategy", "dfs", "--budget", "50",
     "--no-shrink"],
    ["explore", "--protocol", "majority", "--strategy", "walk", "--budget", "20"],
    ["explore", "--protocol", "primary_backup", "--strategy", "walk", "--budget", "20"],
    ["explore", "--protocol", "rowa_async", "--strategy", "walk", "--budget", "20"],
    ["explore", "--protocol", "basic_dq", "--strategy", "walk", "--budget", "20"],
    ["explore", "--protocol", "dqvl", "--num-edges", "3", "--strategy", "dfs", "--budget", "20",
     "--max-depth", "20", "--por"],
    ["explore", "--strategy", "dfs", "--sweep-edges", "2:3", "--budget", "20", "--max-depth", "12",
     "--json"],
    ["report", "--out", "report.md", "--ops", "20", "--figures", "fig6a", "fig9a", "--no-charts",
     "--measured-availability"],
]

# The CI's inline library calls: the scheduled POR cross-check at a
# smaller depth, and the crash-storm availability gate as CI runs it.
CROSSCHECK = (
    "from repro.mc import McRunConfig, crosscheck_por\n"
    "print(crosscheck_por(McRunConfig(num_clients=1, ops_per_client=2, num_keys=1),"
    " max_depth=5, budget=2000))\n"
)
AVAILABILITY = (
    "from repro.chaos.campaign import ChaosRunConfig, run_chaos\n"
    "for seed in (0, 1, 2, 3, 4, 24, 109):\n"
    "    for resilience in (False, True):\n"
    "        print(run_chaos(ChaosRunConfig(protocol='dqvl', seed=seed,"
    " nemeses=('crash_storm',), horizon_ms=20_000.0, client_max_attempts=2,"
    " mode='frontend', resilience=resilience)).stats['availability'])\n"
)

WORKLOADS = ("fig6_dqvl", "fig7_dqvl", "fig7_baselines", "cdn_flash_dqvl",
             "chaos_storm_dqvl", "mc_dfs")


def product_commands():
    """``(argv, cwd, workers)``: ``cwd=None`` means a fresh temporary
    directory, *workers* is ``REPRO_SWEEP_WORKERS``.  Sweeps run inline,
    because a pool worker exits without running the hook's dump; one
    sweep takes the pool so its parent-side path is measured too."""
    py = sys.executable
    commands = [([py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks/",
                  "--benchmark-disable"], ROOT, 1),
                (REPRO + ["report"], ROOT, 1),
                ([py, "-c", CROSSCHECK], None, 1),
                ([py, "-c", AVAILABILITY], None, 1),
                (REPRO + ["sweep", "--protocol", "rowa", "--write-ratios", "0.05", "0.5",
                          "--localities", "1.0", "--ops", "10"], None, 2)]
    commands += [([py, os.path.join(ROOT, "bench", "run.py"), "--workload", w, "--seed", "7",
                   "--seconds", "1", "--trace", "0"], None, 1) for w in WORKLOADS]
    examples = os.path.join(ROOT, "examples")
    commands += [([py, os.path.join(examples, name)], None, 1)
                 for name in sorted(os.listdir(examples)) if name.endswith(".py")]
    commands += [(REPRO + argv, None, 1) for argv in CLI]
    return commands


def tier1_commands():
    return [([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/"],
             ROOT, 1)]


ORACLE, FIXTURE, INTERFACE, SAFETY = "oracle", "fixture", "interface", "rare safety path"

# Functions left test-reached (or unreached) on purpose:
# "module:qualname" -> (kind, reason).
KEEP = {
    "repro.analysis.response_time:expected_latency": (
        ORACLE, "Figure 6-7 closed form per op; simulator cross-check"),
    "repro.analysis.response_time:expected_mean_latency": (
        ORACLE, "Figure 6-7 workload mean; test_model_matches_simulation"),
    "repro.consistency.regular:check_atomic": (
        ORACLE, "atomic-register checker for the A6 client's histories"),
    "repro.consistency.sessions:SessionViolation.__str__": (ORACLE, "session checkers"),
    "repro.consistency.sessions:_sessions": (ORACLE, "session checkers"),
    "repro.consistency.sessions:check_read_your_writes": (ORACLE, "session checkers"),
    "repro.consistency.sessions:check_monotonic_reads": (ORACLE, "session checkers"),
    "repro.consistency.sessions:check_session_guarantees": (ORACLE, "session checkers"),
    "repro.workload.population:spawn_per_user_clients": (
        ORACLE, "one closed-loop client per user, the population's reference"),
    "repro.workload.population:spawn_per_user_clients.user": (
        ORACLE, "one closed-loop client per user, the population's reference"),
    "repro.core.leases:IqsLeaseTable.is_expired": (
        ORACLE, "granter-side expiry test the lease oracles apply"),
    "repro.sim.kernel:ScheduleController.choose_event": (
        ORACLE, "the canonical order the controlled loop is checked against"),
    "repro.sim.kernel:ScheduleController.message_delay": (
        INTERFACE, "the base controller's delivery delay: the drawn one"),
    "repro.chaos.faults:Fault.from_json_obj": (FIXTURE, "chaos corpus loading"),
    "repro.chaos.faults:FaultSchedule.from_json_obj": (FIXTURE, "chaos corpus loading"),
    "repro.chaos.shrink:load_repro": (FIXTURE, "chaos corpus replay"),
    "repro.mc.corpus:load_mc_repro": (FIXTURE, "mc corpus loading"),
    "repro.mc.corpus:replay_mc_repro": (FIXTURE, "mc corpus replay"),
    "repro.mc.runner:McRunResult.trace_text": (
        FIXTURE, "the wire trace the fingerprints and corpus replays compare"),
    "repro.chaos.campaign:ChaosRunResult.to_json_obj": (
        FIXTURE, "whole-run form the chaos fingerprints digest"),
    "repro.core.leases:IqsLeaseTable.bump_epoch": (
        SAFETY, "epoch advance when the delayed queue overflows max_delayed"),
    "repro.mc.por:CountingRandom.random": (
        SAFETY, "attributes a random() draw to its event's footprint"),
    "repro.apps.bookstore.stores:CatalogOriginNode.on_cat_pull": (
        SAFETY, "catalog pull after an edge missed an update"),
    "repro.apps.bookstore.stores:OrderNode.backlog": (INTERFACE, "bookstore order API"),
    "repro.apps.bookstore.stores:InventoryOriginNode.restock": (
        INTERFACE, "bookstore inventory API"),
    "repro.apps.bookstore.stores:InventoryEdgeNode.release": (
        INTERFACE, "bookstore inventory API (an aborted sale)"),
    "repro.core.volumes:ExplicitVolumeMap.__init__": (
        INTERFACE, "DqvlConfig.volume_map that pins objects to volumes"),
    "repro.core.volumes:ExplicitVolumeMap.volume_of": (
        INTERFACE, "DqvlConfig.volume_map that pins objects to volumes"),
    "repro.core.volumes:HashVolumeMap.__setstate__": (
        INTERFACE, "unpickling in a sweep worker, which the hook cannot see"),
    "repro.resilience.detector:FailureDetector.suspicion": (
        INTERFACE, "the accrual level the suspicion threshold is applied to"),
    "repro._lazy:lazy_exports.__dir__": (INTERFACE, "dir() of a package"),
    "repro.chaos.invariants:InvariantViolation.__str__": (INTERFACE, "debugging repr"),
    "repro.obs.spans:Span.__repr__": (INTERFACE, "debugging repr"),
    "repro.obs.spans:SpanEvent.__repr__": (INTERFACE, "debugging repr"),
    "repro.sim.kernel:Future.__repr__": (INTERFACE, "debugging repr"),
    "repro.sim.kernel:Process.__repr__": (INTERFACE, "debugging repr"),
    "repro.sim.messages:Message.__repr__": (INTERFACE, "debugging repr"),
    "repro.sim.node:Node.__repr__": (INTERFACE, "debugging repr"),
    "repro.types:Op.__repr__": (INTERFACE, "debugging repr"),
}


def run_all(commands, out_dir, hook_dir, jobs, verbose):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([hook_dir, SRC] + [p for p in env.get(
        "PYTHONPATH", "").split(os.pathsep) if p])
    env[ENV_DIR] = out_dir

    def one(command):
        argv, cwd, workers = command
        with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
            began = time.perf_counter()
            done = subprocess.run(argv, cwd=cwd or tmp, stdout=subprocess.PIPE,
                                  env=dict(env, REPRO_SWEEP_WORKERS=str(workers)),
                                  stderr=subprocess.STDOUT, text=True)
            if verbose:
                print(f"  {time.perf_counter() - began:6.1f} s  exit {done.returncode}  "
                      f"{' '.join(argv[1:])[:100]}", file=sys.stderr)
            return done.returncode

    with ThreadPoolExecutor(jobs) as pool:
        return list(pool.map(one, commands))


def read_reached(out_dir):
    reached = set()
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name)) as fh:
            for line in fh:
                path, lineno = line.rstrip("\n").split("\t")
                path = os.path.realpath(path)
                if path.startswith(SRC + os.sep):
                    reached.add((os.path.relpath(path, SRC), int(lineno)))
    return reached


def functions():
    """``{(relpath, firstlineno): (name, lines)}`` for every def under ``src/repro``."""
    found = {}
    for folder, _, files in os.walk(os.path.join(SRC, "repro")):
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            path = os.path.join(folder, file)
            rel = os.path.relpath(path, SRC)
            module = rel[:-3].replace(os.sep, ".").removesuffix(".__init__")
            with open(path) as fh:
                tree = ast.parse(fh.read())
            _collect(tree, rel, module, [], found)
    return found


def _collect(node, rel, module, scope, found):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            lines = set(range(first, child.end_lineno + 1))
            for inner in ast.walk(child):
                if inner is not child and isinstance(inner, (ast.FunctionDef,
                                                             ast.AsyncFunctionDef)):
                    start = min([inner.lineno] + [d.lineno for d in inner.decorator_list])
                    lines -= set(range(start, inner.end_lineno + 1))
            name = f"{module}:{'.'.join(scope + [child.name])}"
            found[(rel, first)] = (name, len(lines))
            _collect(child, rel, module, scope + [child.name], found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, rel, module, scope + [child.name], found)
        else:
            _collect(child, rel, module, scope, found)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2, help="commands run at once")
    parser.add_argument("--verbose", action="store_true", help="time each command")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        hook_dir, product_dir, tier1_dir = (os.path.join(tmp, d) for d in ("hook", "p", "t"))
        for d in (hook_dir, product_dir, tier1_dir):
            os.mkdir(d)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as fh:
            fh.write(SITECUSTOMIZE)
        # tier-1 is the longest single command: start it first, alongside the product set.
        with ThreadPoolExecutor(2) as pool:
            tier1 = pool.submit(run_all, tier1_commands(), tier1_dir, hook_dir, 1, args.verbose)
            product = pool.submit(run_all, product_commands(), product_dir, hook_dir,
                                  max(1, args.jobs - 1), args.verbose)
            statuses = product.result() + tier1.result()
        by_product, by_tier1 = read_reached(product_dir), read_reached(tier1_dir)
    if any(statuses):
        print(f"note: {sum(1 for s in statuses if s)} command(s) exited non-zero "
              "(the weakened-protocol runs exit 1 by design, and tier-1's "
              "frame-counting tests fail under the hook)")

    table = functions()
    totals = {"product": 0, "test-only": 0, "unreached": 0}
    listed = {"test-only": [], "unreached": []}
    for key, (name, lines) in sorted(table.items()):
        if key in by_product:
            totals["product"] += lines
            continue
        kind = "test-only" if key in by_tier1 else "unreached"
        totals[kind] += lines
        listed[kind].append((name, lines))
    missing = []
    for kind in ("test-only", "unreached"):
        entries = listed[kind]
        print(f"\n{kind}: {sum(n for _, n in entries)} lines in {len(entries)} functions")
        for name, lines in entries:
            reason = KEEP.get(name)
            note = f"{reason[0]}: {reason[1]}" if reason else "NOT KEPT"
            print(f"  {lines:4d}  {name}  [{note}]")
            if reason is None:
                missing.append(name)
    stale = sorted(set(KEEP) - {n for entries in listed.values() for n, _ in entries})
    print(f"\nlines in function bodies: {sum(totals.values())}; product {totals['product']}, "
          f"test-only {totals['test-only']}, unreached {totals['unreached']}")
    if stale:
        print("KEEP entries now reached by the product: " + ", ".join(stale))
    if missing:
        print(f"{len(missing)} function(s) only tests reach, or nothing does, with no KEEP entry")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
