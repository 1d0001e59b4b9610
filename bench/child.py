"""The measured child process: one workload, one seed, one fresh interpreter.

``bench/run.py`` starts this file with ``PYTHONPATH=src`` and
``PYTHONHASHSEED=0``.  Three modes:

* ``setup``  — run the workload up to its first ``Simulator.run`` call,
  report the time since the parent spawned the process, exit;
* ``timed``  — untraced executions of the workload, re-run with the
  identical seed until about ``--seconds`` of timed region have
  accumulated (at least one execution);
* ``traced`` — the same, alternating untraced and traced executions so
  the tracing overhead is a paired ratio measured in one process.

The timed region of an execution runs from its first ``Simulator.run``
to the end of the output check (run + summarise + check, set-up
excluded).  Every host time is divided by the machine's slowdown
measured during that execution (see ``hostspeed.py``).  The last line
printed is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional

from hostspeed import HostSpeed
from probe import LAYERS, NODE_COUNTERS, Probe, SetupDone
from workloads import BASELINES, WORKLOADS, Outcome, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: a tail percentile is reported only with this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def signature(outcome: Outcome, probe: Probe) -> Dict[str, float]:
    """Every simulated number of one execution.  Two executions with the
    same seed and scale must produce the same dict, traced or not."""
    from repro.harness.metrics import LatencyStats

    reads = LatencyStats.from_samples(outcome.reads_ms)
    writes = LatencyStats.from_samples(outcome.writes_ms)
    # the highest percentile the sample supports, as the harness defines them
    tail_pct, tail_ms = 0, 0.0
    for pct, value in ((99, reads.p99), (95, reads.p95)):
        if reads.count * (100 - pct) / 100.0 >= MIN_SAMPLES_BEYOND:
            tail_pct, tail_ms = pct, value
            break
    sig: Dict[str, float] = {
        "attempted": outcome.attempted,
        "ok": outcome.ok,
        "writes_ok": outcome.writes_ok,
        "violations": outcome.violations,
        "reads_sampled": reads.count,
        "sim_read_mean_ms": reads.mean,
        "sim_read_p50_ms": reads.p50,
        "sim_read_tail_pct": tail_pct,
        "sim_read_tail_ms": tail_ms,
        "sim_write_p50_ms": writes.p50,
    }
    harvested = probe.harvest()
    for name in ("events", "messages", "messages_dropped", "suspicions",
                 "hedges_sent", "adaptive_rounds") + NODE_COUNTERS:
        sig[name] = harvested[name]
    sig.update(outcome.counts)
    for protocol, part in outcome.parts.items():
        sig[f"{protocol}.ok"] = part["ok"]
        sig[f"{protocol}.messages"] = part["messages"]
    return sig


class Execution:
    """Host timings and simulated signature of one execution."""

    def __init__(self, workload: Workload, seed: int, scale: float,
                 probe: Probe, speed: HostSpeed, traced: bool) -> None:
        probe.reset()
        plan = workload.plan(seed, scale)
        self.traced = traced
        mark = speed.mark()
        if traced:
            probe.start_tracing()
        begin = time.perf_counter()
        try:
            outcome = workload.execute(plan, probe)
        finally:
            end = time.perf_counter()
            if traced:
                probe.stop_tracing()
        if probe.first_run is None:
            raise RuntimeError(f"{workload.name} never called Simulator.run")
        #: how much slower than the reference the machine ran meanwhile
        self.slowdown = speed.slowdown(mark)
        #: run + summarise + check, set-up excluded; raw wall clock, then
        #: at the reference machine speed like every other host time here
        self.raw_wall_s = end - probe.first_run
        self.wall_s = self.raw_wall_s / self.slowdown
        self.total_s = (end - begin) / self.slowdown
        self.run_s = probe.run_s / self.slowdown
        self.first_run_wall = probe.first_run_wall
        self.signature = signature(outcome, probe)
        self.parts = outcome.parts
        for part in self.parts.values():
            part["host_s"] /= self.slowdown
        self.counts = dict(probe.counts)
        self.host_s = {k: v / self.slowdown for k, v in probe.host_s.items()}
        self.samples = dict(probe.samples)
        self.file_samples = {
            os.path.relpath(name, ROOT) if os.path.isabs(name) else name: count
            for name, count in probe.file_samples.most_common(40)
        }
        self.spans = [
            {"name": name, "start": (start - begin) / self.slowdown,
             "end": (stop - begin) / self.slowdown, "parent": parent}
            for name, start, stop, parent in probe.spans
        ]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(untraced: List[Execution], traced: List[Execution],
                      reference: Optional[Execution]) -> Dict[str, float]:
    """The per-layer ledger of one traced child (see bench/README.md for
    which end-to-end metric each entry is expected to move)."""
    sig = untraced[0].signature
    ops = sig["ok"]
    wall = _median([e.wall_s for e in untraced])
    #: the counting wrappers' totals, identical in every traced
    #: execution (main() reports a problem otherwise)
    counts = Counter(traced[0].counts)
    host: Counter = Counter()
    samples: Counter = Counter()
    for execution in traced:
        host.update(execution.host_s)
        samples.update(execution.samples)
    for name in host:
        host[name] /= len(traced)
    traced_total = _median([e.total_s for e in traced])

    m: Dict[str, float] = {}
    sampled = sum(samples.values())
    for layer in LAYERS:
        m[f"{layer}.self_share"] = _ratio(samples[layer], sampled)

    m["sim.kernel.events_per_op"] = _ratio(sig["events"], ops)
    m["sim.kernel.sleeps_per_op"] = _ratio(counts["sleeps"], ops)
    m["sim.kernel.timers_per_op"] = _ratio(counts["timers"], ops)
    m["sim.kernel.spawns_per_op"] = _ratio(counts["spawns"], ops)
    m["sim.kernel.host_us_per_event"] = _median(
        [_ratio(e.run_s, e.signature["events"]) * 1e6 for e in untraced]
    )
    m["sim.network.dropped_share"] = _ratio(sig["messages_dropped"], sig["messages"])
    m["sim.node.deliveries_per_op"] = _ratio(counts["deliveries"], ops)

    calls = counts["qrpc_calls"]
    m["quorum.qrpc.calls_per_op"] = _ratio(calls, ops)
    m["quorum.qrpc.rounds_per_call"] = _ratio(counts["qrpc_rounds"], calls)
    m["quorum.qrpc.vacuous_ratio"] = _ratio(counts["qrpc_vacuous"], calls)

    m["core.dqvl.read_hit_ratio"] = _ratio(
        sig["read_hits"], sig["read_hits"] + sig["read_misses"]
    )
    m["core.dqvl.renewals_per_op"] = _ratio(sig["renewals_sent"], ops)
    m["core.dqvl.invals_per_write"] = _ratio(sig["invals_sent"], sig["writes_ok"])
    m["core.dqvl.validations_coalesced_per_op"] = _ratio(
        sig["validations_coalesced"], ops
    )

    for protocol in BASELINES:
        parts = [e.parts[protocol] for e in untraced if protocol in e.parts]
        m[f"protocols.{protocol}.ops_per_s"] = _median(
            [_ratio(part["ok"], part["host_s"]) for part in parts]
        )
        m[f"protocols.{protocol}.msgs_per_op"] = (
            _ratio(parts[0]["messages"], parts[0]["ok"]) if parts else 0.0
        )
    m["dqvl_cost_vs_majority"] = (
        _ratio(_ratio(wall, ops),
               _ratio(reference.wall_s, reference.signature["ok"]))
        if reference is not None else 0.0
    )

    m["edge.deployments.deploy_ms"] = 1e3 * _ratio(
        host["deploy"], counts["deploy_calls"]
    )
    rejected = sig["requests_failed"] + sig["writes_shed"]
    m["edge.frontend.rejected_share"] = _ratio(
        rejected, sig["requests_served"] + rejected
    )
    m["workload.population.dropped_share"] = _ratio(
        sig.get("population_dropped", 0), sig.get("population_arrivals", 0)
    )
    m["workload.population.queue_wait_ms_per_op"] = _ratio(
        sig.get("population_queue_wait_ms", 0.0), sig.get("population_dispatched", 0)
    )

    m["harness.summarize_s"] = host["summarize"]
    m["consistency.check_us_per_op"] = 1e6 * _ratio(host["check"], ops)

    m["chaos.invariant_samples_per_op"] = _ratio(sig.get("invariant_samples", 0), ops)
    m["resilience.adaptive_rounds_per_op"] = _ratio(sig["adaptive_rounds"], ops)
    m["resilience.hedges_per_op"] = _ratio(sig["hedges_sent"], ops)
    m["resilience.suspicions"] = sig["suspicions"]

    runs = sig.get("mc_runs", 0)
    m["mc.schedules_per_s"] = _ratio(runs, wall) if runs else 0.0
    m["mc.pruned_share"] = _ratio(sig.get("mc_pruned", 0),
                                  sig.get("mc_pruned", 0) + runs)
    m["mc.decisions_per_schedule"] = _ratio(counts["mc_decisions"], runs)

    m["phase.setup_share"] = _ratio(host["setup"], traced_total)
    m["phase.run_share"] = _ratio(_median([e.run_s for e in traced]), traced_total)
    m["phase.summarize_share"] = _ratio(host["summarize"], traced_total)
    m["phase.check_share"] = _ratio(host["check"], traced_total)
    m["trace_overhead_ratio"] = _ratio(_median([e.wall_s for e in traced]), wall)
    m["host.slowdown"] = _median([e.slowdown for e in untraced])

    m["failed_op_share"] = _ratio(sig["attempted"] - ops, sig["attempted"])
    m["violations"] = sig["violations"]
    m["sim_msgs_per_op"] = _ratio(sig["messages"], ops)
    for name in ("sim_read_p50_ms", "sim_read_tail_ms", "sim_read_tail_pct",
                 "sim_write_p50_ms"):
        m[name] = sig[name]
    return m


def _first_difference(a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return f"{key}: {a.get(key)!r} != {b.get(key)!r}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() in the parent just before the spawn")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    probe = Probe(setup_only=(args.mode == "setup"))
    probe.install()
    speed = HostSpeed()

    if args.mode == "setup":
        try:
            workload.execute(workload.plan(args.seed, args.scale), probe)
        except SetupDone:
            print(json.dumps({"setup_s": probe.first_run_wall - args.t0}))
            return 0
        raise RuntimeError(f"{workload.name} never called Simulator.run")

    speed.start()
    executions: List[Execution] = []
    accumulated = 0.0
    while True:
        traced = args.mode == "traced" and len(executions) % 2 == 1
        execution = Execution(workload, args.seed, args.scale, probe, speed, traced)
        executions.append(execution)
        accumulated += execution.raw_wall_s
        paired = args.mode == "timed" or len(executions) % 2 == 0
        # Stop once another execution would overshoot --seconds by more
        # than it undershoots now: the timed region totals --seconds give
        # or take half an execution, never twice it.
        if paired and accumulated + 0.5 * accumulated / len(executions) > args.seconds:
            break

    untraced = [e for e in executions if not e.traced]
    traced_runs = [e for e in executions if e.traced]
    problems: List[str] = []
    base = untraced[0]
    for index, execution in enumerate(executions[1:], start=1):
        difference = _first_difference(base.signature, execution.signature)
        if difference is not None:
            kind = "traced" if execution.traced else "untraced"
            problems.append(
                f"execution {index} ({kind}) disagrees with execution 0 on {difference}"
            )
    for execution in traced_runs[1:]:
        difference = _first_difference(traced_runs[0].counts, execution.counts)
        if difference is not None:
            problems.append(f"traced executions disagree on count {difference}")

    sig = base.signature
    report: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "mode": args.mode,
        "setup_s": executions[0].first_run_wall - args.t0,
        "executions": [
            {"traced": e.traced, "wall_s": e.wall_s, "raw_wall_s": e.raw_wall_s,
             "slowdown": e.slowdown}
            for e in executions
        ],
        "signature": sig,
        "attempted": sig["attempted"] * len(executions),
        "failed": (sig["attempted"] - sig["ok"]) * len(executions),
        "ops_per_s": _median([_ratio(e.signature["ok"], e.wall_s) for e in untraced]),
        "ops_per_s_raw": _median(
            [_ratio(e.signature["ok"], e.raw_wall_s) for e in untraced]
        ),
    }

    if args.mode == "traced":
        reference = None
        if workload.reference is not None:
            reference = Execution(workload.reference, args.seed, args.scale,
                                  probe, speed, traced=False)
        metrics = per_layer_metrics(untraced, traced_runs, reference)
        shares = sum(metrics[f"{layer}.self_share"] for layer in LAYERS)
        if abs(shares - 1.0) > 0.01:
            problems.append(f"self_share set sums to {shares:.4f}, not 1")
        report["per_layer"] = metrics
        os.makedirs(OUT_DIR, exist_ok=True)
        last = traced_runs[-1]
        with open(os.path.join(OUT_DIR, f"{workload.name}.trace.json"), "w") as out:
            json.dump(
                {
                    "workload": workload.name, "seed": args.seed,
                    "scale": args.scale, "spans": last.spans,
                    "samples": last.samples, "samples_by_file": last.file_samples,
                    "counts": last.counts,
                    "per_layer": metrics,
                },
                out, indent=1, sort_keys=True,
            )

    speed.stop()
    report["problems"] = problems
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
