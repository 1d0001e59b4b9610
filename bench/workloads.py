"""The six benchmark workloads.

Each workload is a pair of functions: ``plan(seed, scale)`` turns the
benchmark seed into the configs the simulator is given (the program
under test only ever sees those), and ``execute(plan, probe)`` runs
them through the public entry points, checks the outputs and returns an
:class:`Outcome`.  ``scale`` multiplies every workload's op count; 1.0
is the frozen size (one execution takes 1.5-17 s of host time at the
seed commit, so a 13 s measurement fits the time the driver of
``BENCHMARK.json`` allows).  Why each workload exists, and why its size
and shape differ from the sketch in ISSUE 11, is in ``bench/README.md``.

``repro`` is imported inside the functions: the child's set-up time
(``setup_s``) is meant to include those imports.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from probe import Probe

__all__ = ["Outcome", "Workload", "WORKLOADS"]

BASELINES = ("majority", "rowa", "primary_backup", "rowa_async")


@dataclass
class Outcome:
    """What one execution of a workload produced (all simulated, so
    every field must repeat exactly for the same seed and scale)."""

    #: client operations attempted / completed OK / OK writes among them
    attempted: int = 0
    ok: int = 0
    writes_ok: int = 0
    #: regular-semantics + invariant + liveness + degraded-staleness
    violations: int = 0
    #: simulated latencies (ms) of the OK reads / writes that the
    #: workload reports response times for
    reads_ms: List[float] = field(default_factory=list)
    writes_ms: List[float] = field(default_factory=list)
    #: workload-specific simulated counts (population, monitor, explorer)
    counts: Dict[str, float] = field(default_factory=dict)
    #: host seconds, OK ops and messages per part of a composite workload
    parts: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def add_history(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            if op.ok:
                self.ok += 1
                if op.kind == "write":
                    self.writes_ok += 1

    def add_latencies(self, ops) -> None:
        for op in ops:
            if op.ok:
                (self.reads_ms if op.kind == "read" else self.writes_ms).append(
                    op.latency
                )


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable[[int, float], Any]
    execute: Callable[[Any, Probe], Outcome]
    #: optional run whose host cost per op is the denominator of
    #: ``dqvl_cost_vs_majority``; measured in the same child, right after
    #: the workload's own executions, so both see the same machine state
    reference: Optional["Workload"] = None


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _panel(seed: int, size: int) -> List[int]:
    """Simulation seeds of a multi-run workload; panels of different
    benchmark seeds never share a member."""
    return [seed * 1000 + index for index in range(size)]


# -- closed-loop response-time runs (paper Figures 6 and 7) -------------------


def _figure_config(protocol: str, write_ratio: float, locality: float,
                   ops_per_client: int, seed: int, **overrides):
    from repro.harness.experiment import ExperimentConfig

    fields = dict(
        protocol=protocol, write_ratio=write_ratio, locality=locality,
        num_edges=9, num_clients=3, ops_per_client=ops_per_client, seed=seed,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def _run_figure(config, probe: Probe, outcome: Outcome, latencies: bool) -> None:
    """Run one response-time experiment, check it and add it to
    *outcome* (rowa_async is held to a staleness report instead of
    regular semantics, so it contributes no violations)."""
    from repro.consistency.regular import check_regular, staleness_report
    from repro.harness.experiment import run_response_time

    result = run_response_time(config)
    with probe.span("check"):
        history = result.full_history()
        if config.protocol == "rowa_async":
            staleness_report(history)
            violations = 0
        else:
            violations = len(check_regular(history))
    outcome.add_history(history.ops)
    if latencies:
        outcome.add_latencies(result.history.ops)
    outcome.violations += violations


def _plan_fig6(seed: int, scale: float):
    # One client per edge, not the paper's three: with locality 1.0 and
    # three clients, four to six lease keepers spin depending on the seed
    # and host cost jumps by 25 % per keeper; with every edge warm that
    # lottery is gone.  The clients finish within ~15 simulated seconds;
    # stopping the run at 30 s instead of draining the default 60 s
    # interest window keeps this workload about operations (fig7_dqvl
    # pays the whole idle tail) and cheap enough to run on three seeds,
    # which averages out the 8 % seed-to-seed swing that remains.
    ops = _scaled(250, scale)
    return [
        _figure_config("dqvl", 0.05, 1.0, ops, run_seed, num_clients=9,
                       time_limit_ms=max(30_000.0, 120.0 * ops))
        for run_seed in _panel(seed, 3)
    ]


def _plan_fig7(seed: int, scale: float):
    return [_figure_config("dqvl", 0.2, 0.9, _scaled(150, scale), seed)]


def _execute_figures(configs, probe: Probe) -> Outcome:
    outcome = Outcome()
    for config in configs:
        _run_figure(config, probe, outcome, latencies=True)
    return outcome


def _plan_baselines(seed: int, scale: float):
    return [
        _figure_config(protocol, 0.2, 0.9, _scaled(750, scale), seed)
        for protocol in BASELINES
    ]


def _execute_baselines(configs, probe: Probe) -> Outcome:
    outcome = Outcome()
    for config in configs:
        ok_before = outcome.ok
        messages_before = probe.harvest()["messages"]
        start = time.perf_counter()
        # Response times are majority's: the baseline the ROADMAP
        # compares DQVL's host cost against.
        _run_figure(config, probe, outcome,
                    latencies=(config.protocol == "majority"))
        outcome.parts[config.protocol] = {
            "host_s": time.perf_counter() - start,
            "ok": outcome.ok - ok_before,
            "messages": probe.harvest()["messages"] - messages_before,
        }
    return outcome


def _plan_majority_reference(seed: int, scale: float):
    return [_figure_config("majority", 0.2, 0.9, _scaled(750, scale), seed)]


# -- open-loop CDN flash crowd --------------------------------------------------


def _plan_cdn(seed: int, scale: float):
    from repro.edge.cdn import CdnScenarioConfig

    # Host cost follows simulated time, not arrivals (one lease keeper
    # per warm volume ticks every simulated ms), so the scale stretches
    # the horizon and the flash crowd with it; the arrival rate stays
    # 10^6 users x 0.0002 ops/s.  How many keepers spin is a lottery of
    # the seed, so one execution is three independent flash crowds over
    # 128 volumes: that takes the seed-to-seed swing of host cost from
    # the 35 % between quartiles of one crowd over 64 volumes to ~10 %
    # (per-crowd cost is heavy-tailed; a tighter spread costs far more
    # host time than a measurement has).  The
    # queue is deep enough that nothing is dropped at the seed commit:
    # overload shows as queue wait in the latencies, and any drop a later
    # change causes is a failed op.
    span = 4_000.0 * scale
    return [
        CdnScenarioConfig(
            protocol="dqvl", seed=run_seed, regions=2, pops_per_region=2,
            users=1_000_000, ops_per_user_per_s=0.0002, write_ratio=0.02,
            num_objects=100_000, num_volumes=128, zipf_s=1.1,
            issuers_per_pop=16, queue_limit=4096,
            horizon_ms=span, flash_start_ms=span / 4, flash_peak_multiplier=5.0,
            flash_ramp_ms=span / 24, flash_hold_ms=span / 6,
            flash_decay_ms=span / 12,
        )
        for run_seed in _panel(seed, 3)
    ]


def _execute_cdn(configs, probe: Probe) -> Outcome:
    from repro.consistency.regular import check_regular
    from repro.edge.cdn import run_cdn

    outcome = Outcome()
    counts: Counter = Counter()
    for config in configs:
        result = run_cdn(config)
        with probe.span("check"):
            outcome.violations += len(check_regular(result.history))
        outcome.add_history(result.history.ops)
        outcome.add_latencies(result.history.ops)
        # Arrivals dropped at the queue limit never reach the history.
        outcome.attempted += result.stats.dropped
        counts["population_arrivals"] += result.stats.arrivals
        counts["population_dropped"] += result.stats.dropped
        counts["population_dispatched"] += result.stats.dispatched
        counts["population_queue_wait_ms"] += result.stats.queue_wait_ms
    outcome.counts.update(counts)
    return outcome


# -- crash-storm chaos runs -------------------------------------------------------


def _plan_chaos(seed: int, scale: float):
    from repro.chaos.campaign import ChaosRunConfig

    # Clients retry until served (client_max_attempts=None): every fault
    # window ends by the horizon, so the storm costs delay, not failed
    # operations, and a failed op is a regression rather than a design
    # outcome.
    return [
        ChaosRunConfig(
            protocol="dqvl", seed=run_seed, nemeses=("crash_storm",),
            num_edges=5, num_clients=3, ops_per_client=_scaled(75, scale),
            horizon_ms=20_000.0, client_max_attempts=None,
            mode="frontend", resilience=True,
        )
        for run_seed in _panel(seed, 3)
    ]


def _execute_chaos(configs, probe: Probe) -> Outcome:
    from repro.chaos.campaign import run_chaos

    outcome = Outcome()
    samples = 0
    for config in configs:
        # run_chaos checks regular semantics, invariants, liveness and
        # degraded staleness itself and reports them as violations.
        result = run_chaos(config)
        outcome.violations += len(result.violations)
        samples += result.stats["invariant_samples"]
    for history in probe.histories:
        outcome.add_history(history.ops)
        outcome.add_latencies(history.ops)
    outcome.counts["invariant_samples"] = samples
    return outcome


# -- bounded model checking -------------------------------------------------------


def _plan_mc(seed: int, scale: float):
    from repro.mc import McRunConfig

    # Forty small explorations, not one of 400 schedules: the
    # default model has 12 client ops in all, so one seed's read/write
    # draw sets the cost of every schedule explored from it (25 %
    # between quartiles across seeds); a panel averages that out.
    return {
        "configs": [McRunConfig(seed=run_seed) for run_seed in _panel(seed, 40)],
        "budget": _scaled(10, scale),
    }


def _execute_mc(plan, probe: Probe) -> Outcome:
    from repro.mc import explore

    outcome = Outcome()
    counts: Counter = Counter()
    for config in plan["configs"]:
        result = explore(config, strategy="dfs", budget=plan["budget"],
                         por=True, shrink=False)
        if result.witness is not None:
            outcome.violations += len(result.witness.violations)
        counts["mc_runs"] += result.runs
        counts["mc_pruned"] += result.pruned
    for history in probe.histories:
        outcome.add_history(history.ops)
        outcome.add_latencies(history.ops)
    outcome.counts.update(counts)
    return outcome


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fig6_dqvl", _plan_fig6, _execute_figures),
        Workload(
            "fig7_dqvl", _plan_fig7, _execute_figures,
            reference=Workload(
                "fig7_majority", _plan_majority_reference, _execute_figures
            ),
        ),
        Workload("fig7_baselines", _plan_baselines, _execute_baselines),
        Workload("cdn_flash_dqvl", _plan_cdn, _execute_cdn),
        Workload("chaos_storm_dqvl", _plan_chaos, _execute_chaos),
        Workload("mc_dfs", _plan_mc, _execute_mc),
    )
}
