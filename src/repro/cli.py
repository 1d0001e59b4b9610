"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figure``       regenerate any paper figure's series
                 (fig6a fig6b fig7a fig7b fig8a fig8b fig9a fig9b)
``run``          one response-time experiment with explicit parameters
``tune``         autotune (IQS, OQS) quorum shapes: Pareto frontier +
                 simulator cross-check
``availability`` measured availability under Bernoulli outages
``chaos``        randomized chaos campaign with invariant checking
``explore``      systematic schedule-space exploration (mini model checker)
``trace``        traced run exporting a causal op→round→message timeline
``why``          explain latency: critical paths and phase budgets
``protocols``    list the available protocols

Examples::

    python -m repro figure fig7b
    python -m repro figure fig8a --json
    python -m repro run --protocol dqvl --write-ratio 0.05 --locality 0.9
    python -m repro run --iqs "majority:r=2,w=4" --oqs rowa
    python -m repro tune --validate-top 3 --json-out results/tune.json
    python -m repro availability --protocol dqvl --p 0.15 --epochs 200
    python -m repro chaos --seeds 10 --protocols dqvl,majority
    python -m repro chaos --weaken ignore_volume_expiry --shrink
    python -m repro explore --weaken ignore_volume_expiry --budget 2000 --save
    python -m repro explore --strategy dfs --budget 300 --por
    python -m repro explore --strategy dfs --sweep-edges 2:5 --budget 200
    python -m repro trace --partition 200:400 --export chrome --out trace.json
    python -m repro trace --export jsonl --span-filter op
    python -m repro why --protocol dqvl --top 5 --check-conservation

Every flag that sets a runner-config field or a generator keyword
stores into that field's name and states no default of its own (the
subcommand parsers default to ``argparse.SUPPRESS``): :func:`_config`
builds a runner config from the flags actually given, so a flag left
unset keeps the config's own default.  ``trace`` and ``why`` (write
ratio 0.2, 60 ops per client), ``sweep`` (120 ops per client), ``cdn``
(10^6 users) and ``availability`` (p = 0.15) override a default with
``set_defaults``.  ``run``/``chaos``/``explore``/``trace``/``why`` share
their scenario flags through one :func:`_scenario_parent` per command.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from inspect import signature
from typing import List, Optional

from .bounds import require
from .edge.deployments import DUAL_QUORUM, PROTOCOL_DEPLOYERS
from .harness.figures import FIGURES, generate_figure

__all__ = ["main", "build_parser"]


def _scenario_parent(
    *,
    ops_help: str = "operations per client",
    single_run: bool = True,
    write_ratio: bool = False,
    weaken: bool = False,
    specs: bool = False,
) -> argparse.ArgumentParser:
    """One parent parser for the shared scenario flags.

    ``run``, ``chaos``, ``explore``, ``trace`` and the rest all accept
    the same spellings for the fields the runner configs share.  Each
    subcommand instantiates its own parent: ``set_defaults`` on a
    subcommand writes into these actions.  ``chaos`` spells protocol
    and seed as campaign-level flags (``--protocols``/``--seed-base``)
    and opts out of the single-run variants here.
    """
    parent = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    if single_run:
        parent.add_argument("--protocol", choices=sorted(PROTOCOL_DEPLOYERS))
        parent.add_argument("--seed", type=int)
    if write_ratio:
        parent.add_argument("--write-ratio", type=float)
    parent.add_argument("--ops", dest="ops_per_client", type=int,
                        help=ops_help)
    parent.add_argument("--num-clients", "--clients", dest="num_clients",
                        type=int)
    parent.add_argument("--num-edges", "--edges", dest="num_edges", type=int)
    parent.add_argument("--lease-length-ms", type=float,
                        help="volume lease length "
                             "(default: the runner's own default)")
    if weaken:
        parent.add_argument("--weaken",
                            help="inject a named protocol bug "
                                 "(see `repro protocols` for names)")
    if specs:
        parent.add_argument("--iqs", dest="iqs_spec", metavar="SPEC",
                            help='declarative IQS quorum shape, e.g. '
                                 '"majority:r=2,w=4" or "grid:3x3" '
                                 '(dqvl-family protocols only)')
        parent.add_argument("--oqs", dest="oqs_spec", metavar="SPEC",
                            help='declarative OQS quorum shape, e.g. '
                                 '"rowa" or "majority:r=2,w=5"')
    return parent


class _FlagMetavar(argparse.HelpFormatter):
    """Names a flag's value after the flag, not after the config field
    it stores into (``--rate RATE``, not ``OPS_PER_USER_PER_S``)."""

    def _get_default_metavar_for_optional(self, action):
        return action.option_strings[-1].lstrip("-").replace("-", "_").upper()


def _given(args, names) -> dict:
    """The flags among *names* that the user gave."""
    return {k: v for k, v in vars(args).items() if k in names}


def _config(cls, args, **extra):
    """A *cls* runner config from the flags the user gave, plus *extra*;
    every field whose flag was left unset keeps the config's default."""
    fields = {f.name for f in dataclasses.fields(cls)}
    return cls(**{**_given(args, fields), **extra})


def _write_artifact(path: str, text: str, note: Optional[str] = None) -> None:
    """Write *text* to *path*, creating its directory, then print the
    command's stderr *note*, if any."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    if note:
        print(note, file=sys.stderr)


def _print_metrics(args, payload: dict, title: str) -> None:
    """Print *payload* as JSON under ``--json``, else as a metric/value
    table titled *title* (``None`` shows as ``-``)."""
    if args.json:
        print(json.dumps(payload, indent=2))
        return
    from .harness.report import format_table

    print(format_table(
        ["metric", "value"],
        [[k, v if v is not None else "-"] for k, v in payload.items()],
        title=title,
    ))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dual-quorum replication (Middleware 2005) — experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, **kwargs) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, argument_default=argparse.SUPPRESS,
                                   formatter_class=_FlagMetavar, **kwargs)
        subparser.set_defaults(handler=handler)
        return subparser

    fig = command("figure", _cmd_figure,
                  help="regenerate a paper figure's series")
    fig.add_argument("name", choices=sorted(FIGURES))
    fig.add_argument("--ops", type=int,
                     help="operations per client (simulated figures)")
    fig.add_argument("--seed", type=int)
    fig.add_argument("--json", action="store_true", default=False,
                     help="emit JSON")
    fig.add_argument("--chart", action="store_true", default=False,
                     help="render an ASCII chart instead of a table")

    run = command(
        "run", _cmd_run, help="one response-time experiment",
        parents=[_scenario_parent(write_ratio=True, specs=True)],
    )
    run.add_argument("--locality", type=float)
    run.add_argument("--burst", dest="mean_write_burst", type=float,
                     help="mean write-burst length (default: iid stream)")
    run.add_argument("--json", action="store_true", default=False)

    cdn = command(
        "cdn", _cmd_cdn,
        help="edge-CDN scenario: aggregate client populations over a "
             "multi-region PoP topology",
    )
    cdn.add_argument("--protocol", choices=sorted(PROTOCOL_DEPLOYERS))
    cdn.add_argument("--seed", type=int)
    cdn.add_argument("--users", type=int,
                     help="modeled users (cost scales with users x rate, "
                          "never with users alone)")
    cdn.add_argument("--rate", dest="ops_per_user_per_s", type=float,
                     help="per-user requests per second")
    cdn.add_argument("--regions", type=int)
    cdn.add_argument("--pops-per-region", type=int)
    cdn.add_argument("--write-ratio", type=float)
    cdn.add_argument("--objects", dest="num_objects", type=int,
                     help="key-universe size (lazy; nothing materialised)")
    cdn.add_argument("--volumes", dest="num_volumes", type=int)
    cdn.add_argument("--zipf", dest="zipf_s", type=float)
    cdn.add_argument("--horizon-ms", type=float)
    cdn.add_argument("--issuers-per-pop", type=int,
                     help="bounded issuer coroutines per PoP")
    cdn.add_argument("--queue-limit", type=int)
    cdn.add_argument("--max-inflight", dest="fe_max_inflight", type=int,
                     help="per-PoP front-end admission cap (throttling)")
    cdn.add_argument("--balance", choices=["round_robin", "least_loaded"])
    cdn.add_argument("--arrivals", choices=["poisson", "mmpp"])
    cdn.add_argument("--flash-at-ms", dest="flash_start_ms", type=float,
                     help="flash-crowd start (default: none)")
    cdn.add_argument("--flash-peak", dest="flash_peak_multiplier",
                     type=float)
    cdn.add_argument("--diurnal-amplitude", type=float)
    cdn.add_argument("--diurnal-period-ms", type=float)
    cdn.add_argument("--iqs", dest="iqs_spec", metavar="SPEC",
                     help='declarative IQS quorum shape, e.g. '
                          '"grid:3x3" (dqvl-family protocols only)')
    cdn.add_argument("--oqs", dest="oqs_spec", metavar="SPEC",
                     help='declarative OQS quorum shape, e.g. "rowa"')
    cdn.add_argument("--trace", action="store_true",
                     help="span tracing + per-phase latency budgets")
    cdn.add_argument("--budget-out", default=None,
                     help="write the phase-budget JSON artifact here "
                          "(implies --trace)")
    cdn.add_argument("--json-out", default=None,
                     help="write the canonical result JSON here "
                          "(same-seed runs are byte-identical)")
    cdn.add_argument("--json", action="store_true", default=False)
    cdn.set_defaults(users=1_000_000)

    tune = command(
        "tune", _cmd_tune,
        help="autotune (IQS, OQS) quorum shapes: analytic Pareto "
             "frontier over latency/load/availability, optionally "
             "validated through the simulator",
    )
    tune.add_argument("--num-edges", "--edges", dest="num_edges", type=int,
                      help="IQS and OQS node count")
    tune.add_argument("--read-fraction", type=float)
    tune.add_argument("--p", type=float,
                      help="per-node unavailability for the "
                           "availability axis")
    tune.add_argument("--jitter-ms", type=float,
                      help="per-message uniform jitter (> 0 makes "
                           "quorum size matter for latency)")
    tune.add_argument("--seed", type=int)
    tune.add_argument("--validate-top", type=int, metavar="K",
                      help="cross-check the top K frontier entries "
                           "(plus the default pair) on the simulator")
    tune.add_argument("--ops", dest="ops_per_client", type=int,
                      help="ops per client in latency validation runs")
    tune.add_argument("--epochs", type=int,
                      help="epochs in availability validation runs")
    tune.add_argument("--workers", type=int, default=None)
    tune.add_argument("--json-out", default=None,
                      help="write the byte-stable Pareto-frontier JSON "
                           "artifact here (same config + code -> "
                           "identical bytes)")
    tune.add_argument("--json", action="store_true", default=False)

    avail = command("availability", _cmd_availability,
                    help="measured availability")
    avail.add_argument(
        "--protocol",
        choices=["dqvl", "majority", "rowa", "rowa_async",
                 "rowa_async_no_stale", "primary_backup"],
    )
    avail.add_argument("--write-ratio", type=float)
    avail.add_argument("--replicas", dest="num_replicas", type=int)
    avail.add_argument("--p", type=float)
    avail.add_argument("--epochs", type=int)
    avail.add_argument("--seed", type=int)
    avail.add_argument("--json", action="store_true", default=False)
    avail.set_defaults(p=0.15)

    sweep = command(
        "sweep", _cmd_sweep, help="cartesian sweep of write ratio x locality"
    )
    sweep.add_argument("--protocol", choices=sorted(PROTOCOL_DEPLOYERS))
    sweep.add_argument("--write-ratios", type=float, nargs="+",
                       default=[0.0, 0.05, 0.25, 0.5])
    sweep.add_argument("--localities", type=float, nargs="+", default=[1.0])
    sweep.add_argument("--ops", dest="ops_per_client", type=int)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--metric", choices=["overall", "read", "write", "msgs"],
                       default="overall")
    sweep.add_argument("--json", action="store_true", default=False)
    sweep.set_defaults(ops_per_client=120)

    report = command(
        "report", _cmd_report,
        help="regenerate every figure into one markdown report",
    )
    report.add_argument("--out", dest="out_path")
    report.add_argument("--ops", type=int)
    report.add_argument("--no-charts", dest="charts", action="store_false")
    report.add_argument("--figures", nargs="*",
                        help="subset of figures (default: all)")
    report.add_argument("--measured-availability", action="store_true",
                        help="include the simulated availability cross-check")

    chaos = command(
        "chaos", _cmd_chaos,
        help="randomized fault campaign with consistency + invariant checks",
        parents=[_scenario_parent(single_run=False, weaken=True, specs=True)],
    )
    chaos.add_argument("--protocols", default="dqvl",
                       help='comma-separated protocol list, or "all"')
    chaos.add_argument("--seeds", type=int, default=5,
                       help="number of seeds per protocol")
    chaos.add_argument("--seed-base", type=int, default=0,
                       help="first seed (campaign runs seed-base .. +seeds-1)")
    chaos.add_argument("--nemeses",
                       help='comma-separated nemesis list, or "all"')
    chaos.add_argument("--shrink", action="store_true", default=False,
                       help="minimize the first failing schedule and save a repro")
    chaos.add_argument("--corpus-dir", default="tests/chaos_corpus",
                       help="where --shrink writes the repro JSON")
    chaos.add_argument("--workers", type=int, default=None)
    chaos.add_argument("--json", action="store_true", default=False)
    chaos.add_argument("--trace", action="store_true",
                       help="export a span timeline per run (see --trace-dir)")
    chaos.add_argument("--trace-dir", default="chaos_traces",
                       help="where --trace writes JSONL + Chrome-trace files")
    chaos.add_argument("--frontend", dest="mode", action="store_const",
                       const="frontend",
                       help="drive clients through the edge front ends "
                            "(Figure 1's full path) instead of direct "
                            "service clients")
    chaos.add_argument("--resilience", action="store_true",
                       help="enable the adaptive resilience layer (failure "
                            "detectors, hedged QRPCs, degraded reads, "
                            "post-crash catch-up); implies "
                            "--frontend")

    explore = command(
        "explore", _cmd_explore,
        help="systematic schedule-space exploration (repro.mc model checker)",
        parents=[_scenario_parent(
            weaken=True,
            ops_help="operations per client (keep small: the state "
                     "space is what gets explored)",
        )],
    )
    explore.add_argument("--strategy", choices=["dfs", "walk"],
                         help="dfs: bounded depth-first over choice prefixes; "
                              "walk: seeded random walks (default)")
    explore.add_argument("--budget", type=int,
                         help="maximum schedules to execute")
    explore.add_argument("--p-deviate", type=float,
                         help="walk: per-decision deviation probability")
    explore.add_argument("--max-depth", type=int,
                         help="dfs: branch only on the first N decisions")
    explore.add_argument("--por", action=argparse.BooleanOptionalAction,
                         default=None,
                         help="partial-order reduction for the dfs strategy "
                              "(default: on when sweeping, off otherwise)")
    explore.add_argument("--sweep-edges", default=None, metavar="A:B",
                         help="explore once per cluster size A..B (smallest "
                              "first, stopping at the first witness)")
    explore.add_argument("--no-shrink", dest="shrink", action="store_false",
                         help="skip ddmin minimization of the witness")
    explore.add_argument("--save", action="store_true", default=False,
                         help="write the shrunk repro to --corpus-dir")
    explore.add_argument("--corpus-dir", default="tests/mc_corpus",
                         help="where --save writes the repro JSON")
    explore.add_argument("--json", action="store_true", default=False)

    trace = command(
        "trace", _cmd_trace,
        help="one traced run; exports a causal op→round→message timeline",
        parents=[_scenario_parent(
            write_ratio=True,
            ops_help="operations per client (small: traces are per-op)",
        )],
    )
    trace.add_argument("--locality", type=float)
    trace.add_argument("--export", choices=["chrome", "jsonl"], default="chrome",
                       help="chrome: Perfetto/chrome://tracing JSON; "
                            "jsonl: one record per line")
    trace.add_argument("--out", default=None,
                       help="output path (default: stdout)")
    trace.add_argument("--span-filter", default=None,
                       help="keep spans whose category or name matches "
                            "(subtrees of matches are retained)")
    trace.add_argument(
        "--partition", default=None, metavar="START:DUR",
        help="partition the first edge's server from the quorum peers for "
             "DUR ms starting at START ms (shows, e.g., a DQVL read miss "
             "stalling on validation)",
    )
    trace.set_defaults(write_ratio=0.2, ops_per_client=60)

    why = command(
        "why", _cmd_why,
        help="explain latency: per-op critical paths and phase budgets",
        parents=[_scenario_parent(
            write_ratio=True,
            ops_help="operations per client (small: traces are per-op)",
        )],
    )
    why.add_argument("--locality", type=float)
    why.add_argument("--top", type=int, default=5, metavar="N",
                     help="explain the N slowest operations")
    why.add_argument("--json", default=None, metavar="PATH",
                     help="also write the top-slow attribution as "
                          "deterministic JSON")
    why.add_argument("--budget-out", default=None, metavar="PATH",
                     help="write the phase x percentile budget table as JSON")
    why.add_argument("--check-conservation", action="store_true", default=False,
                     help="fail unless every op's phase durations sum to "
                          "its end-to-end latency within 1e-6")
    why.add_argument(
        "--partition", default=None, metavar="START:DUR",
        help="inject a partition fault window (same semantics as "
             "`repro trace --partition`)",
    )
    why.set_defaults(write_ratio=0.2, ops_per_client=60)

    command("protocols", _cmd_protocols, help="list available protocols")
    return parser


def _cmd_figure(args) -> int:
    from .harness.report import format_series

    given = _given(args, ("ops", "seed"))
    refused = [f"--{k}" for k in given if k not in signature(FIGURES[args.name]).parameters]
    if refused:  # an analytic figure
        raise ValueError(f"{args.name} is analytic and takes no {' or '.join(refused)}")
    x_label, x_values, series = generate_figure(args.name, **given)
    title = f"{args.name} (see EXPERIMENTS.md for the paper's claims)"
    if args.json:
        print(json.dumps(
            {"figure": args.name, "x_label": x_label,
             "x": list(x_values), "series": series},
            indent=2,
        ))
    elif args.chart:
        from .harness.charts import ascii_chart

        numeric_x = all(isinstance(x, (int, float)) for x in x_values)
        xs = list(x_values) if numeric_x else list(range(len(x_values)))
        log_y = args.name in ("fig8a", "fig8b")
        y_label = "unavail" if log_y else ("msgs" if args.name.startswith("fig9") else "ms")
        print(ascii_chart(
            xs, series, log_y=log_y, x_label=x_label, y_label=y_label, title=title,
        ))
        if not numeric_x:
            mapping = ", ".join(f"{i}={x}" for i, x in enumerate(x_values))
            print(f"   x axis: {mapping}")
    else:
        print(format_series(
            x_label, x_values, sorted(series.items()), title=title,
        ))
    return 0


def _cmd_run(args) -> int:
    from .harness.experiment import ExperimentConfig, run_response_time

    config = _config(ExperimentConfig, args)
    result = run_response_time(config)
    s = result.summary
    payload = {
        "protocol": config.protocol,
        "write_ratio": config.write_ratio,
        "locality": config.locality,
        "overall_ms": s.overall.mean,
        "read_ms": s.reads.mean,
        "write_ms": s.writes.mean,
        "p50_ms": s.overall.p50,
        "p95_ms": s.overall.p95,
        "p99_ms": s.overall.p99,
        "read_hit_rate": s.read_hit_rate,
        "messages_per_request": result.messages_per_request,
        "requests": result.total_requests,
    }
    _print_metrics(args, payload, f"{config.protocol}: response-time experiment")
    return 0


def _cmd_cdn(args) -> int:
    from .edge.cdn import CdnScenarioConfig, run_cdn

    if args.budget_out is not None:  # the budget is read off the trace
        args.trace = True
    config = _config(CdnScenarioConfig, args)
    result = run_cdn(config)
    s, stats = result.summary, result.stats
    arrivals = stats.arrivals
    payload = {
        "protocol": config.protocol,
        "users": config.users,
        "rate_per_user_per_s": config.ops_per_user_per_s,
        "pops": config.num_pops,
        "arrivals": arrivals,
        "completed": stats.completed,
        "failed": stats.failed,
        "dropped": stats.dropped,
        "queue_peak": stats.queue_peak,
        "read_ms": s.reads.mean,
        "write_ms": s.writes.mean,
        "p50_ms": s.overall.p50,
        "p95_ms": s.overall.p95,
        "p99_ms": s.overall.p99,
        "availability": s.availability,
        "events_processed": result.events_processed,
        "events_per_arrival": (
            result.events_processed / arrivals if arrivals else 0.0
        ),
        "sim_time_ms": result.sim_time_ms,
    }
    for key in ("reads_throttled", "writes_shed"):
        if result.fe_counters.get(key):
            payload[key] = result.fe_counters[key]
    if args.json_out:
        _write_artifact(args.json_out, result.to_json(),
                        f"canonical result written to {args.json_out}")
    if args.budget_out:
        _write_artifact(
            args.budget_out,
            json.dumps(result.budget, sort_keys=True, indent=2) + "\n",
            f"phase budget written to {args.budget_out}",
        )
    _print_metrics(
        args, payload,
        f"{config.protocol}: cdn scenario "
        f"({config.users:,} modeled users, {config.num_pops} PoPs)",
    )
    return 0


def _cmd_tune(args) -> int:
    from .harness.report import format_table
    from .tune import TuneConfig, run_tune

    config = _config(TuneConfig, args)
    report = run_tune(config, workers=args.workers)

    if args.json_out:
        _write_artifact(args.json_out, report.frontier_json(),
                        f"frontier artifact written to {args.json_out}")
    if args.json:
        print(json.dumps(report.to_json_obj(), indent=2))
        return 0

    def row(score, label=""):
        return [
            label or f"{score.iqs} | {score.oqs}",
            f"{score.latency_ms:.2f}",
            f"{score.load:.3f}",
            f"{score.availability:.6f}",
        ]

    header = ["iqs | oqs", "latency_ms", "load", "availability"]
    print(format_table(
        header,
        [row(s) for s in report.frontier],
        title=f"Pareto frontier ({report.num_candidates} candidates, "
              f"n={config.num_edges}, f={config.read_fraction}, "
              f"p={config.p})",
    ))
    print(format_table(
        header, [row(report.default, "default: majority | rowa")],
        title="paper default",
    ))
    if report.dominating:
        print(format_table(
            header + ["axes better"],
            [row(s) + [", ".join(axes)] for s, axes in report.dominating],
            title="candidates beating the default on >= 2 of 3 axes",
        ))
    else:
        print("no candidate beats the default on >= 2 of 3 axes")
    if report.validation:
        print(format_table(
            ["iqs | oqs", "lat model", "lat sim", "rel err",
             "av model", "av sim", "abs err", "ok"],
            [
                [
                    f"{v.iqs} | {v.oqs}",
                    f"{v.analytic_latency_ms:.2f}",
                    f"{v.simulated_latency_ms:.2f}",
                    f"{v.latency_rel_error:.3f}",
                    f"{v.analytic_availability:.5f}",
                    f"{v.simulated_availability:.5f}",
                    f"{v.availability_abs_error:+.5f}",
                    "yes" if v.ok else "NO",
                ]
                for v in report.validation
            ],
            title="analytic vs simulated cross-check",
        ))
        if not all(v.ok for v in report.validation):
            return 1
    return 0


def _cmd_availability(args) -> int:
    from .harness.availability import AvailabilitySimConfig, run_availability_sim

    config = _config(AvailabilitySimConfig, args)
    result = run_availability_sim(config)
    from .analysis.availability import protocol_unavailability

    analytic = protocol_unavailability(
        config.protocol, config.write_ratio, config.num_replicas, config.p
    )
    payload = {
        "protocol": config.protocol,
        "measured_unavailability": result.unavailability,
        "analytic_unavailability": analytic,
        "requests": result.total_requests,
        "rejected": result.rejected,
        "stale_rejected": result.stale_rejected,
    }
    _print_metrics(args, payload, f"{config.protocol}: measured availability")
    return 0


def _cmd_sweep(args) -> int:
    from .harness.experiment import ExperimentConfig
    from .harness.report import format_table
    from .harness.sweeps import run_sweep

    def metric_of(point):
        if args.metric == "overall":
            return point.summary.overall.mean
        if args.metric == "read":
            return point.summary.reads.mean
        if args.metric == "write":
            return point.summary.writes.mean
        return point.messages_per_request

    configs = [
        _config(ExperimentConfig, args, write_ratio=w, locality=locality)
        for locality in args.localities
        for w in args.write_ratios
    ]
    protocol = configs[0].protocol
    points = iter(run_sweep(configs))
    grid = {
        locality: [round(metric_of(next(points)), 2) for _ in args.write_ratios]
        for locality in args.localities
    }
    if args.json:
        print(json.dumps(
            {"protocol": protocol, "metric": args.metric,
             "write_ratios": args.write_ratios,
             "localities": args.localities,
             "grid": {str(k): v for k, v in grid.items()}},
            indent=2,
        ))
    else:
        rows = [[loc] + values for loc, values in grid.items()]
        print(format_table(
            ["locality \\ w"] + [str(w) for w in args.write_ratios],
            rows,
            title=f"{protocol}: {args.metric} over write ratio x locality",
        ))
    return 0


def _cmd_report(args) -> int:
    from .harness.report import generate_report

    path = generate_report(**_given(args, (
        "out_path", "ops", "charts", "figures", "measured_availability",
    )))
    print(f"report written to {path}")
    return 0


def _names(spec: str, known) -> List[str]:
    """A comma-separated name list, or every *known* name for ``all``."""
    return sorted(known) if spec == "all" else [n for n in spec.split(",") if n]


def _cmd_chaos(args) -> int:
    from .chaos import NEMESES
    from .chaos.campaign import ChaosRunConfig
    from .harness.report import format_table
    from .harness.sweeps import run_sweep

    # "0/0 runs clean" would pass a gate with nothing run
    require("seeds", args.seeds, 1)
    protocols = _names(args.protocols, PROTOCOL_DEPLOYERS)
    if not protocols:
        raise ValueError("--protocols names no protocol")
    if "nemeses" in args:
        args.nemeses = tuple(_names(args.nemeses, NEMESES))
    if "resilience" in args:  # degraded reads are served by the front ends
        args.mode = "frontend"
    configs = [_config(ChaosRunConfig, args, protocol=p, seed=args.seed_base + s)
               for p in protocols for s in range(args.seeds)]
    config = configs[0]  # what every run shares: the flags given
    points = run_sweep(configs, workers=args.workers)
    if config.trace:
        for p in points:
            stem = f"{p.config.protocol}_seed{p.config.seed}"
            if p.config.weaken:
                stem += f"_{p.config.weaken}"
            for suffix, text in (
                (".jsonl", p.trace_jsonl), (".chrome.json", p.trace_chrome)
            ):
                _write_artifact(os.path.join(args.trace_dir, stem + suffix), text)
        print(f"trace exports written to {args.trace_dir}/", file=sys.stderr)

    failing = [p for p in points if not p.ok]
    if args.json:
        print(json.dumps(
            [
                {
                    "protocol": p.config.protocol,
                    "seed": p.config.seed,
                    "weaken": p.config.weaken,
                    "violations": p.violations,
                    "stats": p.stats,
                    "schedule": p.schedule.to_json_obj(),
                }
                for p in points
            ],
            indent=2, default=repr,
        ))
    else:
        rows = []
        for p in points:
            types = ",".join(sorted({v["type"] for v in p.violations})) or "-"
            avail = p.stats.get("availability", {})
            rows.append([
                p.config.protocol, p.config.seed,
                p.stats["ops_recorded"], p.stats["ops_failed"],
                avail.get("reads_degraded", 0),
                len(p.violations), types,
            ])
        title = f"chaos campaign: nemeses {', '.join(config.nemeses)}"
        if config.weaken:
            title += f" (weakened: {config.weaken})"
        if config.resilience:
            title += " [resilience]"
        print(format_table(
            ["protocol", "seed", "ops", "rejected", "degraded",
             "violations", "types"],
            rows, title=title,
        ))
        print(f"{len(points) - len(failing)}/{len(points)} runs clean")

    if args.shrink and failing:
        from .chaos import save_repro, shrink_schedule

        first = failing[0]
        print(
            f"shrinking {first.config.protocol} seed {first.config.seed} "
            f"({len(first.schedule)} fault windows)..."
        )
        result = shrink_schedule(first.config, first.schedule)
        path = save_repro(result, args.corpus_dir)
        print(
            f"minimized to {len(result.shrunk)} fault window(s) in "
            f"{result.runs} runs; repro saved to {path}"
        )
    return 1 if failing else 0


def _cmd_explore(args) -> int:
    from .mc import McRunConfig, explore, explore_sweep_edges, save_mc_repro

    sweep = None
    if args.sweep_edges is not None:
        try:
            lo, hi = (int(x) for x in args.sweep_edges.split(":", 1))
            if not 1 <= lo <= hi:
                raise ValueError
        except ValueError:
            raise ValueError(
                "--sweep-edges wants A:B with 1 <= A <= B, e.g. 2:5"
            ) from None
        sweep = range(lo, hi + 1)
    por = args.por if args.por is not None else sweep is not None
    explore_kwargs = _given(
        args, ("strategy", "budget", "p_deviate", "max_depth", "shrink")
    )
    config = _config(McRunConfig, args)
    if sweep is not None:
        results = explore_sweep_edges(config, sweep, por=por, **explore_kwargs)
    else:
        results = [explore(config, por=por, **explore_kwargs)]
    # The interesting result is the last one: the only one a sweep lets
    # carry a witness, or the single exploration otherwise.
    result = results[-1]
    saved_path = None
    if args.save and result.witness is not None:
        saved_path = save_mc_repro(result, args.corpus_dir)

    label = config.protocol + (
        f" (weakened: {config.weaken})" if config.weaken else ""
    )
    if args.json:
        payload = {
            "protocol": config.protocol,
            "seed": config.seed,
            "weaken": config.weaken,
            "strategy": result.strategy,
            "runs": result.runs,
            "pruned": result.pruned,
            "por": por,
            "shrink_runs": result.shrink_runs,
            "ok": result.ok,
        }
        if sweep is not None:
            payload["sweep"] = [
                {"num_edges": r.config.num_edges, "runs": r.runs,
                 "pruned": r.pruned, "ok": r.ok}
                for r in results
            ]
        if result.shrunk is not None:
            payload.update({
                "violation_types": result.shrunk.expected_types,
                "deviations": result.shrunk.stats["deviations"],
                "choices": result.shrunk.choices,
                "violations": result.shrunk.violations,
            })
        if saved_path:
            payload["repro"] = saved_path
        print(json.dumps(payload, indent=2))
    elif result.ok:
        if sweep is not None:
            sizes = ", ".join(
                f"{r.config.num_edges} edges: {r.runs} runs"
                + (f" ({r.pruned} pruned)" if r.pruned else "")
                for r in results
            )
            print(f"{label}: no violation across the sweep — {sizes}")
        else:
            print(
                f"{label}: no violation in {result.runs} "
                f"{result.strategy} schedules"
                + (f" ({result.pruned} branches pruned)"
                   if result.pruned else "")
            )
    else:
        shrunk = result.shrunk
        print(
            label
            + (f" at {result.config.num_edges} edges"
               if sweep is not None else "")
            + f": VIOLATION after {result.runs} {result.strategy} schedule(s)"
        )
        print(
            f"  shrunk to {shrunk.stats['deviations']} scheduling deviation(s) "
            f"in {result.shrink_runs} runs; types: {shrunk.expected_types}"
        )
        for v in shrunk.violations[:3]:
            print(f"  - {v.get('type')}: {v.get('detail', '')}")
        if saved_path:
            print(f"  repro saved to {saved_path}")
    return 0 if result.ok else 1


def _partition_schedule(spec: Optional[str], config):
    """The shared ``--partition START:DUR`` fault schedule, or None.

    Raises ValueError, with the message to show, on a malformed spec.
    Cuts the first edge's server off from its quorum peers: for DQVL
    that severs oqs0 from every IQS node, so a read miss at oqs0 must
    retransmit its validation rounds until the window heals.
    """
    if spec is None:
        return None
    from .chaos.faults import Fault, FaultSchedule

    try:
        start_str, dur_str = spec.split(":", 1)
        start, duration = float(start_str), float(dur_str)
    except ValueError:
        raise ValueError(
            "--partition wants START:DUR in ms, e.g. 200:400"
        ) from None
    edges = range(config.num_edges)
    if config.protocol in DUAL_QUORUM:
        groups = (("oqs0",), tuple(f"iqs{k}" for k in edges))
    else:
        groups = (("srv0",), tuple(f"srv{k}" for k in edges[1:]))
    return FaultSchedule([
        Fault.make("partition", start=start, duration=duration,
                   groups=groups)
    ])


def _traced_run(args):
    """The traced run of ``trace``/``why``: its config, carrying the
    ``--partition`` schedule, and the run's observability."""
    from .harness.experiment import ExperimentConfig, run_response_time

    config = _config(ExperimentConfig, args, trace=True)
    config = dataclasses.replace(
        config, fault_schedule=_partition_schedule(args.partition, config)
    )
    obs = run_response_time(config).obs
    assert obs is not None
    return config, obs


def _cmd_trace(args) -> int:
    from .obs import spans_to_chrome, spans_to_jsonl

    config, obs = _traced_run(args)
    schedule = config.fault_schedule
    if args.export == "chrome":
        text = spans_to_chrome(obs.tracer, faults=schedule,
                               span_filter=args.span_filter)
    else:
        text = spans_to_jsonl(obs.tracer, faults=schedule,
                              span_filter=args.span_filter,
                              metrics=obs.metrics)
    if args.out:
        note = (f"{args.export} trace ({len(obs.tracer.spans)} spans, "
                f"{len(obs.tracer.events)} events) written to {args.out}")
        if args.export == "chrome":
            note += "\nopen it at https://ui.perfetto.dev or chrome://tracing"
        _write_artifact(args.out, text, note)
    else:
        print(text)
    return 0


def _cmd_why(args) -> int:
    from .obs import (attribute_op, build_index, format_attribution,
                      format_budget, latency_budget, top_slow_json)

    config, obs = _traced_run(args)
    tracer = obs.tracer

    index = build_index(tracer)
    attributions = [attribute_op(index, op) for op in index.root_ops()]
    if args.check_conservation:
        worst = max(
            (a.conservation_error for a in attributions), default=0.0
        )
        if worst > 1e-6:
            print(f"conservation check FAILED: max error {worst} ms",
                  file=sys.stderr)
            return 1
        print(
            f"conservation check passed: {len(attributions)} ops, "
            f"max |sum(phases) - latency| = {worst:g} ms"
        )

    slow = tracer.top_slow(args.top)
    if slow:
        print(f"top {len(slow)} slowest operations ({config.protocol}, "
              f"seed {config.seed}):")
        for op in slow:
            print(format_attribution(attribute_op(index, op)))
    else:
        print("no finished operation spans recorded")

    budget = latency_budget(attributions)
    print()
    print(format_budget(
        budget, title=f"latency budget ({config.protocol}, seed {config.seed})"
    ), end="")

    if args.json:
        _write_artifact(args.json, top_slow_json(tracer, n=args.top),
                        f"top-slow attribution written to {args.json}")
    if args.budget_out:
        _write_artifact(args.budget_out, budget.to_json(),
                        f"budget table written to {args.budget_out}")
    return 0


def _cmd_protocols(_args) -> int:
    from .chaos import NEMESES
    from .chaos.weaken import WEAKENERS

    print("response-time protocols:", ", ".join(sorted(PROTOCOL_DEPLOYERS)))
    print("figures:", ", ".join(sorted(FIGURES)))
    print("weakeners:", ", ".join(sorted(WEAKENERS)))
    print("nemeses:", ", ".join(sorted(NEMESES)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError) as exc:
        # a bad parameter, found by a config's validation or at run
        # time (e.g. a quorum spec that cannot be built over --edges)
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
