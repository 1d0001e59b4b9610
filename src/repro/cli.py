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

The ``run``/``chaos``/``explore``/``trace``/``why`` commands
share one set of scenario flags (one :func:`_scenario_parent` per
command, so defaults can differ); ``--num-edges``/``--edges`` and
``--num-clients``/``--clients`` are interchangeable spellings.  Their
handlers build the runner configs (``ExperimentConfig``,
``ChaosRunConfig``, ``McRunConfig``) straight from those flags; a flag
left unset keeps the runner's own default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .bounds import require
from .edge.deployments import DUAL_QUORUM, PROTOCOL_DEPLOYERS
from .harness.figures import FIGURES, generate_figure

__all__ = ["main", "build_parser"]


def _scenario_parent(
    *,
    ops: int,
    clients: int,
    edges: int,
    ops_help: str = "operations per client",
    protocol: bool = True,
    seed: bool = True,
    write_ratio: Optional[float] = None,
    weaken: bool = False,
    specs: bool = False,
) -> argparse.ArgumentParser:
    """One parent parser for the shared scenario flags.

    ``run``, ``chaos``, ``explore``, ``trace`` and the rest all accept
    the same spellings for the fields the runner configs share; only
    the *defaults* differ per command (e.g. ``run`` simulates 9
    edges where ``explore`` keeps the state space at 2), so each
    subcommand instantiates its own parent.  ``chaos`` spells protocol
    and seed as campaign-level flags (``--protocols``/``--seed-base``)
    and opts out of the single-run variants here.
    """
    parent = argparse.ArgumentParser(add_help=False)
    if protocol:
        parent.add_argument("--protocol", choices=sorted(PROTOCOL_DEPLOYERS),
                            default="dqvl")
    if seed:
        parent.add_argument("--seed", type=int, default=0)
    if write_ratio is not None:
        parent.add_argument("--write-ratio", type=float, default=write_ratio)
    parent.add_argument("--ops", type=int, default=ops, help=ops_help)
    parent.add_argument("--num-clients", "--clients", dest="clients",
                        type=int, default=clients)
    parent.add_argument("--num-edges", "--edges", dest="edges",
                        type=int, default=edges)
    parent.add_argument("--lease-length-ms", type=float, default=None,
                        help="volume lease length "
                             "(default: the runner's own default)")
    if weaken:
        parent.add_argument("--weaken", default="",
                            help="inject a named protocol bug "
                                 "(see `repro protocols` for names)")
    if specs:
        parent.add_argument("--iqs", metavar="SPEC", default=None,
                            help='declarative IQS quorum shape, e.g. '
                                 '"majority:r=2,w=4" or "grid:3x3" '
                                 '(dqvl-family protocols only)')
        parent.add_argument("--oqs", metavar="SPEC", default=None,
                            help='declarative OQS quorum shape, e.g. '
                                 '"rowa" or "majority:r=2,w=5"')
    return parent


def _experiment_config(args, **fields):
    """The :class:`ExperimentConfig` of ``run``/``trace``/``why``."""
    from .harness.experiment import ExperimentConfig

    return ExperimentConfig(
        protocol=args.protocol,
        seed=args.seed,
        write_ratio=args.write_ratio,
        locality=args.locality,
        num_edges=args.edges,
        num_clients=args.clients,
        ops_per_client=args.ops,
        lease_length_ms=args.lease_length_ms,
        iqs_spec=getattr(args, "iqs", None),
        oqs_spec=getattr(args, "oqs", None),
        **fields,
    )


def _lease_field(args) -> dict:
    """``--lease-length-ms`` for the runners whose lease default is not
    ``None`` (chaos, explore): set only when given."""
    if args.lease_length_ms is None:
        return {}
    return {"lease_length_ms": args.lease_length_ms}


def _print_metrics(args, payload: dict, title: str, **json_only) -> None:
    """Print *payload* as JSON under ``--json`` (with *json_only* added),
    else as a metric/value table titled *title* (``None`` shows as ``-``)."""
    if args.json:
        print(json.dumps(dict(payload, **json_only), indent=2))
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

    fig = sub.add_parser("figure", help="regenerate a paper figure's series")
    fig.add_argument("name", choices=sorted(FIGURES))
    fig.add_argument("--ops", type=int, default=150,
                     help="operations per client (simulated figures)")
    fig.add_argument("--seed", type=int, default=None)
    fig.add_argument("--json", action="store_true", help="emit JSON")
    fig.add_argument("--chart", action="store_true",
                     help="render an ASCII chart instead of a table")

    run = sub.add_parser(
        "run", help="one response-time experiment",
        parents=[_scenario_parent(write_ratio=0.05, ops=200,
                                  clients=3, edges=9, specs=True)],
    )
    run.add_argument("--locality", type=float, default=1.0)
    run.add_argument("--burst", type=float, default=None,
                     help="mean write-burst length (default: iid stream)")
    run.add_argument("--json", action="store_true")

    cdn = sub.add_parser(
        "cdn",
        help="edge-CDN scenario: aggregate client populations over a "
             "multi-region PoP topology",
    )
    cdn.add_argument("--protocol", choices=sorted(PROTOCOL_DEPLOYERS),
                     default="dqvl")
    cdn.add_argument("--seed", type=int, default=0)
    cdn.add_argument("--users", type=int, default=1_000_000,
                     help="modeled users (cost scales with users x rate, "
                          "never with users alone)")
    cdn.add_argument("--rate", type=float, default=0.01,
                     help="per-user requests per second")
    cdn.add_argument("--regions", type=int, default=2)
    cdn.add_argument("--pops-per-region", type=int, default=2)
    cdn.add_argument("--write-ratio", type=float, default=0.05)
    cdn.add_argument("--objects", type=int, default=100_000,
                     help="key-universe size (lazy; nothing materialised)")
    cdn.add_argument("--volumes", type=int, default=1_000)
    cdn.add_argument("--zipf", type=float, default=0.9)
    cdn.add_argument("--horizon-ms", type=float, default=2_000.0)
    cdn.add_argument("--issuers-per-pop", type=int, default=8,
                     help="bounded issuer coroutines per PoP")
    cdn.add_argument("--queue-limit", type=int, default=256)
    cdn.add_argument("--max-inflight", type=int, default=None,
                     help="per-PoP front-end admission cap (throttling)")
    cdn.add_argument("--balance", choices=["round_robin", "least_loaded"],
                     default="least_loaded")
    cdn.add_argument("--arrivals", choices=["poisson", "mmpp"],
                     default="poisson")
    cdn.add_argument("--flash-at-ms", type=float, default=None,
                     help="flash-crowd start (default: none)")
    cdn.add_argument("--flash-peak", type=float, default=5.0)
    cdn.add_argument("--diurnal-amplitude", type=float, default=0.0)
    cdn.add_argument("--diurnal-period-ms", type=float, default=60_000.0)
    cdn.add_argument("--iqs", metavar="SPEC", default=None,
                     help='declarative IQS quorum shape, e.g. '
                          '"grid:3x3" (dqvl-family protocols only)')
    cdn.add_argument("--oqs", metavar="SPEC", default=None,
                     help='declarative OQS quorum shape, e.g. "rowa"')
    cdn.add_argument("--trace", action="store_true",
                     help="span tracing + per-phase latency budgets")
    cdn.add_argument("--budget-out", default=None,
                     help="write the phase-budget JSON artifact here "
                          "(implies --trace)")
    cdn.add_argument("--json-out", default=None,
                     help="write the canonical result JSON here "
                          "(same-seed runs are byte-identical)")
    cdn.add_argument("--json", action="store_true")

    tune = sub.add_parser(
        "tune",
        help="autotune (IQS, OQS) quorum shapes: analytic Pareto "
             "frontier over latency/load/availability, optionally "
             "validated through the simulator",
    )
    tune.add_argument("--num-edges", "--edges", dest="edges", type=int,
                      default=5, help="IQS and OQS node count")
    tune.add_argument("--read-fraction", type=float, default=0.9)
    tune.add_argument("--p", type=float, default=0.05,
                      help="per-node unavailability for the "
                           "availability axis")
    tune.add_argument("--jitter-ms", type=float, default=5.0,
                      help="per-message uniform jitter (> 0 makes "
                           "quorum size matter for latency)")
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--validate-top", type=int, default=0, metavar="K",
                      help="cross-check the top K frontier entries "
                           "(plus the default pair) on the simulator")
    tune.add_argument("--ops", type=int, default=150,
                      help="ops per client in latency validation runs")
    tune.add_argument("--epochs", type=int, default=150,
                      help="epochs in availability validation runs")
    tune.add_argument("--workers", type=int, default=None)
    tune.add_argument("--json-out", default=None,
                      help="write the byte-stable Pareto-frontier JSON "
                           "artifact here (same config + code -> "
                           "identical bytes)")
    tune.add_argument("--json", action="store_true")

    avail = sub.add_parser("availability", help="measured availability")
    avail.add_argument(
        "--protocol",
        choices=["dqvl", "majority", "rowa", "rowa_async",
                 "rowa_async_no_stale", "primary_backup"],
        default="dqvl",
    )
    avail.add_argument("--write-ratio", type=float, default=0.25)
    avail.add_argument("--replicas", type=int, default=5)
    avail.add_argument("--p", type=float, default=0.15)
    avail.add_argument("--epochs", type=int, default=200)
    avail.add_argument("--seed", type=int, default=0)
    avail.add_argument("--json", action="store_true")

    sweep = sub.add_parser(
        "sweep", help="cartesian sweep of write ratio x locality"
    )
    sweep.add_argument("--protocol", choices=sorted(PROTOCOL_DEPLOYERS), default="dqvl")
    sweep.add_argument("--write-ratios", type=float, nargs="+",
                       default=[0.0, 0.05, 0.25, 0.5])
    sweep.add_argument("--localities", type=float, nargs="+", default=[1.0])
    sweep.add_argument("--ops", type=int, default=120)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--metric", choices=["overall", "read", "write", "msgs"],
                       default="overall")
    sweep.add_argument("--json", action="store_true")

    report = sub.add_parser(
        "report", help="regenerate every figure into one markdown report"
    )
    report.add_argument("--out", default="results/REPORT.md")
    report.add_argument("--ops", type=int, default=150)
    report.add_argument("--no-charts", action="store_true")
    report.add_argument("--figures", nargs="*", default=None,
                        help="subset of figures (default: all)")
    report.add_argument("--measured-availability", action="store_true",
                        help="include the simulated availability cross-check")

    chaos = sub.add_parser(
        "chaos",
        help="randomized fault campaign with consistency + invariant checks",
        parents=[_scenario_parent(protocol=False, seed=False, weaken=True,
                                  ops=40, clients=3, edges=3, specs=True)],
    )
    chaos.add_argument("--protocols", default="dqvl",
                       help='comma-separated protocol list, or "all"')
    chaos.add_argument("--seeds", type=int, default=5,
                       help="number of seeds per protocol")
    chaos.add_argument("--seed-base", type=int, default=0,
                       help="first seed (campaign runs seed-base .. +seeds-1)")
    chaos.add_argument("--nemeses",
                       default="crash_storm,rolling_partition,loss_burst",
                       help='comma-separated nemesis list, or "all"')
    chaos.add_argument("--shrink", action="store_true",
                       help="minimize the first failing schedule and save a repro")
    chaos.add_argument("--corpus-dir", default="tests/chaos_corpus",
                       help="where --shrink writes the repro JSON")
    chaos.add_argument("--workers", type=int, default=None)
    chaos.add_argument("--json", action="store_true")
    chaos.add_argument("--trace", action="store_true",
                       help="export a span timeline per run (see --trace-dir)")
    chaos.add_argument("--trace-dir", default="results/chaos_traces",
                       help="where --trace writes JSONL + Chrome-trace files")
    chaos.add_argument("--frontend", action="store_true",
                       help="drive clients through the edge front ends "
                            "(Figure 1's full path) instead of direct "
                            "service clients")
    chaos.add_argument("--resilience", action="store_true",
                       help="enable the adaptive resilience layer (failure "
                            "detectors, hedged QRPCs, degraded reads, "
                            "post-crash catch-up); implies "
                            "--frontend")

    explore = sub.add_parser(
        "explore",
        help="systematic schedule-space exploration (repro.mc model checker)",
        parents=[_scenario_parent(
            weaken=True, ops=6, clients=2, edges=2,
            ops_help="operations per client (keep small: the state "
                     "space is what gets explored)",
        )],
    )
    explore.add_argument("--strategy", choices=["dfs", "walk"], default="walk",
                         help="dfs: bounded depth-first over choice prefixes; "
                              "walk: seeded random walks (default)")
    explore.add_argument("--budget", type=int, default=500,
                         help="maximum schedules to execute")
    explore.add_argument("--p-deviate", type=float, default=0.15,
                         help="walk: per-decision deviation probability")
    explore.add_argument("--max-depth", type=int, default=40,
                         help="dfs: branch only on the first N decisions")
    explore.add_argument("--por", action=argparse.BooleanOptionalAction,
                         default=None,
                         help="partial-order reduction for the dfs strategy "
                              "(default: on when sweeping, off otherwise)")
    explore.add_argument("--sweep-edges", default=None, metavar="A:B",
                         help="explore once per cluster size A..B (smallest "
                              "first, stopping at the first witness)")
    explore.add_argument("--no-shrink", action="store_true",
                         help="skip ddmin minimization of the witness")
    explore.add_argument("--save", action="store_true",
                         help="write the shrunk repro to --corpus-dir")
    explore.add_argument("--corpus-dir", default="tests/mc_corpus",
                         help="where --save writes the repro JSON")
    explore.add_argument("--json", action="store_true")

    trace = sub.add_parser(
        "trace",
        help="one traced run; exports a causal op→round→message timeline",
        parents=[_scenario_parent(
            write_ratio=0.2, ops=60, clients=3, edges=9,
            ops_help="operations per client (small: traces are per-op)",
        )],
    )
    trace.add_argument("--locality", type=float, default=1.0)
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

    why = sub.add_parser(
        "why",
        help="explain latency: per-op critical paths and phase budgets",
        parents=[_scenario_parent(
            write_ratio=0.2, ops=60, clients=3, edges=9,
            ops_help="operations per client (small: traces are per-op)",
        )],
    )
    why.add_argument("--locality", type=float, default=1.0)
    why.add_argument("--top", type=int, default=5, metavar="N",
                     help="explain the N slowest operations")
    why.add_argument("--json", default=None, metavar="PATH",
                     help="also write the top-slow attribution as "
                          "deterministic JSON")
    why.add_argument("--budget-out", default=None, metavar="PATH",
                     help="write the phase x percentile budget table as JSON")
    why.add_argument("--check-conservation", action="store_true",
                     help="fail unless every op's phase durations sum to "
                          "its end-to-end latency within 1e-6")
    why.add_argument(
        "--partition", default=None, metavar="START:DUR",
        help="inject a partition fault window (same semantics as "
             "`repro trace --partition`)",
    )

    sub.add_parser("protocols", help="list available protocols")
    return parser


def _cmd_figure(args) -> int:
    from .harness.report import format_series

    kwargs = {}
    if args.name in ("fig6a", "fig6b", "fig7a", "fig7b"):
        kwargs["ops"] = args.ops
        if args.seed is not None:
            kwargs["seed"] = args.seed
    x_label, x_values, series = generate_figure(args.name, **kwargs)
    title = f"{args.name} (see EXPERIMENTS.md for the paper's claims)"
    if args.json:
        print(json.dumps(
            {"figure": args.name, "x_label": x_label,
             "x": list(x_values), "series": series},
            indent=2,
        ))
    elif getattr(args, "chart", False):
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
    from .harness.experiment import run_response_time

    config = _experiment_config(args, mean_write_burst=args.burst)
    result = run_response_time(config)
    s = result.summary
    payload = {
        "protocol": args.protocol,
        "write_ratio": args.write_ratio,
        "locality": args.locality,
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
    _print_metrics(args, payload, f"{args.protocol}: response-time experiment")
    return 0


def _cmd_cdn(args) -> int:
    from .edge.cdn import CdnScenarioConfig, run_cdn

    config = CdnScenarioConfig(
        protocol=args.protocol,
        seed=args.seed,
        users=args.users,
        ops_per_user_per_s=args.rate,
        regions=args.regions,
        pops_per_region=args.pops_per_region,
        write_ratio=args.write_ratio,
        num_objects=args.objects,
        num_volumes=args.volumes,
        zipf_s=args.zipf,
        horizon_ms=args.horizon_ms,
        issuers_per_pop=args.issuers_per_pop,
        queue_limit=args.queue_limit,
        fe_max_inflight=args.max_inflight,
        balance=args.balance,
        arrivals=args.arrivals,
        flash_start_ms=args.flash_at_ms,
        flash_peak_multiplier=args.flash_peak,
        diurnal_amplitude=args.diurnal_amplitude,
        diurnal_period_ms=args.diurnal_period_ms,
        iqs_spec=args.iqs,
        oqs_spec=args.oqs,
        trace=args.trace or args.budget_out is not None,
    )
    result = run_cdn(config)
    s, stats = result.summary, result.stats
    arrivals = stats.arrivals
    payload = {
        "protocol": args.protocol,
        "users": args.users,
        "rate_per_user_per_s": args.rate,
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
        os.makedirs(os.path.dirname(args.json_out) or ".", exist_ok=True)
        with open(args.json_out, "w") as fh:
            fh.write(result.to_json())
        print(f"canonical result written to {args.json_out}", file=sys.stderr)
    if args.budget_out:
        os.makedirs(os.path.dirname(args.budget_out) or ".", exist_ok=True)
        with open(args.budget_out, "w") as fh:
            json.dump(result.budget, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"phase budget written to {args.budget_out}", file=sys.stderr)
    _print_metrics(
        args, payload,
        f"{args.protocol}: cdn scenario "
        f"({args.users:,} modeled users, {config.num_pops} PoPs)",
    )
    return 0


def _cmd_tune(args) -> int:
    from .harness.report import format_table
    from .tune import TuneConfig, run_tune

    config = TuneConfig(
        num_edges=args.edges,
        read_fraction=args.read_fraction,
        p=args.p,
        jitter_ms=args.jitter_ms,
        seed=args.seed,
        validate_top=args.validate_top,
        ops_per_client=args.ops,
        epochs=args.epochs,
    )
    report = run_tune(config, workers=args.workers)

    if args.json_out:
        os.makedirs(os.path.dirname(args.json_out) or ".", exist_ok=True)
        with open(args.json_out, "w") as fh:
            fh.write(report.frontier_json())
        print(f"frontier artifact written to {args.json_out}",
              file=sys.stderr)
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

    config = AvailabilitySimConfig(
        protocol=args.protocol,
        write_ratio=args.write_ratio,
        num_replicas=args.replicas,
        p=args.p,
        epochs=args.epochs,
        seed=args.seed,
    )
    result = run_availability_sim(config)
    from .analysis.availability import protocol_unavailability

    analytic = protocol_unavailability(
        args.protocol, args.write_ratio, args.replicas, args.p
    )
    payload = {
        "protocol": args.protocol,
        "measured_unavailability": result.unavailability,
        "analytic_unavailability": analytic,
        "requests": result.total_requests,
        "rejected": result.rejected,
        "stale_rejected": result.stale_rejected,
    }
    _print_metrics(args, payload, f"{args.protocol}: measured availability")
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
        ExperimentConfig(
            protocol=args.protocol,
            write_ratio=w,
            locality=locality,
            ops_per_client=args.ops,
            seed=args.seed,
        )
        for locality in args.localities
        for w in args.write_ratios
    ]
    points = iter(run_sweep(configs))
    grid = {
        locality: [round(metric_of(next(points)), 2) for _ in args.write_ratios]
        for locality in args.localities
    }
    if args.json:
        print(json.dumps(
            {"protocol": args.protocol, "metric": args.metric,
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
            title=f"{args.protocol}: {args.metric} over write ratio x locality",
        ))
    return 0


def _cmd_report(args) -> int:
    from .harness.report import generate_report

    path = generate_report(
        out_path=args.out,
        ops=args.ops,
        charts=not args.no_charts,
        figures=args.figures,
        measured_availability=args.measured_availability,
    )
    print(f"report written to {path}")
    return 0


def _cmd_chaos(args) -> int:
    from .chaos import NEMESES
    from .chaos.campaign import ChaosRunConfig, run_campaign
    from .harness.report import format_table

    # "0/0 runs clean" would pass a gate with nothing run
    require("seeds", args.seeds, 1)
    protocols = (
        sorted(PROTOCOL_DEPLOYERS)
        if args.protocols == "all"
        else [p for p in args.protocols.split(",") if p]
    )
    nemeses = tuple(
        sorted(NEMESES)
        if args.nemeses == "all"
        else [n for n in args.nemeses.split(",") if n]
    )
    mode = "frontend" if (args.frontend or args.resilience) else "direct"
    configs = [
        ChaosRunConfig(
            protocol=protocol, seed=args.seed_base + s,
            num_edges=args.edges, num_clients=args.clients,
            ops_per_client=args.ops, weaken=args.weaken,
            iqs_spec=args.iqs, oqs_spec=args.oqs,
            nemeses=nemeses, trace=args.trace, mode=mode,
            resilience=args.resilience, **_lease_field(args),
        )
        for protocol in protocols
        for s in range(args.seeds)
    ]
    points = run_campaign(configs, workers=args.workers)
    if args.trace:
        import os

        os.makedirs(args.trace_dir, exist_ok=True)
        for p in points:
            stem = f"{p.config.protocol}_seed{p.config.seed}"
            if p.config.weaken:
                stem += f"_{p.config.weaken}"
            for suffix, text in (
                (".jsonl", p.trace_jsonl), (".chrome.json", p.trace_chrome)
            ):
                if text is None:
                    continue
                with open(os.path.join(args.trace_dir, stem + suffix), "w") as fh:
                    fh.write(text)
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
        title = f"chaos campaign: nemeses {', '.join(nemeses)}"
        if args.weaken:
            title += f" (weakened: {args.weaken})"
        if args.resilience:
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
    explore_kwargs = dict(
        strategy=args.strategy,
        budget=args.budget,
        p_deviate=args.p_deviate,
        max_depth=args.max_depth,
        shrink=not args.no_shrink,
    )
    config = McRunConfig(
        protocol=args.protocol, seed=args.seed, weaken=args.weaken,
        num_edges=args.edges, num_clients=args.clients,
        ops_per_client=args.ops, **_lease_field(args),
    )
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

    if args.json:
        payload = {
            "protocol": args.protocol,
            "seed": args.seed,
            "weaken": args.weaken,
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
        label = args.protocol + (
            f" (weakened: {args.weaken})" if args.weaken else ""
        )
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
            f"{args.protocol}"
            + (f" (weakened: {args.weaken})" if args.weaken else "")
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


def _partition_schedule(args):
    """The shared ``--partition START:DUR`` fault schedule, or None.

    Raises ValueError, with the message to show, on a malformed spec.
    Cuts the first edge's server off from its quorum peers: for DQVL
    that severs oqs0 from every IQS node, so a read miss at oqs0 must
    retransmit its validation rounds until the window heals.
    """
    if args.partition is None:
        return None
    from .chaos.faults import Fault, FaultSchedule

    try:
        start_str, dur_str = args.partition.split(":", 1)
        start, duration = float(start_str), float(dur_str)
    except ValueError:
        raise ValueError(
            "--partition wants START:DUR in ms, e.g. 200:400"
        ) from None
    if args.protocol in DUAL_QUORUM:
        groups = (("oqs0",), tuple(f"iqs{k}" for k in range(args.edges)))
    else:
        groups = (("srv0",), tuple(f"srv{k}" for k in range(1, args.edges)))
    return FaultSchedule([
        Fault.make("partition", start=start, duration=duration,
                   groups=groups)
    ])


def _cmd_trace(args) -> int:
    from .harness.experiment import run_response_time
    from .obs import spans_to_chrome, spans_to_jsonl

    schedule = _partition_schedule(args)
    config = _experiment_config(args, trace=True, fault_schedule=schedule)
    result = run_response_time(config)
    obs = result.obs
    assert obs is not None
    if args.export == "chrome":
        text = spans_to_chrome(obs.tracer, faults=schedule,
                               span_filter=args.span_filter)
    else:
        text = spans_to_jsonl(obs.tracer, faults=schedule,
                              span_filter=args.span_filter,
                              metrics=obs.metrics)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(
            f"{args.export} trace ({len(obs.tracer.spans)} spans, "
            f"{len(obs.tracer.events)} events) written to {args.out}",
            file=sys.stderr,
        )
        if args.export == "chrome":
            print("open it at https://ui.perfetto.dev or chrome://tracing",
                  file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_why(args) -> int:
    from .harness.experiment import run_response_time
    from .obs import (
        attribute_op,
        build_index,
        format_attribution,
        format_budget,
        latency_budget,
        top_slow_json,
    )

    schedule = _partition_schedule(args)
    config = _experiment_config(args, trace=True, fault_schedule=schedule)
    result = run_response_time(config)
    obs = result.obs
    assert obs is not None
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
        print(f"top {len(slow)} slowest operations ({args.protocol}, "
              f"seed {args.seed}):")
        for op in slow:
            print(format_attribution(attribute_op(index, op)))
    else:
        print("no finished operation spans recorded")

    budget = latency_budget(attributions)
    print()
    print(format_budget(
        budget, title=f"latency budget ({args.protocol}, seed {args.seed})"
    ), end="")

    if args.json:
        with open(args.json, "w") as fh:
            fh.write(top_slow_json(tracer, n=args.top))
        print(f"top-slow attribution written to {args.json}",
              file=sys.stderr)
    if args.budget_out:
        with open(args.budget_out, "w") as fh:
            fh.write(budget.to_json())
        print(f"budget table written to {args.budget_out}",
              file=sys.stderr)
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
    handlers = {
        "figure": _cmd_figure,
        "run": _cmd_run,
        "cdn": _cmd_cdn,
        "tune": _cmd_tune,
        "availability": _cmd_availability,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "chaos": _cmd_chaos,
        "explore": _cmd_explore,
        "trace": _cmd_trace,
        "why": _cmd_why,
        "protocols": _cmd_protocols,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, KeyError) as exc:
        # a bad parameter, found by a config's validation or at run
        # time (e.g. a quorum spec that cannot be built over --edges)
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
