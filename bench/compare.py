"""``bench/run.py --compare BASE.json NEW.json``: the regression table.

Both files are ``bench/out/latest.json``-shaped results of full suite
runs.  Host metrics (wall clock, memory) are compared by their medians
against the bound ``BENCHMARK.json`` fixes for them; simulated numbers
repeat exactly for one seed and scale, so they are compared for
equality and the first difference is printed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = ["compare", "is_host_metric", "spread"]

_HOST_PER_LAYER = frozenset({
    "sim.kernel.host_us_per_event", "dqvl_cost_vs_majority",
    "edge.deployments.deploy_ms", "harness.summarize_s",
    "consistency.check_us_per_op", "mc.schedules_per_s", "trace_overhead_ratio",
    "host.slowdown",
})


def is_host_metric(name: str) -> bool:
    """Host metrics are measured on the wall clock (or by the sampler) and
    are noisy; everything else is simulated and repeats exactly."""
    return (
        name in _HOST_PER_LAYER
        or name in ("ops_per_s", "setup_s", "peak_rss_mb")
        or name.endswith(".self_share")
        or name.startswith("phase.")
        or (name.startswith("protocols.") and name.endswith(".ops_per_s"))
    )


def spread(stat: Dict[str, float]) -> float:
    """Run-to-run quartile spread as a share of the median."""
    return (stat["q3"] - stat["q1"]) / stat["median"] if stat["median"] else 0.0


def _worsening(base: float, new: float, better: str) -> float:
    """By what share of *base* did the metric get worse (negative: better)."""
    if not base:
        return 0.0
    change = (new - base) / base
    return -change if better == "higher" else change


def _sim_numbers(run: Dict[str, Any]) -> Dict[str, Any]:
    """Everything simulated in one workload's result: the signature plus
    the sim-kind entries of the per-layer ledger."""
    numbers = dict(run["signature"])
    numbers.update(
        (name, value) for name, value in run["per_layer"].items()
        if not is_host_metric(name)
    )
    return numbers


def compare(base: Dict[str, Any], new: Dict[str, Any],
            end_to_end: List[Dict[str, Any]]) -> Tuple[List[str], bool]:
    """Render the comparison; returns ``(lines, regressed_or_differs)``.

    Raises ``ValueError`` when the two files did not measure the same
    thing (scale, seed or workload set differ).
    """
    for key in ("scale", "seed"):
        if base[key] != new[key]:
            raise ValueError(
                f"refusing to compare: {key} differs ({base[key]!r} vs {new[key]!r})"
            )
    if sorted(base["workloads"]) != sorted(new["workloads"]):
        raise ValueError(
            "refusing to compare: workload sets differ "
            f"({sorted(base['workloads'])} vs {sorted(new['workloads'])})"
        )

    lines = [
        f"{'workload':<18} {'metric':<12} {'base':>12} {'new':>12} "
        f"{'ratio':>7}  verdict"
    ]
    bad = False
    for workload in base["workloads"]:
        old_run, new_run = base["workloads"][workload], new["workloads"][workload]
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            old, cur = old_run["end_to_end"][name], new_run["end_to_end"][name]
            if max(spread(old), spread(cur)) > bound:
                verdict = "unresolved"
            elif _worsening(old["median"], cur["median"], metric["better"]) > bound:
                verdict = "regressed"
                bad = True
            else:
                verdict = "ok"
            ratio = cur["median"] / old["median"] if old["median"] else float("nan")
            lines.append(
                f"{workload:<18} {name:<12} {old['median']:>12.4f} "
                f"{cur['median']:>12.4f} {ratio:>7.3f}  {verdict}"
            )

    for workload in base["workloads"]:
        old_sim = _sim_numbers(base["workloads"][workload])
        new_sim = _sim_numbers(new["workloads"][workload])
        differing = [
            key for key in sorted(set(old_sim) | set(new_sim))
            if old_sim.get(key) != new_sim.get(key)
        ]
        if differing:
            key = differing[0]
            lines.append(
                f"sim metrics differ, first on {workload}: {key} "
                f"{old_sim.get(key)!r} -> {new_sim.get(key)!r} "
                f"({len(differing)} differing on this workload)"
            )
            bad = True
            break
    else:
        lines.append("sim metrics: identical on every workload")
    return lines, bad
