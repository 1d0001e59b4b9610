"""Perf-trajectory tracking: phase-level latency regression detection.

A **trajectory point** is the per-workload, per-group, per-phase mean
latency of the canonical attribution workloads — small, fully
deterministic traced runs (fixed seed, fixed op mix, simulated time
only), so a point depends on the *code*, never on the machine or the
wall clock: recording the same tree twice yields byte-identical JSON.

``BENCH_latency.json`` holds the committed history (a list of points,
newest last).  The CI gate re-measures the canonical workloads and
compares each attributed phase against the last committed point:

* a phase **regresses** when its mean grows by more than
  ``threshold`` (default 20%) *and* by more than ``floor_ms``
  (default 0.5 ms — sub-bucket jitter on near-zero phases is noise,
  not regression);
* phases that disappear or shrink never fail the gate (improvements
  are recorded, not punished);
* a brand-new workload/group/phase passes (there is nothing to
  regress against) and enters the history on the next ``--record``.

``repro why --gate`` runs the comparison; ``repro why --record``
appends the current measurement to the history.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, NamedTuple, Optional

__all__ = [
    "CANONICAL_WORKLOADS",
    "Regression",
    "measure_workloads",
    "load_history",
    "record_point",
    "compare_to_last",
    "format_regressions",
    "DEFAULT_HISTORY_PATH",
]

DEFAULT_HISTORY_PATH = "BENCH_latency.json"

#: the canonical deterministic workloads: (name, protocol, write_ratio)
#: — seed 0, 2 clients × 40 ops on 3 edges, locality 1.0, traced
CANONICAL_WORKLOADS = (
    ("dqvl", "dqvl", 0.2),
    ("majority", "majority", 0.2),
)


class Regression(NamedTuple):
    workload: str
    group: str
    phase: str
    before_ms: float
    after_ms: float

    @property
    def ratio(self) -> float:
        return self.after_ms / self.before_ms if self.before_ms else float("inf")


def measure_workloads(
    workloads=CANONICAL_WORKLOADS,
    *,
    ops: int = 40,
    clients: int = 2,
    edges: int = 3,
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Run the canonical workloads traced and return the trajectory
    point: workload → op group → phase → mean milliseconds.

    Everything is simulated time under a fixed seed, so the result is a
    pure function of the repository's code.
    """
    from ..harness.experiment import ExperimentConfig, run_response_time
    from .budget import latency_budget
    from .critpath import attribute_trace

    point: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name, protocol, write_ratio in workloads:
        config = ExperimentConfig(
            protocol=protocol,
            seed=seed,
            write_ratio=write_ratio,
            ops_per_client=ops,
            num_clients=clients,
            num_edges=edges,
            locality=1.0,
            trace=True,
        )
        result = run_response_time(config)
        obs = result.obs
        assert obs is not None, "traced run must attach Observability"
        budget = latency_budget(attribute_trace(obs.tracer))
        groups: Dict[str, Dict[str, float]] = {}
        for group in sorted(budget.groups):
            phases = budget.groups[group]
            groups[group] = {
                phase: hist.mean
                for phase, hist in sorted(phases.items())
            }
        point[name] = groups
    return point


def load_history(path: str = DEFAULT_HISTORY_PATH) -> List[Dict[str, Any]]:
    """The committed trajectory points, oldest first ([] when absent)."""
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        doc = json.load(fh)
    return doc.get("points", [])


def record_point(
    point: Dict[str, Dict[str, Dict[str, float]]],
    path: str = DEFAULT_HISTORY_PATH,
    *,
    label: Optional[str] = None,
    keep: int = 20,
) -> str:
    """Append *point* to the history at *path* (bounded to *keep*
    entries) and rewrite it with sorted keys — re-recording an
    identical measurement yields a byte-identical file."""
    points = load_history(path)
    entry: Dict[str, Any] = {"workloads": point}
    if label:
        entry["label"] = label
    points.append(entry)
    doc = {"version": 1, "points": points[-keep:]}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def compare_to_last(
    point: Dict[str, Dict[str, Dict[str, float]]],
    history: List[Dict[str, Any]],
    *,
    threshold: float = 0.20,
    floor_ms: float = 0.5,
) -> List[Regression]:
    """Phases of *point* that regressed versus the last history entry.

    A phase fails when it grew by more than *threshold* (relative) AND
    more than *floor_ms* (absolute).  Empty history → no regressions.
    """
    if not history:
        return []
    last = history[-1].get("workloads", {})
    regressions: List[Regression] = []
    for workload in sorted(point):
        baseline_groups = last.get(workload)
        if baseline_groups is None:
            continue
        for group in sorted(point[workload]):
            baseline_phases = baseline_groups.get(group)
            if baseline_phases is None:
                continue
            for phase in sorted(point[workload][group]):
                after = point[workload][group][phase]
                before = baseline_phases.get(phase)
                if before is None:
                    continue
                if after - before > floor_ms and after > before * (1 + threshold):
                    regressions.append(Regression(
                        workload=workload, group=group, phase=phase,
                        before_ms=before, after_ms=after,
                    ))
    return regressions


def format_regressions(regressions: List[Regression]) -> str:
    if not regressions:
        return "latency trajectory: no phase regressions\n"
    lines = [f"latency trajectory: {len(regressions)} phase regression(s)"]
    for r in regressions:
        lines.append(
            f"  {r.workload}/{r.group}/{r.phase}: "
            f"{r.before_ms:.3f} ms -> {r.after_ms:.3f} ms "
            f"({(r.ratio - 1) * 100:+.0f}%)"
        )
    return "\n".join(lines) + "\n"
