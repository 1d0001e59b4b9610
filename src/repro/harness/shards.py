"""Sharded multi-core execution of one large scenario.

A response-time scenario with many clients is embarrassingly parallel
in this workload model: each closed-loop client reads and writes *its
own* object (see :mod:`repro.harness.experiment`), so clients never
contend on protocol state across groups.  This module exploits that by
splitting one large :class:`~repro.harness.experiment.ExperimentConfig`
into a fixed number of *groups*, running each group as an independent
simulation on the :func:`~repro.harness.sweeps.run_sweep` process pool,
and merging the per-group results back into one summary.

Determinism contract
--------------------
The decomposition is part of the scenario, not of the execution: group
boundaries and per-group seeds depend only on the base config and
``num_groups``, never on the worker count.  Raw latency samples cross
the process boundary (via the sweep ``collect`` hook) and the merged
:class:`~repro.harness.metrics.HistorySummary` is recomputed from the
concatenated samples with the same nearest-rank percentiles a single
history would use — so running with 1 worker or 16 workers produces a
byte-identical merged summary (the CI shard-merge smoke locks this in).
Merged metrics are plain summed counters over sorted keys, equally
order-independent.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..consistency.history import History
from .experiment import ExperimentConfig, ExperimentResult
from .metrics import HistorySummary, LatencyStats
from .sweeps import run_sweep

if TYPE_CHECKING:  # annotations only: sharding an experiment never loads the CDN layer
    from ..edge.cdn import CdnResult, CdnScenarioConfig
    from ..workload.population import PopulationStats

__all__ = [
    "ShardedResult",
    "shard_configs",
    "collect_shard",
    "merge_points",
    "run_sharded",
    "CdnShardedResult",
    "collect_cdn_shard",
    "merge_cdn_points",
    "run_sharded_cdn",
]


def _group_seed(base_seed: int, group: int) -> int:
    """Stable per-group seed: a function of the base seed and the group
    index only (process- and platform-independent)."""
    digest = hashlib.sha256(f"shard:{base_seed}:{group}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def shard_configs(base: Any, num_groups: int) -> List[Any]:
    """Split *base* into per-group configs.

    An experiment splits its clients, a CDN scenario its modeled users;
    group sizes differ by at most one (the first groups take the
    remainder) and each group gets a seed derived from
    ``(base.seed, group)``.  ``num_groups`` is clamped to the count
    being split, so no group is empty; a CDN group keeps the full
    regions × PoPs topology.
    """
    if num_groups < 1:
        raise ValueError("num_groups must be positive")
    name = "num_clients" if isinstance(base, ExperimentConfig) else "users"
    total = getattr(base, name)
    num_groups = min(num_groups, total)
    return [
        dataclasses.replace(base, **{
            name: total // num_groups + (1 if g < total % num_groups else 0),
            "seed": _group_seed(base.seed, g),
        })
        for g in range(num_groups)
    ]


def _collect_samples(history: History) -> Dict[str, Any]:
    """Raw samples and counters of one group's history: what
    :func:`_merged_summary` needs to reconstruct the group's share of a
    merged :class:`HistorySummary` without the (unpicklable) history."""
    hits = [op.hit for op in history.reads() if op.ok and op.hit is not None]
    return {
        "read_ms": [op.latency for op in history.reads() if op.ok],
        "write_ms": [op.latency for op in history.writes() if op.ok],
        "hits_true": sum(1 for h in hits if h),
        "hits_known": len(hits),
        "failures": len(history.failures()),
        "total_ops": len(history.ops),
    }


def _merged_summary(points: Sequence[Any]) -> HistorySummary:
    """The summary of the union history, recomputed from every point's
    :func:`_collect_samples` extras with the percentiles a single
    history would use; every reduction is order-independent."""
    read_ms: List[float] = []
    write_ms: List[float] = []
    hits_true = hits_known = failures = total_ops = 0
    for point in points:
        extras = point.extras
        read_ms.extend(extras["read_ms"])
        write_ms.extend(extras["write_ms"])
        hits_true += extras["hits_true"]
        hits_known += extras["hits_known"]
        failures += extras["failures"]
        total_ops += extras["total_ops"]
    return HistorySummary(
        reads=LatencyStats.from_samples(read_ms),
        writes=LatencyStats.from_samples(write_ms),
        overall=LatencyStats.from_samples(read_ms + write_ms),
        read_hit_rate=(hits_true / hits_known) if hits_known else None,
        failures=failures,
        availability=1.0 - (failures / total_ops) if total_ops else 1.0,
    )


def collect_shard(result: ExperimentResult) -> Dict[str, Any]:
    """Sweep ``collect`` hook (runs in the worker process): the group's
    samples plus its network and kernel counters."""
    stats = result.deployment.topology.network.stats
    return dict(
        _collect_samples(result.history),
        messages_by_kind=dict(stats.by_kind),
        events_processed=result.deployment.topology.sim.events_processed,
    )


@dataclass
class ShardedResult:
    """Merged outcome of one sharded scenario."""

    config: ExperimentConfig
    num_groups: int
    summary: HistorySummary
    messages_per_request: float
    total_requests: int
    #: max over groups — the scenario's critical-path simulated time
    sim_time_ms: float
    #: summed counters: per-kind message counts plus kernel totals
    metrics: Dict[str, float] = field(default_factory=dict)
    #: the per-group sweep points, in group order
    points: List[ExperimentResult] = field(default_factory=list)


def merge_points(base: ExperimentConfig, points: List[ExperimentResult]) -> ShardedResult:
    """Exact deterministic merge of per-group points.

    Latency statistics are recomputed from the concatenated raw samples
    (identical to summarising the union history); counters are summed.
    Group order is fixed by the plan, and every reduction used here is
    order-independent anyway, so the result cannot depend on scheduling.
    """
    protocol_messages = 0
    total_requests = 0
    sim_time_ms = 0.0
    metrics: Dict[str, float] = {}
    for point in points:
        extras = point.extras
        protocol_messages += round(point.messages_per_request * point.total_requests)
        total_requests += point.total_requests
        sim_time_ms = max(sim_time_ms, point.sim_time_ms)
        for kind, count in extras["messages_by_kind"].items():
            key = f"net.messages.{kind}"
            metrics[key] = metrics.get(key, 0.0) + count
        metrics["kernel.events_processed"] = (
            metrics.get("kernel.events_processed", 0.0) + extras["events_processed"]
        )
    return ShardedResult(
        config=base,
        num_groups=len(points),
        summary=_merged_summary(points),
        messages_per_request=(
            protocol_messages / total_requests if total_requests else 0.0
        ),
        total_requests=total_requests,
        sim_time_ms=sim_time_ms,
        metrics={k: metrics[k] for k in sorted(metrics)},
        points=points,
    )


def run_sharded(
    base: ExperimentConfig,
    *,
    num_groups: int = 8,
    workers: Optional[int] = None,
) -> ShardedResult:
    """Run *base* as ``num_groups`` independent group simulations on up
    to *workers* processes and merge the results.

    The merged summary is a pure function of ``(base, num_groups)``:
    the worker count only changes wall-clock time.
    """
    configs = shard_configs(base, num_groups)
    points = run_sweep(configs, collect=collect_shard, workers=workers)
    return merge_points(base, points)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# sharded edge-CDN scenarios
# ---------------------------------------------------------------------------
#
# A CDN population shards even more naturally than closed-loop clients:
# splitting a Poisson process of rate N·λ into G independent processes
# of rate N·λ/G is an *exact* decomposition (superposition property),
# so each group simulates the full multi-PoP topology driven by its
# share of the modeled users.  As with closed-loop shards, groups run
# as independent simulations and the merge is deterministic — a pure
# function of (base config, num_groups), independent of worker count.

def collect_cdn_shard(result: "CdnResult") -> Dict[str, Any]:
    """Sweep ``collect`` hook: raw samples for the exact merge."""
    return _collect_samples(result.history)


@dataclass
class CdnShardedResult:
    """Merged outcome of one sharded CDN scenario."""

    config: "CdnScenarioConfig"
    num_groups: int
    summary: HistorySummary
    #: population counters merged across groups (queue_peak: max)
    stats: "PopulationStats"
    #: front-end counters summed across groups
    fe_counters: Dict[str, int]
    #: summed kernel events across group simulations
    events_processed: int
    #: max over groups — the scenario's critical-path simulated time
    sim_time_ms: float
    #: merged phase-budget table is not meaningful across groups; the
    #: per-group budgets are kept instead (None entries when trace off)
    budgets: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    points: List["CdnResult"] = field(default_factory=list)

    def to_json_obj(self) -> Dict[str, Any]:
        """Canonical reduced form for byte comparison."""
        return {
            "config": dataclasses.asdict(self.config),
            "num_groups": self.num_groups,
            "summary": dataclasses.asdict(self.summary),
            "stats": self.stats.to_json_obj(),
            "fe_counters": {
                k: self.fe_counters[k] for k in sorted(self.fe_counters)
            },
            "events_processed": self.events_processed,
            "sim_time_ms": self.sim_time_ms,
            "budgets": self.budgets,
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":"), default=repr) + "\n"


def merge_cdn_points(base: "CdnScenarioConfig",
                     points: List["CdnResult"]) -> CdnShardedResult:
    """Exact deterministic merge of per-group CDN points."""
    from ..workload.population import PopulationStats

    stats = PopulationStats()
    fe_counters: Dict[str, int] = {}
    events = 0
    sim_time_ms = 0.0
    for point in points:
        stats = stats.merged(point.stats)
        for key, value in point.fe_counters.items():
            fe_counters[key] = fe_counters.get(key, 0) + value
        events += point.events_processed
        sim_time_ms = max(sim_time_ms, point.sim_time_ms)
    return CdnShardedResult(
        config=base,
        num_groups=len(points),
        summary=_merged_summary(points),
        stats=stats,
        fe_counters=fe_counters,
        events_processed=events,
        sim_time_ms=sim_time_ms,
        budgets=[point.budget for point in points],
        points=points,
    )


def run_sharded_cdn(
    base: "CdnScenarioConfig",
    *,
    num_groups: int = 8,
    workers: Optional[int] = None,
) -> CdnShardedResult:
    """Run one CDN scenario as ``num_groups`` independent population
    shards on the sweep process pool and merge the results.

    The merged result is a pure function of ``(base, num_groups)``.
    """
    configs = shard_configs(base, num_groups)
    points = run_sweep(configs, collect=collect_cdn_shard, workers=workers)
    return merge_cdn_points(base, points)  # type: ignore[arg-type]
