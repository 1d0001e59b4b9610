"""Metrics derived from operation histories."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..consistency.history import History

__all__ = ["LatencyStats", "HistorySummary", "summarize"]


@dataclass
class LatencyStats:
    """Summary statistics over a latency sample (milliseconds).

    ``p50`` is an alias of ``median`` kept as a real field so sweep
    points and JSON payloads carry the same column names the dashboards
    print.
    """

    count: int
    mean: float
    median: float
    p95: float
    maximum: float
    p50: float = 0.0
    p99: float = 0.0

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            return cls(count=0, mean=0.0, median=0.0, p95=0.0, maximum=0.0)
        ordered = sorted(samples)
        median = _percentile(ordered, 0.5)
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            median=median,
            p95=_percentile(ordered, 0.95),
            maximum=ordered[-1],
            p50=median,
            p99=_percentile(ordered, 0.99),
        )


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile over a pre-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class HistorySummary:
    """Everything the response-time figures report, from one history."""

    reads: LatencyStats
    writes: LatencyStats
    overall: LatencyStats
    read_hit_rate: Optional[float]
    failures: int
    availability: float

    #: column names matching :meth:`row`, shared by figure benches and
    #: the observability dashboards
    ROW_COLUMNS = [
        "overall_ms",
        "read_ms",
        "write_ms",
        "availability",
        "read_hit_rate",
    ]

    def row(self) -> List[float]:
        """The columns printed by the figure benches (see
        :data:`ROW_COLUMNS`); hit rate is 0 for protocols that do not
        report hits."""
        return [
            self.overall.mean,
            self.reads.mean,
            self.writes.mean,
            self.availability,
            self.read_hit_rate if self.read_hit_rate is not None else 0.0,
        ]


def summarize(history: History) -> HistorySummary:
    """Aggregate a history into the figure metrics.

    Hit rate is only defined for protocols that report hits (DQVL);
    ``None`` otherwise.  Availability is the accepted-request fraction —
    the paper's Section 4.2 definition.
    """
    read_latencies = [op.latency for op in history.reads() if op.ok]
    write_latencies = [op.latency for op in history.writes() if op.ok]
    all_latencies = read_latencies + write_latencies
    hits = [op.hit for op in history.reads() if op.ok and op.hit is not None]
    failures = len(history.failures())
    total = len(history.ops)
    return HistorySummary(
        reads=LatencyStats.from_samples(read_latencies),
        writes=LatencyStats.from_samples(write_latencies),
        overall=LatencyStats.from_samples(all_latencies),
        read_hit_rate=(sum(hits) / len(hits)) if hits else None,
        failures=failures,
        availability=1.0 - (failures / total) if total else 1.0,
    )
