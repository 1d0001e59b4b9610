"""Metrics registry: counters, gauges, bounded-bucket histograms.

A :class:`MetricsRegistry` names metrics with a string plus optional
label key/values (``registry.counter("net.messages", kind="inval")``),
returning the same instrument for the same (name, labels) pair.  All
instruments are plain Python objects with no locks or wall-clock reads,
so recording is cheap and deterministic.

The *disabled* state used throughout the repo is simply the absence of
a registry (``Network.obs is None``).

Histograms are **bounded**: a fixed tuple of upper bounds plus an
implicit ``+inf`` bucket, so memory is O(buckets) no matter how many
samples a chaos campaign feeds in.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS_MS",
    "SIZE_BUCKETS_BYTES",
    "DEPTH_BUCKETS",
]

#: one-way delay / latency bucket bounds (ms) — spans the paper's 8 ms
#: LAN link through multi-round WAN retransmission backoffs
LATENCY_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0,
)

#: message size bucket bounds (bytes), powers of four
SIZE_BUCKETS_BYTES = (16.0, 64.0, 256.0, 1_024.0, 4_096.0, 16_384.0)

#: queue-depth bucket bounds (entries) for the kernel probes
DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1_024.0)

LabelItems = Tuple[Tuple[str, str], ...]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Bounded-bucket histogram: counts per upper bound plus ``+inf``.

    ``bounds`` must be sorted ascending.  A sample lands in the first
    bucket whose bound is >= the sample (``bisect_left``), or the
    overflow bucket.  ``sum``/``count``/``max`` ride along so means and
    rates fall out without keeping samples.
    """

    __slots__ = ("bounds", "buckets", "count", "sum", "max")

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS_MS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.buckets[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile sample
        (``max`` for the overflow bucket); 0 when empty."""
        if not self.count:
            return 0.0
        rank = max(1, int(q * self.count + 0.5))
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def quantile_interpolated(self, q: float) -> float:
        """The q-quantile estimated by linear interpolation inside the
        bucket that holds the q-th ranked sample.

        Error bounds: the estimate is always within the width of the
        bucket the sample landed in (``bounds[i] - bounds[i-1]``, or
        ``max - bounds[-1]`` for the overflow bucket, where the true
        observed maximum caps the interpolation).  Samples inside a
        bucket are assumed uniformly spread; with the repo's geometric
        bucket ladders the relative error is bounded by the bucket
        growth factor, independent of sample count.
        """
        if not self.count:
            return 0.0
        rank = max(1, int(q * self.count + 0.5))
        seen = 0
        for i, n in enumerate(self.buckets):
            if seen + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else max(self.max, lo)
                # position of the ranked sample within this bucket
                frac = (rank - seen) / n
                return lo + (hi - lo) * frac
            seen += n
        return self.max

    def summary(self) -> Dict[str, float]:
        """Count, exact sum/mean/max, and interpolated p50/p95/p99.

        Percentiles come from :meth:`quantile_interpolated`, so each is
        accurate to within the width of its bucket (see there for the
        bound); count, sum, mean and max are exact.
        """
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "max": self.max,
            "p50": self.quantile_interpolated(0.50),
            "p95": self.quantile_interpolated(0.95),
            "p99": self.quantile_interpolated(0.99),
        }

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
        }


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Named instruments, deduplicated by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], Any] = {}

    def _get(self, name: str, labels: Dict[str, Any], factory):
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory()
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = LATENCY_BUCKETS_MS,
                  **labels: Any) -> Histogram:
        return self._get(name, labels, lambda: Histogram(bounds))

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Tuple[str, LabelItems, Any]]:
        """(name, labels, metric) triples in sorted (deterministic) order."""
        for (name, labels) in sorted(self._metrics):
            yield name, labels, self._metrics[(name, labels)]

    def find(self, name: str, **labels: Any) -> Optional[Any]:
        """The instrument if it was ever recorded, else ``None``."""
        return self._metrics.get((name, _label_items(labels)))

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-ready dump of every instrument, deterministically ordered."""
        out = []
        for name, labels, metric in self:
            entry = {"name": name, "labels": dict(labels)}
            entry.update(metric.snapshot())
            out.append(entry)
        return out
