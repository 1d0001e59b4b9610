"""Unified observability: causal spans, metrics, timeline exporters.

The layer is opt-in end to end.  A disabled run carries exactly one
extra attribute (``Network.obs is None``) and the kernel is untouched,
so the PR-1 microbench gate guards the zero-overhead claim.  When
enabled, :class:`~repro.obs.probes.Observability` threads span ids
through message metadata to build a causal op→round→message tree, and
the exporters in :mod:`repro.obs.export` render it as deterministic
JSONL or a Perfetto-loadable Chrome trace.
"""

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "spans": ("Span", "SpanEvent", "SpanTracer"),
    "metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "LATENCY_BUCKETS_MS", "SIZE_BUCKETS_BYTES", "DEPTH_BUCKETS",
    ),
    "probes": ("Observability", "KernelProbe", "collect_protocol_metrics"),
    "export": (
        "spans_to_jsonl", "spans_to_chrome", "select_spans", "top_slow_json",
    ),
    "critpath": (
        "PHASES", "Segment", "OpAttribution", "TraceIndex", "build_index",
        "attribute_op", "attribute_trace", "format_attribution",
    ),
    "budget": ("LatencyBudget", "latency_budget", "format_budget"),
})
