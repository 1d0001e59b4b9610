"""Deterministic timeline exporters: JSONL and Chrome trace format.

Two serialisations of one :class:`~repro.obs.spans.SpanTracer`:

* :func:`spans_to_jsonl` — one JSON object per line (``meta`` header,
  then spans, events, fault windows, and an optional metrics snapshot),
  meant for machine diffing and golden-file tests;
* :func:`spans_to_chrome` — the Chrome Trace Format consumed by
  ``chrome://tracing`` and Perfetto: spans become complete (``X``)
  events on one track per node, parent→child causality becomes flow
  (``s``/``f``) arrows, point events become instants (``i``), and chaos
  fault windows render as an annotation track on a separate process row.

Byte-reproducibility contract
-----------------------------
Identical seeds must yield identical bytes.  Three rules enforce it:

1. every ``json.dumps`` uses ``sort_keys=True`` with fixed separators;
2. ordering is derived only from simulation state (span start times,
   per-tracer span ids, emission order) — never dict iteration of
   unsorted inputs or process-global counters;
3. message ids — which come from a process-global counter and therefore
   differ between two in-process runs — are **densified**: remapped to
   1, 2, 3… by first appearance in the event stream.

Attribute values that are not JSON types (e.g. ``LogicalClock``) are
stringified via their deterministic ``__str__``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..types import LogicalClock
from .spans import Span, SpanEvent, SpanTracer

__all__ = [
    "spans_to_jsonl",
    "spans_to_chrome",
    "select_spans",
    "top_slow_json",
]

_JSON_KW = {"sort_keys": True, "separators": (",", ":")}


def _sanitize(value: Any) -> Any:
    """Coerce *value* into JSON-serialisable, deterministic form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, LogicalClock):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    return str(value)


def _sanitize_attrs(attrs: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    # Fault.params is a tuple of (name, value) pairs, not a dict.
    if attrs is not None and not isinstance(attrs, dict):
        attrs = dict(attrs)
    return {str(k): _sanitize(v) for k, v in (attrs or {}).items()}


class _MsgIdDenser:
    """Remaps process-global message ids to dense per-export ids.

    Every attribute key that carries a raw message id must be listed in
    ``_KEYS``: ``msg`` (the message itself), ``re`` (the request a reply
    correlates to) and ``req`` (the request behind a quorum reply event).
    Leaving one raw would leak the process-global counter into exports
    and break same-seed byte-identity across runs.
    """

    _KEYS = ("msg", "re", "req")

    def __init__(self) -> None:
        self._map: Dict[int, int] = {}

    def _dense(self, raw: int) -> int:
        dense = self._map.get(raw)
        if dense is None:
            dense = self._map[raw] = len(self._map) + 1
        return dense

    def remap(self, attrs: Dict[str, Any]) -> Dict[str, Any]:
        if not any(isinstance(attrs.get(k), int) for k in self._KEYS):
            return attrs
        attrs = dict(attrs)
        for key in self._KEYS:
            if isinstance(attrs.get(key), int):
                attrs[key] = self._dense(attrs[key])
        return attrs


def select_spans(tracer: SpanTracer,
                 span_filter: Optional[str] = None) -> List[Span]:
    """Spans to export, sorted by (start, id).

    With a *span_filter*, keeps spans whose category or name equals the
    filter string **plus their entire subtrees**, so ``--span-filter op``
    still shows each operation's QRPC rounds.
    """
    spans = sorted(tracer.spans, key=lambda s: (s.start, s.span_id))
    if span_filter is None:
        return spans
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    keep: set = set()
    stack = [s for s in spans
             if s.category == span_filter or s.name == span_filter]
    while stack:
        span = stack.pop()
        if span.span_id in keep:
            continue
        keep.add(span.span_id)
        stack.extend(children.get(span.span_id, ()))
    return [s for s in spans if s.span_id in keep]


def _fault_windows(faults: Optional[Iterable[Any]]) -> List[Any]:
    """Normalise a ``FaultSchedule`` or iterable of faults to a list."""
    if faults is None:
        return []
    inner = getattr(faults, "faults", None)
    return list(inner if inner is not None else faults)


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def spans_to_jsonl(
    tracer: SpanTracer,
    faults: Optional[Iterable[Any]] = None,
    span_filter: Optional[str] = None,
    metrics: Optional[Any] = None,
) -> str:
    """Serialise the trace as deterministic JSON lines.

    Record kinds (``record`` field): ``meta``, ``span``, ``event``,
    ``fault``, ``metric``.  Spans are ordered by (start, id), events by
    emission order, metrics by registry sort order.
    """
    spans = select_spans(tracer, span_filter)
    kept = {s.span_id for s in spans}
    denser = _MsgIdDenser()
    lines: List[str] = []

    def emit(obj: Dict[str, Any]) -> None:
        lines.append(json.dumps(obj, **_JSON_KW))

    emit({
        "record": "meta",
        "version": 1,
        "spans": len(spans),
        "events": len(tracer.events),
        "dropped": tracer.dropped,
        "span_filter": span_filter,
        "sim_now_ms": tracer.sim.now,
    })
    for span in spans:
        emit({
            "record": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "category": span.category,
            "node": span.node,
            "start_ms": span.start,
            "end_ms": span.end,
            "attrs": _sanitize_attrs(span.attrs),
        })
    for event in tracer.events:
        if span_filter is not None and event.span_id not in kept:
            continue
        emit({
            "record": "event",
            "time_ms": event.time,
            "name": event.name,
            "span": event.span_id,
            "node": event.node,
            "attrs": denser.remap(_sanitize_attrs(event.attrs)),
        })
    for fault in _fault_windows(faults):
        emit({
            "record": "fault",
            "kind": fault.kind,
            "start_ms": fault.start,
            "duration_ms": fault.duration,
            "nodes": _sanitize(list(fault.nodes)),
            "groups": _sanitize(list(fault.groups)),
            "params": _sanitize_attrs(fault.params),
        })
    if metrics is not None:
        for entry in metrics.snapshot():
            emit(dict({"record": "metric"}, **entry))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Chrome Trace Format
# ---------------------------------------------------------------------------

_SIM_PID = 1
_CHAOS_PID = 2


def _us(ms: float) -> float:
    """Milliseconds of simulated time → Chrome's microsecond unit."""
    return ms * 1000.0


def _thread_ids(spans: Sequence[Span],
                events: Sequence[SpanEvent]) -> Dict[str, int]:
    nodes = {s.node for s in spans} | {e.node for e in events}
    return {node: i + 1 for i, node in enumerate(sorted(nodes))}


def spans_to_chrome(
    tracer: SpanTracer,
    faults: Optional[Iterable[Any]] = None,
    span_filter: Optional[str] = None,
) -> str:
    """Serialise the trace in Chrome Trace Format (JSON object form).

    Load the output in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``: one process row for the simulation with a
    thread per node, a second process row for chaos fault windows, and
    flow arrows tying every QRPC round / lease renewal / invalidation
    back to the client operation that caused it.
    """
    spans = select_spans(tracer, span_filter)
    kept = {s.span_id for s in spans}
    events = [e for e in tracer.events
              if span_filter is None or e.span_id in kept]
    tids = _thread_ids(spans, events)
    denser = _MsgIdDenser()
    out: List[Dict[str, Any]] = []

    out.append({"ph": "M", "pid": _SIM_PID, "tid": 0,
                "name": "process_name", "args": {"name": "simulation"}})
    for node, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        out.append({"ph": "M", "pid": _SIM_PID, "tid": tid,
                    "name": "thread_name",
                    "args": {"name": node or "(unattributed)"}})

    for span in spans:
        args = _sanitize_attrs(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if not span.finished:
            args["unfinished"] = True
        tid = tids[span.node]
        out.append({
            "ph": "X", "pid": _SIM_PID, "tid": tid,
            "ts": _us(span.start), "dur": _us(span.duration),
            "name": span.name, "cat": span.category, "args": args,
        })
        if span.parent_id in kept:
            parent = tracer.by_id(span.parent_id)
            out.append({
                "ph": "s", "pid": _SIM_PID, "tid": tids[parent.node],
                "ts": _us(span.start), "id": span.span_id,
                "name": "causes", "cat": "flow",
            })
            out.append({
                "ph": "f", "bp": "e", "pid": _SIM_PID, "tid": tid,
                "ts": _us(span.start), "id": span.span_id,
                "name": "causes", "cat": "flow",
            })

    for event in events:
        out.append({
            "ph": "i", "s": "t", "pid": _SIM_PID, "tid": tids[event.node],
            "ts": _us(event.time), "name": event.name, "cat": "event",
            "args": denser.remap(_sanitize_attrs(event.attrs)),
        })

    windows = _fault_windows(faults)
    if windows:
        out.append({"ph": "M", "pid": _CHAOS_PID, "tid": 0,
                    "name": "process_name", "args": {"name": "chaos"}})
        kinds = sorted({f.kind for f in windows})
        fault_tids = {kind: i + 1 for i, kind in enumerate(kinds)}
        for kind in kinds:
            out.append({"ph": "M", "pid": _CHAOS_PID,
                        "tid": fault_tids[kind], "name": "thread_name",
                        "args": {"name": kind}})
        for fault in sorted(windows, key=lambda f: (f.start, f.kind)):
            out.append({
                "ph": "X", "pid": _CHAOS_PID, "tid": fault_tids[fault.kind],
                "ts": _us(fault.start), "dur": _us(fault.duration),
                "name": fault.kind, "cat": "fault",
                "args": {
                    "nodes": _sanitize(list(fault.nodes)),
                    "groups": _sanitize(list(fault.groups)),
                    "params": _sanitize_attrs(fault.params),
                },
            })

    doc = {"traceEvents": out, "displayTimeUnit": "ms"}
    return json.dumps(doc, **_JSON_KW)


def top_slow_json(tracer: SpanTracer, n: int = 5) -> str:
    """The top-slow ranking with full phase attribution, as sorted-key
    JSON — byte-identical across same-seed runs.

    Every field is derived from per-tracer span ids, simulated times and
    node names; raw message ids never appear, so two runs with the same
    seed serialise to identical bytes (the same contract as the timeline
    exporters above).
    """
    from .critpath import attribute_op, build_index

    index = build_index(tracer)
    ops = []
    for op in tracer.top_slow(n):
        att = attribute_op(index, op)
        ops.append(att.to_json_obj())
    doc = {"version": 1, "top": len(ops), "ops": ops}
    return json.dumps(doc, **_JSON_KW) + "\n"
