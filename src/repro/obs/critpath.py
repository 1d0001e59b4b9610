"""Critical-path extraction and per-phase latency attribution.

Every finished client operation span is decomposed into a contiguous
sequence of :class:`Segment`\\ s that partitions ``[op.start, op.end]``
exactly — the **critical path**: the chain of message legs, server
windows, quorum waits and backoffs that actually bounded completion.
Each segment carries one phase from :data:`PHASES`:

``client``
    time at the caller between protocol actions (request assembly,
    scheduling, the gap between a write's two quorum calls);
``net_request`` / ``net_reply``
    wire transit of the request/reply leg that bounded completion,
    taken from the ``msg_send``/``msg_recv`` events of the first reply
    that arrived in the completing round;
``server``
    the responder's handling window (request delivery → reply send)
    net of any lease/invalidation sub-work;
``lease`` / ``inval``
    lease validation/renewal and write-invalidation detours, recursed
    into their own rounds when they themselves ran QRPC;
``quorum_wait``
    the straggler wait: the gap between the *first* reply of the
    completing round and the k-th reply that formed the quorum (zero
    for read-one / local-hit paths — the paper's Figure 6 story);
``retry``
    a full round that timed out (or died with its caller) and had to
    be retransmitted;
``backoff``
    deliberate waiting: the gaps between a QRPC call's rounds;
``degraded``
    a front end serving from last-known state after its storage attempt
    failed;
``other``
    intervals the trace does not explain (missing events degrade
    precision, never conservation).

Determinism and conservation contract
-------------------------------------
The analyzer is a **pure function of the trace**: it reads only span
ids, simulated timestamps, node names and event attributes — never the
simulator, wall clocks, or process-global state — so two runs with the
same seed attribute identically, byte for byte.  Segments are emitted
through a clamped monotone cursor (:class:`_Builder`), so they always
partition the op interval exactly: ``sum(phase durations) ==
end - start`` up to float addition error (checked to 1e-6 in tests and
the CI smoke).  See DESIGN.md §15 for the extraction rules.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from .spans import Span, SpanEvent, SpanTracer

__all__ = [
    "PHASES",
    "Segment",
    "OpAttribution",
    "TraceIndex",
    "build_index",
    "attribute_op",
    "attribute_trace",
    "format_attribution",
]

#: the phase taxonomy, in display order
PHASES = (
    "client",
    "net_request",
    "server",
    "lease",
    "inval",
    "net_reply",
    "quorum_wait",
    "retry",
    "backoff",
    "degraded",
    "other",
)

_EPS = 1e-9


class Segment(NamedTuple):
    """One critical-path interval attributed to a single phase."""

    start: float
    end: float
    phase: str
    node: str
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class OpAttribution:
    """One operation's critical path and phase budget."""

    __slots__ = ("op", "end", "segments")

    def __init__(self, op: Span, end: float, segments: List[Segment]) -> None:
        self.op = op
        self.end = end
        self.segments = segments

    @property
    def total(self) -> float:
        return self.end - self.op.start

    @property
    def phases(self) -> Dict[str, float]:
        """Per-phase totals (ms); every phase present, zeros included."""
        out = {phase: 0.0 for phase in PHASES}
        for seg in self.segments:
            out[seg.phase] += seg.duration
        return out

    @property
    def conservation_error(self) -> float:
        """|sum of segments − op latency| — must be ≈ 0 by construction."""
        return abs(sum(s.duration for s in self.segments) - self.total)

    def group_key(self) -> str:
        """Budget-table grouping: op name, split by hit/miss when the
        span recorded one, with app-level ops prefixed ``app.``."""
        name = self.op.name
        if self.op.attrs.get("path") == "app":
            name = f"app.{name}"
        if self.op.attrs.get("degraded") is True:
            return f"{name}[degraded]"
        hit = self.op.attrs.get("hit")
        if hit is True:
            return f"{name}[hit]"
        if hit is False:
            return f"{name}[miss]"
        return name

    def to_json_obj(self) -> Dict[str, Any]:
        """JSON-ready form; deterministic (span ids, sim times, nodes)."""
        return {
            "span_id": self.op.span_id,
            "name": self.op.name,
            "group": self.group_key(),
            "key": self.op.attrs.get("key"),
            "node": self.op.node,
            "status": self.op.attrs.get("status"),
            "start_ms": self.op.start,
            "duration_ms": self.total,
            "phases": self.phases,
            "critical_path": [
                {
                    "start_ms": s.start,
                    "end_ms": s.end,
                    "phase": s.phase,
                    "node": s.node,
                    "detail": s.detail,
                }
                for s in self.segments
            ],
        }


# ---------------------------------------------------------------------------
# trace index
# ---------------------------------------------------------------------------

class TraceIndex:
    """One pass over the tracer, indexed for attribution lookups."""

    __slots__ = ("tracer", "spans_by_id", "_children", "msgs", "reply_of",
                 "requests_by_span", "replies_by_call", "events_by_span")

    def __init__(self, tracer: SpanTracer) -> None:
        self.tracer = tracer
        self.spans_by_id: Dict[int, Span] = {
            s.span_id: s for s in tracer.spans
        }
        self._children: Dict[int, List[Span]] = {}
        for span in sorted(tracer.spans, key=lambda s: (s.start, s.span_id)):
            if span.parent_id is not None:
                self._children.setdefault(span.parent_id, []).append(span)
        #: raw msg id → {send, recv, src, dst, kind, span, re}
        self.msgs: Dict[int, Dict[str, Any]] = {}
        #: request msg id → first reply msg id
        self.reply_of: Dict[int, int] = {}
        #: sending span id → its outbound *request* msg ids, send order
        self.requests_by_span: Dict[Optional[int], List[int]] = {}
        #: call key (first round's span id) → reply_k_of_n events
        self.replies_by_call: Dict[int, List[SpanEvent]] = {}
        self.events_by_span: Dict[int, List[SpanEvent]] = {}
        for event in tracer.events:
            if event.span_id is not None:
                self.events_by_span.setdefault(event.span_id, []).append(event)
            name = event.name
            if name == "msg_send":
                mid = event.attrs.get("msg")
                if not isinstance(mid, int):
                    continue
                info = self.msgs.setdefault(mid, {})
                info["send"] = event.time
                info["src"] = event.node
                info["dst"] = event.attrs.get("dst")
                info["kind"] = event.attrs.get("kind")
                info["span"] = event.span_id
                re = event.attrs.get("re")
                if isinstance(re, int):
                    info["re"] = re
                    self.reply_of.setdefault(re, mid)
                else:
                    self.requests_by_span.setdefault(
                        event.span_id, []
                    ).append(mid)
            elif name == "msg_recv":
                mid = event.attrs.get("msg")
                if isinstance(mid, int):
                    self.msgs.setdefault(mid, {})["recv"] = event.time
            elif name == "reply_k_of_n":
                span = self.spans_by_id.get(event.span_id)
                key = event.span_id
                if span is not None:
                    key = span.attrs.get("call", span.span_id)
                if isinstance(key, int):
                    self.replies_by_call.setdefault(key, []).append(event)

    def children(self, span_id: Optional[int]) -> List[Span]:
        if span_id is None:
            return []
        return self._children.get(span_id, [])

    def events(self, span_id: Optional[int]) -> List[SpanEvent]:
        if span_id is None:
            return []
        return self.events_by_span.get(span_id, [])

    def root_ops(self) -> List[Span]:
        """Finished top-level operation spans, in start order.

        With front ends in the path the application-level op is the
        root and the store op is its child — only the root is
        attributed, so no millisecond is counted twice."""
        return [
            s for s in sorted(self.tracer.spans,
                              key=lambda s: (s.start, s.span_id))
            if s.category == "op" and s.finished
            and (s.parent_id is None or s.parent_id not in self.spans_by_id)
        ]


def build_index(tracer: SpanTracer) -> TraceIndex:
    """Index *tracer* for attribution (one linear pass)."""
    return TraceIndex(tracer)


# ---------------------------------------------------------------------------
# segment builder
# ---------------------------------------------------------------------------

#: phases a lease/inval detour absorbs; quorum_wait / retry / backoff
#: stay distinct so straggling and retransmission remain visible even
#: inside a detour
_DETOUR_ABSORBS = frozenset(
    ("client", "net_request", "net_reply", "server", "other")
)


class _Builder:
    """Emits segments through a clamped monotone cursor over [lo, hi].

    Every ``cut`` clamps its timestamp into ``[cursor, hi]``, so the
    emitted segments always form an exact partition of the interval no
    matter how noisy (overlapping, out-of-window, missing) the
    underlying records are — imprecision degrades phase *labels*, never
    conservation.

    With a *detour* set (``lease`` / ``inval`` — the builder sits
    inside a validation or invalidation subtree), processing and
    network phases are folded into the detour phase: the op paid that
    time *because of* the detour, which is what the budget should say.
    The original fine-grained label survives in the segment detail.
    """

    __slots__ = ("lo", "hi", "cursor", "node", "segments", "detour")

    def __init__(self, lo: float, hi: float, node: str,
                 detour: Optional[str] = None) -> None:
        self.lo = lo
        self.hi = hi
        self.cursor = lo
        self.node = node
        self.detour = detour
        self.segments: List[Segment] = []

    def cut(self, t: float, phase: str, node: Optional[str] = None,
            detail: str = "") -> None:
        if self.detour is not None and phase in _DETOUR_ABSORBS:
            if not detail:
                detail = phase
            phase = self.detour
        t = min(max(t, self.cursor), self.hi)
        if t > self.cursor:
            self.segments.append(
                Segment(self.cursor, t, phase, node or self.node, detail)
            )
            self.cursor = t

    def fill(self, phase: str, detail: str = "") -> None:
        self.cut(self.hi, phase, detail=detail)

    def absorb(self, segments: List[Segment]) -> None:
        for seg in segments:
            self.cut(seg.end, seg.phase, seg.node, seg.detail)


def _fill_for(span: Span, default: str) -> str:
    if span.category == "lease":
        return "lease"
    if span.category == "inval":
        return "inval"
    return default


def _link_label(m: Dict[str, Any]) -> str:
    return f"{m.get('src', '?')}->{m.get('dst', '?')}"


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def _span_segments(index: TraceIndex, span: Span, lo: float, hi: float,
                   fill: str, detour: Optional[str] = None) -> List[Segment]:
    """Decompose ``[lo, hi]`` of a caller-located span (an op, a lease
    validation, an invalidation push): its QRPC calls, its direct RPC
    exchanges, and local processing between them."""
    if span.category == "lease":
        detour = "lease"
    elif span.category == "inval":
        detour = "inval"
    b = _Builder(lo, hi, span.node, detour=detour)
    blocks: List[Tuple[float, int, str, Any]] = []
    order = 0

    calls: Dict[int, List[Span]] = {}
    for child in index.children(span.span_id):
        if child.category == "qrpc":
            key = child.attrs.get("call", child.span_id)
            calls.setdefault(key, []).append(child)
        elif child.node == span.node:
            # Local sub-work at the same node (rare); server-side
            # children are reached through the RPC windows below.
            blocks.append((child.start, order, "child", child))
            order += 1
    for rounds in sorted(calls.values(),
                         key=lambda rs: (rs[0].start, rs[0].span_id)):
        blocks.append((rounds[0].start, order, "call", rounds))
        order += 1

    for mid in index.requests_by_span.get(span.span_id, ()):
        m = index.msgs[mid]
        if m.get("src") != span.node or "send" not in m:
            continue
        rep = index.msgs.get(index.reply_of.get(mid, -1))
        if rep is not None and "recv" in rep and "send" in rep:
            blocks.append((m["send"], order, "rpc", (m, rep)))
        else:
            # No reply ever arrived: the wait that follows is a retry.
            blocks.append((m["send"], order, "attempt", m))
        order += 1

    blocks.sort(key=lambda t: (t[0], t[1]))
    gap = fill
    for start, _order, kind, payload in blocks:
        b.cut(start, gap)
        if kind == "call":
            _call_segments(index, payload, b)
            gap = fill
        elif kind == "child":
            child = payload
            c_end = child.end if child.end is not None else b.hi
            if c_end > b.cursor:
                b.absorb(_span_segments(index, child, b.cursor,
                                        min(c_end, b.hi),
                                        _fill_for(child, fill),
                                        detour=b.detour))
            gap = fill
        elif kind == "rpc":
            _rpc_segments(index, payload[0], payload[1], b)
            gap = fill
        else:  # attempt
            gap = "retry"
    b.fill(gap)
    return b.segments


def _call_segments(index: TraceIndex, rounds: List[Span],
                   b: _Builder) -> None:
    """One QRPC invocation: its rounds in order, inter-round gaps are
    backoff, timed-out rounds are retry, the completing round is
    decomposed along its first reply plus the straggler wait."""
    for r in rounds:
        e = min(r.end if r.end is not None else b.hi, b.hi)
        b.cut(r.start, "backoff", detail="inter-round gap")
        outcome = r.attrs.get("outcome")
        if outcome in ("timeout", "crashed"):
            b.cut(e, "retry", detail=(
                f"attempt {r.attrs.get('attempt')} {outcome} "
                f"({r.attrs.get('replies', 0)} replies)"
            ))
        else:
            _round_segments(index, r, b, e)


def _round_segments(index: TraceIndex, round_span: Span, b: _Builder,
                    e: float) -> None:
    """A completed round ending at quorum time *e*: the interval up to
    the first in-round reply follows that reply's message path; the
    rest — first reply to k-th — is the quorum straggler wait."""
    key = round_span.attrs.get("call", round_span.span_id)
    s0 = b.cursor
    replies = [
        ev for ev in index.replies_by_call.get(key, ())
        if s0 - _EPS < ev.time <= e + _EPS
    ]
    if not replies:
        b.cut(e, "other", detail="no quorum replies recorded")
        return
    first = replies[0]
    _reply_path(index, first, b, min(first.time, e))
    k = replies[-1].attrs.get("k")
    b.cut(e, "quorum_wait",
          detail=f"{len(replies)} replies to quorum (k={k})")


def _reply_path(index: TraceIndex, reply_event: SpanEvent, b: _Builder,
                hi: float) -> None:
    """Decompose up to the first reply's arrival along its request's
    path: send → transit → server window → reply transit."""
    req = index.msgs.get(reply_event.attrs.get("req"), {})
    rep = index.msgs.get(reply_event.attrs.get("msg"), {})
    if "send" not in req or "recv" not in req or "send" not in rep:
        b.cut(hi, "other", detail="incomplete message records")
        return
    b.cut(req["send"], "client")
    b.cut(req["recv"], "net_request", node=_link_label(req),
          detail=req.get("kind") or "")
    _server_window(index, req.get("span"), req.get("dst") or "", b,
                   req["recv"], min(rep["send"], hi))
    b.cut(hi, "net_reply", node=_link_label(rep),
          detail=rep.get("kind") or "")


def _server_window(index: TraceIndex, parent_sid: Optional[int],
                   server_node: str, b: _Builder, lo: float, hi: float,
                   fill: str = "server") -> None:
    """The responder's handling window: recurse into spans parented on
    the request's span id (lease validations, invalidation pushes, a
    front end's store operation); the remainder is server time — or a
    degraded-serve detour when the handler answered from last-known
    state."""
    degraded = any(
        ev.name == "degraded_serve" and lo - _EPS <= ev.time <= hi + _EPS
        for ev in index.events(parent_sid)
    )
    window_fill = "degraded" if degraded else fill
    for child in index.children(parent_sid):
        if child.category == "qrpc":
            continue
        c_end = child.end if child.end is not None else hi
        if c_end <= b.cursor or child.start >= hi:
            continue
        b.cut(child.start, window_fill, node=server_node)
        b.absorb(_span_segments(index, child, b.cursor, min(c_end, hi),
                                _fill_for(child, window_fill),
                                detour=b.detour))
    b.cut(hi, window_fill, node=server_node)


def _rpc_segments(index: TraceIndex, m: Dict[str, Any],
                  rep: Dict[str, Any], b: _Builder) -> None:
    """One direct request/reply exchange on the span itself (app→front
    end hops, primary/backup and ROWA-Async attempts, invalidation
    pushes)."""
    hi = min(rep["recv"], b.hi)
    if "recv" not in m or m["recv"] >= hi:
        b.cut(hi, "other", detail="incomplete message records")
        return
    b.cut(m["recv"], "net_request", node=_link_label(m),
          detail=m.get("kind") or "")
    _server_window(index, m.get("span"), m.get("dst") or "", b,
                   m["recv"], min(rep["send"], hi))
    b.cut(hi, "net_reply", node=_link_label(rep),
          detail=rep.get("kind") or "")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def attribute_op(index: TraceIndex, op: Span) -> OpAttribution:
    """Attribute one operation span (must be finished for exact totals)."""
    end = op.end if op.end is not None else op.start
    segments = _span_segments(index, op, op.start, end,
                              _fill_for(op, "client"))
    return OpAttribution(op=op, end=end, segments=segments)


def attribute_trace(tracer: SpanTracer) -> List[OpAttribution]:
    """Attribute every finished root operation span of *tracer*."""
    index = build_index(tracer)
    return [attribute_op(index, op) for op in index.root_ops()]


# ---------------------------------------------------------------------------
# human-readable rendering
# ---------------------------------------------------------------------------

def format_attribution(att: OpAttribution) -> str:
    """One op's critical path as an indented text tree."""
    op = att.op
    lines = [
        f"#{op.span_id} {op.name} key={op.attrs.get('key', '?')} "
        f"node={op.node} {att.total:.2f} ms "
        f"(status={op.attrs.get('status', '?')})"
    ]
    for seg in att.segments:
        lines.append(
            f"    {seg.start:10.2f} ms  +{seg.duration:8.2f} ms  "
            f"{seg.phase:<11} @{seg.node}"
            + (f"  {seg.detail}" if seg.detail else "")
        )
    phases = att.phases
    parts = [f"{p}={phases[p]:.2f}" for p in PHASES if phases[p] > 0.0]
    lines.append("    budget: " + (" ".join(parts) or "(zero-length op)"))
    return "\n".join(lines)
