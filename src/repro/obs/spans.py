"""Span-based causal tracing.

A :class:`Span` is a named interval of simulated time attributed to one
node, optionally parented to another span; a :class:`SpanTracer`
collects spans and point :class:`SpanEvent` records in emission order.
Together they turn a run into a *causal tree per operation*:

* a client operation (``category="op"``) opens a root span;
* each QRPC round, lease renewal, or invalidation push opens a child
  span (``category="qrpc"``, ``"lease"``, ``"inval"``);
* message send/receive events attach to spans via the ``span_id``
  threaded through :class:`~repro.sim.messages.Message` metadata —
  including across nodes, because a server handler parents its own
  spans on the ``span_id`` of the request it is processing.

Determinism contract
--------------------
Span ids are allocated from a per-tracer counter starting at 1, span
and event lists are append-ordered by the (deterministic) simulation,
and no wall-clock or process-global state is recorded.  Two runs with
the same seed therefore produce identical span trees, which is what
makes the exporters in :mod:`repro.obs.export` byte-reproducible.

Tracing is opt-in: the disabled state is simply ``None`` (see
``Network.obs``), so instrumented code guards with one ``is not None``
check and pays nothing when observability is off.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from ..bounds import require
from ..sim.kernel import Simulator

__all__ = ["Span", "SpanEvent", "SpanTracer"]

SpanRef = Union["Span", int, None]


def _span_id_of(ref: SpanRef) -> Optional[int]:
    if ref is None or isinstance(ref, int):
        return ref
    return ref.span_id


class Span:
    """One named interval, attributed to a node, in a causal tree."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "category",
                 "node", "start", "end", "attrs")

    def __init__(
        self,
        tracer: "SpanTracer",
        span_id: int,
        name: str,
        category: str,
        node: str,
        start: float,
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = attrs or {}

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length in ms (0 while unfinished)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def annotate(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (last write wins per key)."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event attached to this span."""
        self._tracer.event(name, span=self, node=self.node, **attrs)

    def finish(self, **attrs: Any) -> "Span":
        """Close the span at the current simulated time (idempotent)."""
        if attrs:
            self.attrs.update(attrs)
        if self.end is None:
            self.end = self._tracer.sim.now
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"..{self.end:g}" if self.end is not None else "..?"
        return (f"<Span #{self.span_id} {self.category}:{self.name} "
                f"@{self.node} [{self.start:g}{state}]>")


class SpanEvent:
    """A point occurrence, optionally attached to a span."""

    __slots__ = ("time", "name", "span_id", "node", "attrs")

    def __init__(self, time: float, name: str, span_id: Optional[int],
                 node: str, attrs: Dict[str, Any]) -> None:
        self.time = time
        self.name = name
        self.span_id = span_id
        self.node = node
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ref = f" span={self.span_id}" if self.span_id is not None else ""
        return f"<SpanEvent {self.name} @{self.node} t={self.time:g}{ref}>"


class SpanTracer:
    """Collects spans and events for one simulation run.

    Parameters
    ----------
    sim:
        The simulator whose clock timestamps every record.
    max_records:
        Optional bound on ``len(spans) + len(events)``; once reached,
        new records are counted in :attr:`dropped` and discarded (spans
        already started keep working — only their registration is
        bounded, so long campaigns cannot grow memory without limit).
    """

    def __init__(self, sim: Simulator, max_records: Optional[int] = None) -> None:
        self.sim = sim
        self.spans: List[Span] = []
        self.events: List[SpanEvent] = []
        self.max_records = max_records
        self.dropped = 0
        self._next_id = 1

    # -- recording --------------------------------------------------------

    def _room(self) -> bool:
        if self.max_records is None:
            return True
        if len(self.spans) + len(self.events) < self.max_records:
            return True
        self.dropped += 1
        return False

    def span(self, name: str, category: str = "span", node: str = "",
             parent: SpanRef = None, **attrs: Any) -> Span:
        """Open a new span at the current simulated time."""
        span = Span(
            self,
            span_id=self._next_id,
            name=name,
            category=category,
            node=node,
            start=self.sim.now,
            parent_id=_span_id_of(parent),
            attrs=attrs or None,
        )
        self._next_id += 1
        if self._room():
            self.spans.append(span)
        return span

    def event(self, name: str, span: SpanRef = None, node: str = "",
              **attrs: Any) -> None:
        """Record a point event at the current simulated time."""
        if self._room():
            self.events.append(
                SpanEvent(self.sim.now, name, _span_id_of(span), node, attrs)
            )

    # -- queries ----------------------------------------------------------

    def by_id(self, span_id: int) -> Optional[Span]:
        for span in self.spans:
            if span.span_id == span_id:
                return span
        return None

    def filter(self, category: Optional[str] = None,
               name: Optional[str] = None,
               node: Optional[str] = None) -> List[Span]:
        out = self.spans
        if category is not None:
            out = [s for s in out if s.category == category]
        if name is not None:
            out = [s for s in out if s.name == name]
        if node is not None:
            out = [s for s in out if s.node == node]
        return list(out)

    def op_spans(self) -> List[Span]:
        """Root client-operation spans, in start order."""
        return self.filter(category="op")

    def top_slow(self, n: int = 5) -> List[Span]:
        """The *n* slowest finished operation spans, slowest first."""
        require("top_slow n", n, 0)
        done = [s for s in self.op_spans() if s.finished]
        done.sort(key=lambda s: (-s.duration, s.span_id))
        return done[:n]
