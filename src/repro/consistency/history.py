"""Operation histories.

A :class:`History` records every client operation as an interval
(invocation time → response time) plus its value and logical clock.
The checkers in :mod:`repro.consistency.regular` operate on these
records, and the harness's metrics are derived from them.

:attr:`History.ops` is a plain list in recording order and the only
state: runs append to it, ``full_history()`` and tests assign it.
Queries derive what they need from it on every call —
:meth:`History.by_key` in one pass for all keys, which is what a checker
should start from; ``reads(key)`` / ``writes(key)`` cost a pass each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..types import ZERO_LC, LogicalClock, ReadResult, WriteResult

__all__ = ["Op", "History"]

READ = "read"
WRITE = "write"


@dataclass
class Op:
    """One completed (or failed) client operation."""

    kind: str  # "read" | "write"
    key: str
    value: object
    lc: LogicalClock
    start: float
    end: float
    client: str = ""
    ok: bool = True
    #: protocol-specific detail (e.g. DQVL hit flag), for metrics only
    hit: Optional[bool] = None
    #: replica that served the operation, when meaningful
    server: Optional[str] = None
    #: degraded read: a front end served a remembered local value while
    #: its storage path was unreachable.  Regularity is not claimed, so
    #: the checkers skip these; the chaos availability report counts
    #: them separately and checks staleness_ms <= staleness_bound_ms.
    degraded: bool = False
    staleness_ms: Optional[float] = None
    staleness_bound_ms: Optional[float] = None

    @property
    def latency(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Op") -> bool:
        """Do the two operation intervals overlap in real time?"""
        return self.start < other.end and other.start < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "" if self.ok else " FAILED"
        return (
            f"<{self.kind} {self.key}={self.value!r}@{self.lc} "
            f"[{self.start:.1f},{self.end:.1f}] by {self.client}{status}>"
        )


class History:
    """An append-only log of operations across all clients."""

    def __init__(self) -> None:
        self.ops: List[Op] = []

    # -- recording ----------------------------------------------------------

    def record_read(self, result: ReadResult, ok: bool = True) -> Op:
        op = Op(
            kind=READ,
            key=result.key,
            value=result.value,
            lc=result.lc,
            start=result.start_time,
            end=result.end_time,
            client=result.client,
            ok=ok,
            hit=result.hit,
            server=result.server,
            degraded=getattr(result, "degraded", False),
            staleness_ms=getattr(result, "staleness_ms", None),
            staleness_bound_ms=getattr(result, "staleness_bound_ms", None),
        )
        self.ops.append(op)
        return op

    def record_write(self, result: WriteResult, ok: bool = True) -> Op:
        op = Op(
            kind=WRITE,
            key=result.key,
            value=result.value,
            lc=result.lc,
            start=result.start_time,
            end=result.end_time,
            client=result.client,
            ok=ok,
        )
        self.ops.append(op)
        return op

    def record_failure(self, kind: str, key: str, start: float, end: float,
                       client: str, value: object = None) -> Op:
        """Record a rejected/timed-out operation (counted as unavailable).

        For writes, pass the *attempted* value: a failed write may still
        have reached some replicas, and the checker can then recognise
        its value when a later read returns it (the client never learned
        the write's clock, so the value is the only identity it has).
        """
        op = Op(kind=kind, key=key, value=value, lc=ZERO_LC,
                start=start, end=end, client=client, ok=False)
        self.ops.append(op)
        return op

    # -- queries -------------------------------------------------------------

    def by_key(self) -> Dict[str, Tuple[List[Op], List[Op]]]:
        """``{key: (reads, writes)}`` in one pass, each list in history
        order.  Every key of :meth:`keys` is present; ops that are
        neither reads nor writes are in neither list.  Built afresh on
        each call, nothing is kept (see the module docstring)."""
        index: Dict[str, Tuple[List[Op], List[Op]]] = {}
        for op in self.ops:
            entry = index.get(op.key)
            if entry is None:
                entry = index[op.key] = ([], [])
            if op.kind == READ:
                entry[0].append(op)
            elif op.kind == WRITE:
                entry[1].append(op)
        return index

    def keys(self) -> List[str]:
        return sorted({op.key for op in self.ops})

    def reads(self, key: Optional[str] = None) -> List[Op]:
        return [
            op for op in self.ops
            if op.kind == READ and (key is None or op.key == key)
        ]

    def writes(self, key: Optional[str] = None) -> List[Op]:
        return [
            op for op in self.ops
            if op.kind == WRITE and (key is None or op.key == key)
        ]

    def successful(self) -> Iterable[Op]:
        return (op for op in self.ops if op.ok)

    def failures(self) -> List[Op]:
        return [op for op in self.ops if not op.ok]

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)
