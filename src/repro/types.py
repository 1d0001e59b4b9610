"""Shared value types used across protocols.

Logical clocks
--------------
The paper orders writes by *logical clocks*.  Comparisons like
``lastWriteLC_o`` vs. an incoming write's clock require a **total**
order, so ties between concurrent writers must be broken
deterministically.  :class:`LogicalClock` therefore is a
``(counter, node_id)`` pair ordered lexicographically — the classic
Lamport construction.

Operations
----------
:class:`Op` is the one record of a client operation.  Every client —
protocol service clients and application clients alike — returns one,
the workload drivers append it to a
:class:`~repro.consistency.history.History` as it is, and the harness,
the consistency checkers and the tests read it, protocol-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

__all__ = ["LogicalClock", "ZERO_LC", "READ", "WRITE", "Op"]


class LogicalClock(NamedTuple):
    """A totally ordered Lamport clock value.

    ``counter`` dominates; ``node_id`` breaks ties between distinct
    writers that picked the same counter concurrently.  The zero clock
    (``ZERO_LC``) tags the initial value of every object.  A tuple, so
    ordering, equality and hashing are the tuple's own, in C.
    """

    counter: int = 0
    node_id: str = ""

    def next(self, node_id: str) -> "LogicalClock":
        """The smallest clock at *node_id* strictly greater than self."""
        return LogicalClock(self.counter + 1, node_id)

    def merge(self, other: "LogicalClock") -> "LogicalClock":
        """The larger of the two clocks (Lamport merge)."""
        return self if self >= other else other

    def __str__(self) -> str:
        return f"{self.counter}@{self.node_id or '-'}"


ZERO_LC = LogicalClock(0, "")


READ = "read"
WRITE = "write"


@dataclass
class Op:
    """One client operation, completed or failed: the record a client
    returns, a history keeps and every checker and metric reads.

    ``start``/``end`` are the simulated invocation and response instants
    (the checkers use the interval to decide concurrency).  A failed
    operation has ``ok=False`` and the placeholder clock ``ZERO_LC``; a
    failed write keeps the value it attempted (see
    :func:`repro.workload.runner.issue`).
    """

    kind: str  # READ | WRITE
    key: str
    value: Any
    lc: LogicalClock
    start: float
    end: float
    client: str = ""
    ok: bool = True
    #: cache-based protocols: True when a read was served without
    #: contacting a remote quorum (DQVL read hit); metrics only
    hit: Optional[bool] = None
    #: the replica (or front end) that served a read, when meaningful
    server: Optional[str] = None
    #: degraded read: a front end served a remembered local value while
    #: its storage path was unreachable.  Regularity is not claimed, so
    #: the checkers skip these; the chaos availability report counts
    #: them separately and checks staleness_ms <= staleness_bound_ms
    #: (the value's age of information and the front end's advertised
    #: bound).
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
