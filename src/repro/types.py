"""Shared value types used across protocols.

Logical clocks
--------------
The paper orders writes by *logical clocks*.  Comparisons like
``lastWriteLC_o`` vs. an incoming write's clock require a **total**
order, so ties between concurrent writers must be broken
deterministically.  :class:`LogicalClock` therefore is a
``(counter, node_id)`` pair ordered lexicographically — the classic
Lamport construction.

Operation results
-----------------
Every protocol client returns :class:`ReadResult` / :class:`WriteResult`
records so the harness, the consistency checker and the tests are
protocol-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

__all__ = ["LogicalClock", "ZERO_LC", "ReadResult", "WriteResult"]


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


@dataclass
class ReadResult:
    """Outcome of a client read.

    Attributes
    ----------
    key:
        Object identifier.
    value:
        The returned value (``None`` for a never-written object).
    lc:
        Logical clock of the generating write (``ZERO_LC`` if none).
    start_time / end_time:
        Simulated invocation and response instants — the consistency
        checker uses these intervals to decide concurrency.
    client:
        Issuing service-client id.
    server:
        Replica that served the read (when meaningful).
    hit:
        For cache-based protocols: True when served without contacting
        a remote quorum (DQVL read hit).
    degraded:
        True when a front end served a remembered local value because
        the read's storage attempt failed.  The value may be stale;
        regularity is not claimed for it — the consistency checker
        skips degraded reads and the chaos campaign counts them
        separately.
    staleness_ms / staleness_bound_ms:
        For degraded reads: the served value's age of information
        (simulated time since the front end last confirmed it against
        the storage layer) and the advertised bound the front end
        guarantees never to exceed.
    """

    key: str
    value: Any
    lc: LogicalClock
    start_time: float
    end_time: float
    client: str = ""
    server: Optional[str] = None
    hit: Optional[bool] = None
    degraded: bool = False
    staleness_ms: Optional[float] = None
    staleness_bound_ms: Optional[float] = None

    @property
    def latency(self) -> float:
        return self.end_time - self.start_time


@dataclass
class WriteResult:
    """Outcome of a client write (completion acknowledged)."""

    key: str
    value: Any
    lc: LogicalClock
    start_time: float
    end_time: float
    client: str = ""
    suppressed: Optional[bool] = None

    @property
    def latency(self) -> float:
        return self.end_time - self.start_time
