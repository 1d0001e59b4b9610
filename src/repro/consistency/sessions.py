"""Session guarantees: client-centric consistency checks.

Regular semantics is a *global* property.  Edge-service users experience
consistency per **session** — the sequence of operations one client
issues — and the classic session guarantees (Terry et al., the Bayou
lineage the paper's ROWA-Async baseline comes from) decompose it:

* **read your writes** — a read returns the client's own latest
  preceding write, or something newer;
* **monotonic reads** — a client's successive reads never go backwards.

Regular semantics implies both for non-concurrent operations, so DQVL
and the strong baselines satisfy them by construction; ROWA-Async
violates both the moment a client's session is redirected to a replica
its writes have not reached — the user-visible form of the paper's
criticism, and the check travel-agency bugs are made of.

Clock comparisons use the protocols' logical clocks, which all grow
along each client's session (every client here issues operations
sequentially).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..types import READ, WRITE, ZERO_LC, LogicalClock, Op
from .history import History

__all__ = [
    "SessionViolation",
    "check_read_your_writes",
    "check_monotonic_reads",
    "check_session_guarantees",
]


@dataclass
class SessionViolation:
    """One read that broke a session guarantee."""

    guarantee: str  # "read-your-writes" | "monotonic-reads"
    client: str
    read: Op
    expected_at_least: LogicalClock

    def __str__(self) -> str:
        return (
            f"{self.guarantee} violation for client {self.client}: read "
            f"{self.read.key}={self.read.value!r}@{self.read.lc} at "
            f"[{self.read.start:.1f},{self.read.end:.1f}] but the session "
            f"had already seen/written {self.expected_at_least}"
        )


def _sessions(history: History) -> Dict[str, List[Op]]:
    """Operations grouped by client, in invocation order."""
    sessions: Dict[str, List[Op]] = {}
    for op in sorted(history.ops, key=lambda o: (o.start, o.end)):
        if op.ok:
            sessions.setdefault(op.client, []).append(op)
    return sessions


def check_read_your_writes(history: History) -> List[SessionViolation]:
    """Each client's reads return at least its own latest prior write.

    Checked per key within each client's session, using the write's
    logical clock as the floor the read must reach.
    """
    violations: List[SessionViolation] = []
    for client, ops in _sessions(history).items():
        last_write: Dict[str, LogicalClock] = {}
        for op in ops:
            if op.kind == WRITE:
                key_floor = last_write.get(op.key, ZERO_LC)
                last_write[op.key] = max(key_floor, op.lc)
            else:
                floor = last_write.get(op.key, ZERO_LC)
                if op.lc < floor:
                    violations.append(
                        SessionViolation("read-your-writes", client, op, floor)
                    )
    return violations


def check_monotonic_reads(history: History) -> List[SessionViolation]:
    """Each client's successive reads of a key never regress."""
    violations: List[SessionViolation] = []
    for client, ops in _sessions(history).items():
        high_water: Dict[str, LogicalClock] = {}
        for op in ops:
            if op.kind != READ:
                continue
            floor = high_water.get(op.key, ZERO_LC)
            if op.lc < floor:
                violations.append(
                    SessionViolation("monotonic-reads", client, op, floor)
                )
            else:
                high_water[op.key] = op.lc
    return violations


def check_session_guarantees(history: History) -> List[SessionViolation]:
    """Both guarantees together (the union of violations)."""
    return check_read_your_writes(history) + check_monotonic_reads(history)
