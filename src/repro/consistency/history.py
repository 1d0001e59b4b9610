"""Operation histories.

A :class:`History` keeps every client operation as the
:class:`~repro.types.Op` its client returned — an interval (invocation
time → response time) plus its value and logical clock.  The checkers
in :mod:`repro.consistency.regular` operate on these records, and the
harness's metrics are derived from them.

:attr:`History.ops` is a plain list in recording order and the only
state: the workload drivers append what
:func:`~repro.workload.runner.issue` returns, ``full_history()`` and
tests assign it.
Queries derive what they need from it on every call —
:meth:`History.by_key` in one pass for all keys, which is what a checker
should start from; ``reads(key)`` / ``writes(key)`` cost a pass each.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..types import READ, WRITE, Op

__all__ = ["History"]


class History:
    """An append-only log of operations across all clients."""

    def __init__(self) -> None:
        self.ops: List[Op] = []

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
