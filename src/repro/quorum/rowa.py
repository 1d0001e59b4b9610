"""Read-One/Write-All as a quorum system.

ROWA is the extreme point of the threshold trade-off: read quorums are
singletons (best possible read latency and availability) while the write
quorum is the full node set (worst possible write availability).  The
paper treats ROWA separately from general quorums, as the literature
does, but it *is* a quorum system — and, importantly, it is exactly the
configuration the dual-quorum design recommends for the **OQS** ("span
all nodes with a read quorum size of 1").
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Set

from .system import QuorumSystem

__all__ = ["RowaQuorumSystem"]


class RowaQuorumSystem(QuorumSystem):
    """Read quorum = any single node; write quorum = all nodes."""

    def is_read_quorum(self, members: Set[str]) -> bool:
        return not self._node_set.isdisjoint(members)

    def is_write_quorum(self, members: Set[str]) -> bool:
        return self._node_set.issubset(members)

    def sample_read_quorum(self, rng, prefer: Optional[str] = None) -> FrozenSet[str]:
        if prefer is not None and prefer in self.nodes:
            return frozenset([prefer])
        return frozenset([rng.choice(self.nodes)])

    def sample_write_quorum(self, rng, prefer: Optional[str] = None) -> FrozenSet[str]:
        return frozenset(self.nodes)

    @property
    def read_quorum_size(self) -> int:
        return 1

    @property
    def write_quorum_size(self) -> int:
        return self.size

    def read_availability(self, p: float) -> float:
        """Any node alive: ``1 - p^n``."""
        return 1.0 - p**self.size

    def write_availability(self, p: float) -> float:
        """All nodes alive: ``(1 - p)^n``."""
        return (1.0 - p) ** self.size
