"""Threshold (majority / Gifford-style) quorum systems.

:class:`MajorityQuorumSystem` generalises the classic majority quorum: a
read quorum is *any* ``r`` nodes and a write quorum *any* ``w`` nodes
with ``r + w > n``.  The defaults give the symmetric majority system the
paper compares against (``r = w = floor(n/2) + 1``).

:class:`SingleNodeQuorumSystem` is the degenerate one-node system used to
model a primary site, and is also handy as the IQS in unit tests.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Optional, Sequence, Set

from .system import QuorumSystem

__all__ = ["MajorityQuorumSystem", "SingleNodeQuorumSystem", "binomial_tail"]


def binomial_tail(n: int, k: int, q: float) -> float:
    """P[X >= k] for X ~ Binomial(n, q) — exact summation.

    Used for closed-form threshold-quorum availability, where *q* is the
    per-node probability of being alive.
    """
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    total = 0.0
    for i in range(k, n + 1):
        total += math.comb(n, i) * q**i * (1.0 - q) ** (n - i)
    return min(1.0, total)


class MajorityQuorumSystem(QuorumSystem):
    """Any ``read_size`` nodes form a read quorum; any ``write_size`` a
    write quorum.  Intersection requires ``read_size + write_size > n``.

    Parameters default to simple majorities of the node set.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        read_size: Optional[int] = None,
        write_size: Optional[int] = None,
    ) -> None:
        super().__init__(nodes)
        n = len(self.nodes)
        majority = n // 2 + 1
        self._read_size = majority if read_size is None else read_size
        self._write_size = majority if write_size is None else write_size
        if not 1 <= self._read_size <= n:
            raise ValueError(f"read_size {self._read_size} out of range for n={n}")
        if not 1 <= self._write_size <= n:
            raise ValueError(f"write_size {self._write_size} out of range for n={n}")
        if self._read_size + self._write_size <= n:
            raise ValueError(
                f"read_size + write_size must exceed n for intersection "
                f"({self._read_size} + {self._write_size} <= {n})"
            )

    # -- predicates ---------------------------------------------------------

    def is_read_quorum(self, members: Set[str]) -> bool:
        return len(self._node_set.intersection(members)) >= self._read_size

    def is_write_quorum(self, members: Set[str]) -> bool:
        return len(self._node_set.intersection(members)) >= self._write_size

    # -- selection -------------------------------------------------------------

    def _sample(self, rng, size: int, prefer: Optional[str]) -> FrozenSet[str]:
        pool = list(self.nodes)
        chosen = []
        if prefer is not None and prefer in pool:
            chosen.append(prefer)
            pool.remove(prefer)
        chosen.extend(rng.sample(pool, size - len(chosen)))
        return frozenset(chosen)

    def sample_read_quorum(self, rng, prefer: Optional[str] = None) -> FrozenSet[str]:
        return self._sample(rng, self._read_size, prefer)

    def sample_write_quorum(self, rng, prefer: Optional[str] = None) -> FrozenSet[str]:
        return self._sample(rng, self._write_size, prefer)

    # -- sizes -------------------------------------------------------------------

    @property
    def read_quorum_size(self) -> int:
        return self._read_size

    @property
    def write_quorum_size(self) -> int:
        return self._write_size

    # -- closed-form availability ---------------------------------------------------

    def read_availability(self, p: float) -> float:
        return binomial_tail(self.size, self._read_size, 1.0 - p)

    def write_availability(self, p: float) -> float:
        return binomial_tail(self.size, self._write_size, 1.0 - p)


class SingleNodeQuorumSystem(QuorumSystem):
    """One designated node is both the read and the write quorum.

    Models the primary in a primary/backup scheme (the backups replicate
    state but take no part in quorum formation), and the degenerate
    single-server configuration of traditional lease protocols.
    """

    def __init__(self, node: str) -> None:
        super().__init__([node])

    def is_read_quorum(self, members: Set[str]) -> bool:
        return self.nodes[0] in members

    def is_write_quorum(self, members: Set[str]) -> bool:
        return self.nodes[0] in members

    def sample_read_quorum(self, rng, prefer: Optional[str] = None) -> FrozenSet[str]:
        return frozenset(self.nodes)

    def sample_write_quorum(self, rng, prefer: Optional[str] = None) -> FrozenSet[str]:
        return frozenset(self.nodes)

    @property
    def read_quorum_size(self) -> int:
        return 1

    @property
    def write_quorum_size(self) -> int:
        return 1

    def read_availability(self, p: float) -> float:
        return 1.0 - p

    def write_availability(self, p: float) -> float:
        return 1.0 - p
