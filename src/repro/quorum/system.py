"""Quorum system abstraction.

A *quorum system* over a set of nodes defines read quorums and write
quorums such that every read quorum intersects every write quorum (this
is what makes a quorum-replicated register *regular*: a read that reaches
a read quorum is guaranteed to see the newest completed write at one of
its members).

The dual-quorum protocol composes two such systems — the IQS and the
OQS — each independently configurable, which is exactly why the
abstraction matters here: the paper's recommended configuration pairs a
read-one/write-all OQS with a majority IQS, and its future-work section
considers grid-quorum IQS and larger OQS read quorums.  All of those are
instances of this interface.

Concrete systems in this package:

================================  ========================================
:class:`~repro.quorum.majority.MajorityQuorumSystem`   any ``r`` nodes read, any ``w`` write, ``r + w > n``
:class:`~repro.quorum.rowa.RowaQuorumSystem`           read any 1, write all
:class:`~repro.quorum.grid.GridQuorumSystem`           rows × columns grid (Cheung et al.)
:class:`~repro.quorum.weighted.WeightedVotingSystem`   Gifford weighted voting
:class:`~repro.quorum.majority.SingleNodeQuorumSystem` a designated primary
================================  ========================================
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["QuorumSystem", "exact_quorum_availability", "monte_carlo_quorum_availability"]


class QuorumSystem(ABC):
    """Abstract base for quorum systems over named nodes."""

    def __init__(self, nodes: Sequence[str]) -> None:
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node ids in quorum system")
        if not nodes:
            raise ValueError("a quorum system needs at least one node")
        self.nodes: Tuple[str, ...] = tuple(nodes)
        #: built once: threshold / ROWA predicates are one set operation on it
        self._node_set: FrozenSet[str] = frozenset(self.nodes)

    # -- membership predicates ---------------------------------------------

    @abstractmethod
    def is_read_quorum(self, members: Iterable[str]) -> bool:
        """True if *members* (any iterable) contains a full read quorum."""

    @abstractmethod
    def is_write_quorum(self, members: Iterable[str]) -> bool:
        """True if *members* (any iterable) contains a full write quorum."""

    # -- quorum selection ----------------------------------------------------

    @abstractmethod
    def sample_read_quorum(self, rng, prefer: Optional[str] = None) -> FrozenSet[str]:
        """A minimal read quorum chosen at random.

        When *prefer* names a member node, the sampled quorum includes it
        if any minimal quorum does — this implements the paper's
        prototype policy of always sending to the local node first.
        """

    @abstractmethod
    def sample_write_quorum(self, rng, prefer: Optional[str] = None) -> FrozenSet[str]:
        """A minimal write quorum chosen at random (see above)."""

    def sample_read_quorum_biased(self, rng, preferred: Set[str]) -> FrozenSet[str]:
        """A minimal read quorum overlapping *preferred* as much as possible.

        Used by QRPC's ``favour=``: DQVL's OQS nodes keep renewing
        volumes and objects from the *same* IQS servers across requests,
        which is what lets one volume-lease renewal amortise over all
        objects of the volume.  The default implementation samples a
        quorum and greedily swaps members for preferred nodes while the
        quorum property is preserved; subclasses may do better.
        """
        quorum = set(self.sample_read_quorum(rng))
        for candidate in sorted(preferred):
            if candidate in quorum or candidate not in self.nodes:
                continue
            for member in sorted(quorum):
                if member in preferred:
                    continue
                trial = (quorum - {member}) | {candidate}
                if self.is_read_quorum(trial):
                    quorum = trial
                    break
        return frozenset(quorum)

    # -- sizes (used by the analytical overhead model) -----------------------

    @property
    @abstractmethod
    def read_quorum_size(self) -> int:
        """Cardinality of a minimal read quorum."""

    @property
    @abstractmethod
    def write_quorum_size(self) -> int:
        """Cardinality of a minimal write quorum."""

    @property
    def size(self) -> int:
        """Number of nodes in the system."""
        return len(self.nodes)

    # -- availability ---------------------------------------------------------

    def read_availability(self, p: float) -> float:
        """Probability a read quorum of live nodes exists.

        Nodes fail independently with probability *p* (the paper's model).
        Subclasses override with closed forms; this default enumerates all
        live-sets for small systems and falls back to Monte Carlo.
        """
        return exact_quorum_availability(self.nodes, self.is_read_quorum, p)

    def write_availability(self, p: float) -> float:
        """Probability a write quorum of live nodes exists."""
        return exact_quorum_availability(self.nodes, self.is_write_quorum, p)

    # -- validation -------------------------------------------------------------

    def check_intersection(self, rng, trials: int = 200) -> None:
        """Assert sampled read quorums intersect sampled write quorums.

        Concrete systems are constructed to guarantee intersection; this
        randomized check is used by tests (and is exhaustive in spirit
        for the highly symmetric systems here, where all quorums are
        isomorphic under node permutation).
        """
        for _ in range(trials):
            rq = self.sample_read_quorum(rng)
            wq = self.sample_write_quorum(rng)
            if not (rq & wq):
                raise AssertionError(
                    f"{type(self).__name__}: read quorum {sorted(rq)} does not "
                    f"intersect write quorum {sorted(wq)}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} n={self.size} r={self.read_quorum_size} w={self.write_quorum_size}>"


def exact_quorum_availability(
    nodes: Sequence[str],
    is_quorum,
    p: float,
    enumeration_limit: int = 20,
    mc_trials: int = 200_000,
    mc_seed: int = 1234,
) -> float:
    """Probability that the live-node set contains a quorum.

    Exact for systems with at most *enumeration_limit* nodes (sums over
    all ``2^n`` live-sets); Monte Carlo beyond that.  Exactness matters
    for reproducing Figure 8, where unavailabilities reach ``1e-12`` —
    far below Monte Carlo resolution — so every system used in the
    figures supplies a closed form instead of relying on this helper.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    n = len(nodes)
    if n <= enumeration_limit:
        total = 0.0
        node_list = list(nodes)
        for bits in range(1 << n):
            live = {node_list[i] for i in range(n) if bits & (1 << i)}
            if is_quorum(live):
                k = len(live)
                total += (1.0 - p) ** k * p ** (n - k)
        return total
    return monte_carlo_quorum_availability(nodes, is_quorum, p, mc_trials, mc_seed)


def monte_carlo_quorum_availability(
    nodes: Sequence[str], is_quorum, p: float, trials: int = 200_000, seed: int = 1234
) -> float:
    """Monte Carlo estimate of quorum availability (large systems)."""
    import random

    rng = random.Random(seed)
    node_list = list(nodes)
    hits = 0
    for _ in range(trials):
        live = {node for node in node_list if rng.random() >= p}
        if is_quorum(live):
            hits += 1
    return hits / trials
