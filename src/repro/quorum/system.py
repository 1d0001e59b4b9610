"""Quorum systems as expressions over nodes.

A *quorum system* over a set of nodes defines read quorums and write
quorums such that every read quorum intersects every write quorum (this
is what makes a quorum-replicated register *regular*: a read that reaches
a read quorum is guaranteed to see the newest completed write at one of
its members).

The dual-quorum protocol composes two such systems — the IQS and the
OQS — each independently configurable: the paper's recommended
configuration pairs a read-one/write-all OQS with a majority IQS, and
its future-work section considers grid-quorum IQS and larger OQS read
quorums.  Following "Read-Write Quorum Systems Made Practical", every
shape is a pair of small monotone boolean expressions built from four
constructors:

* :func:`node` — the quorum ``{name}``;
* :func:`any_of` — a quorum of any one child;
* :func:`all_of` — a quorum of every child;
* :func:`choose` — quorums of ``k`` children, or of children holding
  ``k`` votes when ``votes`` is given (Gifford weighted voting).

:class:`QuorumSystem` pairs a read and a write expression over one node
list.  :meth:`repro.quorum.spec.QuorumSpec.build` is the only code that
knows the named shapes (majority, grid, ROWA, single, weighted); the
closed-form availability of each shape lives in
:func:`repro.analysis.availability.quorum_availability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, Optional, Sequence, Set, Tuple, Union

__all__ = ["Expr", "QuorumSystem", "node", "any_of", "all_of", "choose"]


@dataclass(frozen=True)
class Expr:
    """A frozen quorum expression; build it with the four constructors.

    ``is_quorum(members)`` is true when the iterable *members* contains a
    quorum; ``sample(rng, prefer=None)`` draws a minimal quorum;
    ``min_size`` is the smallest quorum's cardinality (exact when the
    children of an ``all_of`` or ``choose`` share no node, as in every
    shape :class:`QuorumSpec` builds).  On a flat expression over nodes
    the predicate is one set operation and each is a single call.
    """

    op: str  # "node", "any", "all" or "choose"
    children: Tuple["Expr", ...] = ()
    k: int = 0
    votes: Optional[Tuple[int, ...]] = None
    name: Optional[str] = None

    nodes: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    node_set: FrozenSet[str] = field(init=False, repr=False, compare=False)
    min_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        op, children, votes, k = self.op, self.children, self.votes, self.k
        if op == "node":
            nodes: Tuple[str, ...] = (self.name,)
            min_size, flat = 1, True
        elif not children:
            raise ValueError(f"{op} needs at least one child")
        else:
            nodes = tuple(dict.fromkeys(n for child in children for n in child.nodes))
            sizes = [child.min_size for child in children]
            flat = votes is None and all(child.op == "node" for child in children)
            if op == "any":
                min_size = min(sizes)
            elif op == "all":
                min_size = sum(sizes)
            elif votes is not None and (len(votes) != len(children) or min(votes) < 1):
                raise ValueError("choose needs one positive vote count per child")
            elif not 1 <= k <= (len(children) if votes is None else sum(votes)):
                raise ValueError(f"choose threshold {k} out of range")
            elif votes is None:
                min_size = sum(sorted(sizes)[:k])
            else:
                # fewest children reaching k votes: take the heaviest first
                min_size = total = 0
                for weight, size in sorted(zip(votes, sizes), key=lambda vs: -vs[0]):
                    min_size, total = min_size + size, total + weight
                    if total >= k:
                        break
        node_set = frozenset(nodes)
        holds, draw = _flat("all" if op == "node" else op, nodes, node_set, k) if flat else (None, None)
        for name, value in (("nodes", nodes), ("node_set", node_set), ("min_size", min_size),
                            ("_holds", holds), ("_draw", draw)):
            object.__setattr__(self, name, value)

    @property
    def is_quorum(self) -> Callable[[Iterable[str]], bool]:
        """``is_quorum(members)``: does the iterable *members* contain a quorum?"""
        return self._holds or self._tree_holds

    @property
    def sample(self) -> Callable[..., FrozenSet[str]]:
        """``sample(rng, prefer=None)``: a minimal quorum drawn from *rng*."""
        return self._draw or self._sample_tree

    def _tree_holds(self, members) -> bool:
        members = set(members)
        need = self.k if self.op == "choose" else 1 if self.op == "any" else len(self.children)
        weights = self.votes or (1,) * len(self.children)
        return sum(w for child, w in zip(self.children, weights) if child.is_quorum(members)) >= need

    # -- selection --------------------------------------------------------------

    def _sample_tree(self, rng, prefer: Optional[str] = None) -> FrozenSet[str]:
        chosen: Set[str] = set()
        self._add(rng, prefer, chosen)
        return frozenset(chosen)

    def _pins(self, prefer: str) -> bool:
        """True when every quorum this expression draws holds *prefer* by
        construction: the node itself, or an ``all_of`` over a child that
        pins it."""
        if self.op == "node":
            return self.name == prefer
        return self.op == "all" and any(child._pins(prefer) for child in self.children)

    def _add(self, rng, prefer: Optional[str], chosen: Set[str]) -> None:
        """Add a minimal quorum of this expression to *chosen*."""
        if self.op == "node":
            chosen.add(self.name)
            return
        children = self.children
        if self.op == "all":
            for child in children:
                if not child.is_quorum(chosen):
                    child._add(rng, prefer, chosen)
            return
        # prefer forces the first child that pins it
        forced = next((i for i, child in enumerate(children) if child._pins(prefer)),
                      None) if prefer in self.node_set else None
        if self.op == "any":
            child = children[forced] if forced is not None else rng.choice(children)
            child._add(rng, prefer, chosen)
            return
        if self.votes is None:
            pool = [i for i in range(len(children)) if i != forced]
            picks = rng.sample(pool, self.k - (forced is not None))
            if forced is not None:
                picks.append(forced)
        else:
            # Shuffle, take children until the votes reach k (``prefer``'s
            # child first), then prune the lightest members not needed.
            votes = self.votes
            order = list(range(len(children)))
            rng.shuffle(order)
            if forced is not None:
                order.remove(forced)
                order.insert(0, forced)
            picks, total = [], 0
            for i in order:
                picks.append(i)
                total += votes[i]
                if total >= self.k:
                    break
            for i in sorted(picks, key=lambda i: (i == forced, votes[i])):
                if total - votes[i] >= self.k:
                    picks.remove(i)
                    total -= votes[i]
        for i in picks:
            children[i]._add(rng, prefer, chosen)


def _flat(op: str, nodes: Tuple[str, ...], node_set: FrozenSet[str], k: int):
    """Predicate and sampler of a flat ``any``/``all``/``choose`` over
    *nodes*, closed over data only — never over the expression, so an
    expression is never a reference cycle."""
    if op == "all":
        def everyone(rng, prefer: Optional[str] = None) -> FrozenSet[str]:
            return node_set
        return node_set.issubset, everyone

    if op == "any":
        def meets(members) -> bool:
            return not node_set.isdisjoint(members)

        def one(rng, prefer: Optional[str] = None) -> FrozenSet[str]:
            if prefer in node_set:
                return frozenset((prefer,))
            return frozenset((rng.choice(nodes),))
        return meets, one

    def counts(members) -> bool:
        return len(node_set.intersection(members)) >= k

    def k_of(rng, prefer: Optional[str] = None) -> FrozenSet[str]:
        pool = list(nodes)
        if prefer in node_set:
            pool.remove(prefer)
            chosen = rng.sample(pool, k - 1)
            chosen.append(prefer)
            return frozenset(chosen)
        return frozenset(rng.sample(pool, k))
    return counts, k_of


def node(name: str) -> Expr:
    """The quorum consisting of node *name* alone."""
    return Expr("node", name=name)


def _exprs(xs: Iterable[Union[Expr, str]]) -> Tuple[Expr, ...]:
    return tuple(x if isinstance(x, Expr) else node(x) for x in xs)


def any_of(xs: Iterable[Union[Expr, str]]) -> Expr:
    """A quorum of any one of *xs* (node ids or expressions)."""
    return Expr("any", _exprs(xs))


def all_of(xs: Iterable[Union[Expr, str]]) -> Expr:
    """A quorum of every one of *xs*."""
    return Expr("all", _exprs(xs))


def choose(k: int, xs: Iterable[Union[Expr, str]],
           votes: Optional[Sequence[int]] = None) -> Expr:
    """Quorums of *k* of *xs* — or, given one vote count per child, of
    children whose votes add up to at least *k*."""
    return Expr("choose", _exprs(xs), k, None if votes is None else tuple(votes))


class QuorumSystem:
    """A read and a write expression over one node list.

    The predicates and samplers are the expressions' own (fetched once
    here, so a check or a draw on the hot path is a single call):
    ``is_read_quorum(members)``, ``is_write_quorum(members)``,
    ``sample_read_quorum(rng, prefer=None)`` and
    ``sample_write_quorum(rng, prefer=None)``.  A *prefer* node is the
    paper's prototype policy of asking the local node first: the draw
    forces the first child that pins it (the node itself, or an
    ``all_of`` over such a child), so every shape but weighted voting
    (which only tries it first) includes it.
    """

    def __init__(self, nodes: Sequence[str], read: Expr, write: Expr) -> None:
        if not nodes:
            raise ValueError("a quorum system needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node ids in quorum system")
        if not (read.node_set | write.node_set) <= set(nodes):
            raise ValueError("quorum expressions name nodes outside the system")
        self.nodes: Tuple[str, ...] = tuple(nodes)
        self.read = read
        self.write = write
        self.is_read_quorum = read.is_quorum
        self.is_write_quorum = write.is_quorum
        self.sample_read_quorum = read.sample
        self.sample_write_quorum = write.sample

    def sample_read_quorum_biased(self, rng, preferred: Set[str]) -> FrozenSet[str]:
        """A minimal read quorum overlapping *preferred* as much as possible.

        Used by QRPC's ``favour=``: DQVL's OQS nodes keep renewing
        volumes and objects from the *same* IQS servers across requests,
        which is what lets one volume-lease renewal amortise over all
        objects of the volume.  Samples a quorum, then greedily swaps
        members for preferred nodes while the quorum property holds.
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
