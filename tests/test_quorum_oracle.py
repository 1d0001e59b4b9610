"""Selection oracle for the quorum expressions.

``legacy(spec, nodes)`` is the five hand-written shape classes (majority,
single node, grid, ROWA, weighted voting) as they were before every shape
became a pair of expressions: their predicates, samplers and minimal
sizes, frozen here as the reference.  Runs are seeded, so a sampler that
consumed the RNG differently would move every later draw of a run; the
expressions must match them draw for draw, on every shape ``repro tune``
enumerates plus two weighted ones.
"""

import itertools
import math
import random
import warnings

import pytest

from repro.core.cluster import _check_owq_safety
from repro.quorum import QuorumSpec
from repro.tune import iqs_candidates, oqs_candidates


class Legacy:
    def __init__(self, nodes, is_read, is_write, sample_read, sample_write, r, w):
        self.nodes = tuple(nodes)
        self.is_read_quorum, self.is_write_quorum = is_read, is_write
        self.sample_read_quorum, self.sample_write_quorum = sample_read, sample_write
        self.read_size, self.write_size = r, w


def _legacy_threshold(nodes, r, w):
    node_set = frozenset(nodes)

    def sampler(size):
        def sample(rng, prefer=None):
            pool, chosen = list(nodes), []
            if prefer is not None and prefer in pool:
                chosen.append(prefer)
                pool.remove(prefer)
            chosen.extend(rng.sample(pool, size - len(chosen)))
            return frozenset(chosen)
        return sample

    return Legacy(nodes, lambda m: len(node_set.intersection(m)) >= r,
                  lambda m: len(node_set.intersection(m)) >= w, sampler(r), sampler(w), r, w)


def _legacy_grid(nodes, rows, cols):
    base, extra = divmod(len(nodes), cols)
    columns, start = [], 0
    for c in range(cols):
        height = base + (1 if c < extra else 0)
        columns.append(list(nodes[start:start + height]))
        start += height

    def is_read(members):
        members = set(members)
        return all(any(n in members for n in col) for col in columns)

    def is_write(members):
        members = set(members)
        return is_read(members) and any(all(n in members for n in col) for col in columns)

    def sample_read(rng, prefer=None):
        return frozenset(prefer if prefer is not None and prefer in col else rng.choice(col)
                         for col in columns)

    def sample_write(rng, prefer=None):
        if prefer is not None and prefer in nodes:
            full = next(c for c, col in enumerate(columns) if prefer in col)
        else:
            full = rng.randrange(cols)
        chosen = set(columns[full])
        for c, col in enumerate(columns):
            if c != full:
                chosen.add(prefer if prefer is not None and prefer in col else rng.choice(col))
        return frozenset(chosen)

    shortest = min(len(col) for col in columns)
    return Legacy(nodes, is_read, is_write, sample_read, sample_write, cols, shortest + cols - 1)


def _legacy_weighted(votes, rt, wt):
    nodes = sorted(votes)

    def min_nodes(threshold):
        total = 0
        for count, weight in enumerate(sorted(votes.values(), reverse=True), start=1):
            total += weight
            if total >= threshold:
                return count
        return len(nodes)

    def sampler(threshold):
        def sample(rng, prefer=None):
            pool = list(nodes)
            rng.shuffle(pool)
            if prefer is not None and prefer in pool:
                pool.remove(prefer)
                pool.insert(0, prefer)
            chosen, total = [], 0
            for n in pool:
                chosen.append(n)
                total += votes[n]
                if total >= threshold:
                    break
            for n in sorted(chosen, key=lambda n: (n == prefer, votes[n])):
                if total - votes[n] >= threshold:
                    chosen.remove(n)
                    total -= votes[n]
            return frozenset(chosen)
        return sample

    def count(m):
        return sum(votes.get(n, 0) for n in set(m))

    return Legacy(nodes, lambda m: count(m) >= rt, lambda m: count(m) >= wt,
                  sampler(rt), sampler(wt), min_nodes(rt), min_nodes(wt))


def legacy(spec, nodes):
    """The hand-written shape class for *spec* over *nodes*."""
    n = len(nodes)
    if spec.kind == "majority":
        return _legacy_threshold(nodes, spec.read_size or n // 2 + 1,
                                 spec.write_size or n // 2 + 1)
    if spec.kind == "grid":
        rows = spec.rows or max(1, math.isqrt(n))
        return _legacy_grid(nodes, rows, spec.cols or math.ceil(n / rows))
    if spec.kind == "rowa":
        node_set = frozenset(nodes)
        return Legacy(
            nodes, lambda m: not node_set.isdisjoint(m), node_set.issubset,
            lambda rng, prefer=None: frozenset(
                [prefer if prefer is not None and prefer in nodes else rng.choice(nodes)]),
            lambda rng, prefer=None: node_set, 1, n)
    if spec.kind == "single":
        only = nodes[0]
        return Legacy([only], lambda m: only in m, lambda m: only in m,
                      lambda rng, prefer=None: frozenset([only]),
                      lambda rng, prefer=None: frozenset([only]), 1, 1)
    return _legacy_weighted(dict(zip(nodes, spec.votes)),
                            spec.read_threshold, spec.write_threshold)


def nodes(n):
    # reversed, so sorting the ids (weighted voting) reorders them
    return [f"n{n - 1 - i}" for i in range(n)]


def specs(n):
    """Every shape the tuner enumerates at *n*, plus two weighted ones."""
    mixed = tuple(1 + i % 3 for i in range(n))
    total = sum(mixed)
    out = iqs_candidates(n) + oqs_candidates(n) + [
        QuorumSpec(kind="weighted", votes=mixed,
                   read_threshold=total // 2 + 1, write_threshold=total - total // 2),
        QuorumSpec(kind="weighted", votes=(n,) + (1,) * (n - 1),
                   read_threshold=n, write_threshold=n),
    ]
    return list(dict.fromkeys(out))


CASES = [(spec, n) for n in range(1, 10) for spec in specs(n)]
SMALL = [(spec, n) for spec, n in CASES if n <= 6]


def subsets(members):
    return (frozenset(c) for k in range(len(members) + 1)
            for c in itertools.combinations(members, k))


@pytest.mark.parametrize("spec,n", CASES, ids=lambda v: str(v))
def test_sampling_matches_legacy_draw_for_draw(spec, n):
    new, old = spec.build(nodes(n)), legacy(spec, nodes(n))
    assert new.nodes == old.nodes
    for seed in range(20):
        rng_new, rng_old = random.Random(seed), random.Random(seed)
        for prefer in [None, *nodes(n), "stranger"]:
            for kind in ("read", "write"):
                got = getattr(new, f"sample_{kind}_quorum")(rng_new, prefer=prefer)
                want = getattr(old, f"sample_{kind}_quorum")(rng_old, prefer=prefer)
                assert got == want, (kind, seed, prefer)
                assert rng_new.getstate() == rng_old.getstate(), (kind, seed, prefer)


@pytest.mark.parametrize("spec,n", CASES, ids=lambda v: str(v))
def test_predicates_match_legacy_on_every_subset(spec, n):
    new, old = spec.build(nodes(n)), legacy(spec, nodes(n))
    for members in subsets(nodes(n) + ["stranger"]):
        assert new.is_read_quorum(members) == old.is_read_quorum(members), members
        assert new.is_write_quorum(members) == old.is_write_quorum(members), members


@pytest.mark.parametrize("spec,n", SMALL, ids=lambda v: str(v))
def test_exhaustive_sizes_intersection_and_owq_warning(spec, n):
    system = spec.build(nodes(n))
    everything = frozenset(system.nodes)
    reads = [s for s in subsets(system.nodes) if system.is_read_quorum(s)]
    writes = [s for s in subsets(system.nodes) if system.is_write_quorum(s)]
    old = legacy(spec, nodes(n))
    assert system.read.min_size == min(map(len, reads)) == old.read_size
    assert system.write.min_size == min(map(len, writes)) == old.write_size
    assert all(r & w for r in reads for w in writes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _check_owq_safety(system)
    assert bool(caught) == any(w < everything for w in writes)
