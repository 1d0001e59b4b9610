"""Unit and property tests for the quorum systems and their availability."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.availability import (
    binomial_tail,
    exact_quorum_availability,
    quorum_availability,
)
from repro.quorum import QuorumSpec, QuorumSystem, all_of, any_of, choose, node


def nodes(n):
    return [f"n{i}" for i in range(n)]


def build(spec, n):
    return QuorumSpec.parse(spec).build(nodes(n))


def majority(n, r=None, w=None):
    return QuorumSpec(kind="majority", read_size=r, write_size=w).build(nodes(n))


def grid(n, rows, cols):
    return QuorumSpec(kind="grid", rows=rows, cols=cols).build(nodes(n))


def weighted(votes, r, w):
    spec = QuorumSpec(kind="weighted", votes=tuple(votes.values()),
                      read_threshold=r, write_threshold=w)
    return spec.build(list(votes))


class TestMajority:
    def test_default_majority_sizes(self):
        q = majority(9)
        assert q.read.min_size == 5
        assert q.write.min_size == 5
        assert q.read == choose(5, nodes(9))

    def test_even_count_majority(self):
        q = majority(4)
        assert q.read.min_size == 3

    def test_custom_sizes(self):
        q = majority(9, 3, 7)
        assert q.is_read_quorum(set(nodes(3)))
        assert not q.is_write_quorum(set(nodes(6)))
        assert q.is_write_quorum(set(nodes(7)))

    def test_intersection_constraint_enforced(self):
        with pytest.raises(ValueError):
            majority(9, 4, 5)

    def test_out_of_range_sizes(self):
        with pytest.raises(ValueError):
            majority(3, 0, 4)
        with pytest.raises(ValueError):
            majority(3, 2, 5)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            QuorumSpec(kind="majority").build(["a", "a", "b"])
        with pytest.raises(ValueError):
            QuorumSystem(["a", "a"], node("a"), node("a"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QuorumSystem([], node("a"), node("a"))

    def test_sample_is_minimal_and_contains_prefer(self):
        q = majority(9)
        rng = random.Random(0)
        for _ in range(50):
            quorum = q.sample_read_quorum(rng, prefer="n3")
            assert len(quorum) == 5
            assert "n3" in quorum
            assert q.is_read_quorum(quorum)

    def test_availability_closed_form_matches_enumeration(self):
        q = majority(7)
        p = 0.1
        exact = exact_quorum_availability(q.nodes, q.is_read_quorum, p)
        assert quorum_availability("majority", 7, p)[0] == pytest.approx(exact, rel=1e-9)

    def test_superset_is_quorum(self):
        q = majority(5)
        assert q.is_read_quorum(set(nodes(5)))

    def test_foreign_nodes_ignored(self):
        q = majority(3)
        assert not q.is_read_quorum({"x", "y", "z"})


class TestRowa:
    def test_sizes(self):
        q = build("rowa", 6)
        assert q.read.min_size == 1
        assert q.write.min_size == 6
        assert (q.read, q.write) == (any_of(nodes(6)), all_of(nodes(6)))

    def test_read_any_one(self):
        q = build("rowa", 4)
        assert q.is_read_quorum({"n2"})
        assert not q.is_read_quorum({"zzz"})

    def test_write_needs_all(self):
        q = build("rowa", 4)
        assert not q.is_write_quorum(set(nodes(3)))
        assert q.is_write_quorum(set(nodes(4)))

    def test_sample_prefers(self):
        q = build("rowa", 5)
        rng = random.Random(1)
        assert q.sample_read_quorum(rng, prefer="n4") == frozenset(["n4"])
        assert q.sample_write_quorum(rng) == frozenset(nodes(5))

    def test_availability_formulas(self):
        read, write = quorum_availability("rowa", 3, 0.1)
        assert read == pytest.approx(1 - 0.1**3)
        assert write == pytest.approx(0.9**3)


class TestSingleNode:
    def test_everything_is_that_node(self):
        q = QuorumSpec(kind="single").build(["primary", "backup"])
        assert q.nodes == ("primary",)
        assert q.is_read_quorum({"primary", "other"})
        assert not q.is_write_quorum({"other"})
        rng = random.Random(0)
        assert q.sample_read_quorum(rng) == frozenset(["primary"])
        assert quorum_availability("single", 2, 0.01) == pytest.approx((0.99, 0.99))


class TestGrid:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            grid(7, 2, 3)  # too many for 2x3
        with pytest.raises(ValueError):
            grid(4, 2, 3)  # last column empty
        with pytest.raises(ValueError):
            grid(1, 0, 0)

    def test_sizes(self):
        q = grid(12, 3, 4)
        assert q.read.min_size == 4
        assert q.write.min_size == 3 + 4 - 1

    def test_ragged_grid_sizes(self):
        # 7 nodes as <=3 rows x 3 cols: balanced columns of 3, 2, 2
        q = grid(7, 3, 3)
        assert q.read == all_of([any_of(["n0", "n1", "n2"]), any_of(["n3", "n4"]),
                                 any_of(["n5", "n6"])])
        assert q.read.min_size == 3
        assert q.write.min_size == 2 + 3 - 1  # shortest column is 2

    def test_balanced_fill_no_tiny_columns(self):
        # 21 nodes as 4x6 must balance to 4,4,4,3,3,3 — never a 1-column
        spec = QuorumSpec(kind="grid", rows=4, cols=6)
        assert spec.column_heights(21) == [4, 4, 4, 3, 3, 3]
        q = spec.build(nodes(21))
        assert sorted(len(c.nodes) for c in q.read.children) == [3, 3, 3, 4, 4, 4]

    def test_near_square_constructor(self):
        from repro.quorum.spec import default_grid_shape

        for n in (3, 5, 7, 9, 11, 15):
            rows, cols = default_grid_shape(n)
            assert rows * cols >= n > rows * (cols - 1)
            q = build("grid", n)
            assert len(q.nodes) == n
            assert len(q.read.children) == cols

    def test_read_quorum_is_column_cover(self):
        q = grid(6, 2, 3)
        # column-major: columns {n0,n1}, {n2,n3}, {n4,n5}
        assert q.is_read_quorum({"n0", "n2", "n4"})
        assert q.is_read_quorum({"n1", "n3", "n5"})
        assert not q.is_read_quorum({"n0", "n1", "n2"})  # col 3 uncovered

    def test_write_quorum_needs_full_column_plus_cover(self):
        q = grid(6, 2, 3)
        assert q.is_write_quorum({"n0", "n1", "n2", "n4"})  # col0 full + cover
        assert not q.is_write_quorum({"n0", "n2", "n4"})  # no full column

    def test_ragged_quorums_intersect(self):
        # by monotonicity, a read quorum misses some write quorum iff
        # its complement holds one
        for n in (5, 7, 11, 13):
            q = build("grid", n)
            for bits in range(1 << n):
                members = {x for i, x in enumerate(q.nodes) if bits >> i & 1}
                if q.is_read_quorum(members):
                    assert not q.is_write_quorum(set(q.nodes) - members)

    def test_sampled_quorums_valid(self):
        q = grid(12, 3, 4)
        rng = random.Random(2)
        for _ in range(50):
            assert q.is_read_quorum(q.sample_read_quorum(rng))
            assert q.is_write_quorum(q.sample_write_quorum(rng))

    def test_sample_write_prefer_pins_column(self):
        q = grid(6, 2, 3)
        rng = random.Random(3)
        wq = q.sample_write_quorum(rng, prefer="n1")
        assert {"n1", "n4"} <= wq  # full column of n1

    def test_availability_matches_enumeration(self):
        q = grid(6, 2, 3)
        p = 0.2
        read_exact = exact_quorum_availability(q.nodes, q.is_read_quorum, p)
        write_exact = exact_quorum_availability(q.nodes, q.is_write_quorum, p)
        read, write = quorum_availability("grid:2x3", 6, p)
        assert read == pytest.approx(read_exact, rel=1e-9)
        assert write == pytest.approx(write_exact, rel=1e-9)


class TestWeightedVoting:
    def test_thresholds_enforced(self):
        with pytest.raises(ValueError):
            weighted({"a": 2, "b": 1}, 1, 2)
        with pytest.raises(ValueError):
            weighted({}, 1, 1)
        with pytest.raises(ValueError):
            weighted({"a": 0}, 1, 1)
        with pytest.raises(ValueError):
            choose(2, ["a", "b"], votes=[1, 0])

    def test_vote_counting(self):
        q = weighted({"a": 3, "b": 1, "c": 1}, 3, 3)
        assert q.is_read_quorum({"a"})
        assert not q.is_read_quorum({"b", "c"})

    def test_min_nodes_sizes(self):
        q = weighted({"a": 3, "b": 1, "c": 1}, 4, 2)
        assert q.read.min_size == 2  # a + any other
        assert q.write.min_size == 1  # a alone

    def test_samples_meet_threshold(self):
        q = weighted({"a": 3, "b": 2, "c": 2, "d": 1}, 5, 4)
        rng = random.Random(4)
        for _ in range(50):
            assert q.is_read_quorum(q.sample_read_quorum(rng))
            assert q.is_write_quorum(q.sample_write_quorum(rng))


class TestExpr:
    def test_all_of_skips_satisfied_children(self):
        # the second child is met by the first's members: no draw for it
        expr = all_of([all_of(["a", "b"]), any_of(["a", "c"])])
        rng = random.Random(5)
        state = rng.getstate()
        assert expr.sample(rng) == frozenset("ab")
        assert rng.getstate() == state

    def test_prefer_forces_the_child_that_pins_it(self):
        expr = any_of([all_of(["a", any_of(["b", "c"])]), all_of(["b", "d"])])
        rng = random.Random(0)
        for _ in range(20):
            assert {"b", "d"} <= expr.sample(rng, prefer="b")
        assert expr.is_quorum({"a", "c"}) and not expr.is_quorum({"a", "d"})


class TestBinomialTail:
    def test_edges(self):
        assert binomial_tail(5, 0, 0.3) == 1.0
        assert binomial_tail(5, 6, 0.3) == 0.0
        assert binomial_tail(5, 5, 1.0) == pytest.approx(1.0)

    def test_simple_value(self):
        # P[X >= 1], X ~ Bin(2, 0.5) = 0.75
        assert binomial_tail(2, 1, 0.5) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# property tests: read/write quorum intersection for every system
# ---------------------------------------------------------------------------

_SPEC_STRATEGY = st.one_of(
    st.integers(min_value=1, max_value=12).map(lambda n: ("majority", n)),
    st.integers(min_value=1, max_value=12).map(lambda n: ("rowa", n)),
    st.tuples(
        st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
    ).map(lambda rc: (f"grid:{rc[0]}x{rc[1]}", rc[0] * rc[1])),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8).map(
        lambda votes: (
            "weighted:votes={},r={t},w={t}".format(
                "-".join(map(str, votes)), t=sum(votes) // 2 + 1),
            len(votes),
        )
    ),
)
_SYSTEM_STRATEGY = _SPEC_STRATEGY.map(lambda spec_n: build(*spec_n))


@given(system=_SYSTEM_STRATEGY, seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_property_sampled_quorums_always_intersect(system, seed):
    """Every sampled read quorum intersects every sampled write quorum —
    the property that makes quorum registers regular."""
    rng = random.Random(seed)
    rq = system.sample_read_quorum(rng)
    wq = system.sample_write_quorum(rng)
    assert rq & wq, f"{system}: {sorted(rq)} vs {sorted(wq)}"
    assert system.is_read_quorum(rq)
    assert system.is_write_quorum(wq)


@given(spec_n=_SPEC_STRATEGY, p=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_property_availability_bounds_and_monotonicity(spec_n, p):
    """Availabilities are probabilities; reads are at least as available
    as writes for every system here (read quorums are never larger)."""
    av_r, av_w = quorum_availability(*spec_n, p)
    assert -1e-9 <= av_r <= 1 + 1e-9
    assert -1e-9 <= av_w <= 1 + 1e-9
    assert av_r >= av_w - 1e-9


@given(
    n=st.integers(min_value=1, max_value=10),
    p=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_property_closed_forms_match_enumeration(n, p):
    """Every closed form in the availability table equals brute-force
    enumeration over the built system's predicates."""
    rows = max(1, math.isqrt(n))
    for spec in ("majority", "rowa", "single", "grid", f"grid:{rows}x{-(-n // rows)}"):
        q = build(spec, n)
        exact = (exact_quorum_availability(q.nodes, q.is_read_quorum, p),
                 exact_quorum_availability(q.nodes, q.is_write_quorum, p))
        assert quorum_availability(spec, n, p) == pytest.approx(exact, abs=1e-9)


@given(system=_SYSTEM_STRATEGY, data=st.data())
@settings(max_examples=200, deadline=None)
def test_property_predicates_accept_any_iterable(system, data):
    """``members`` may be a set, a list with repeats and strangers, a
    dict's keys or a one-shot generator: the verdict is that of the set
    of member nodes among them (a repeat never counts twice)."""
    pool = list(system.nodes) + ["stranger", "other"]
    members = data.draw(st.lists(st.sampled_from(pool), max_size=2 * len(pool)))
    as_set = set(members)
    for predicate in (system.is_read_quorum, system.is_write_quorum):
        verdict = predicate(as_set)
        assert verdict == predicate(as_set & set(system.nodes))
        assert predicate(members) == verdict
        assert predicate(tuple(members)) == verdict
        assert predicate(frozenset(members)) == verdict
        assert predicate(dict.fromkeys(members)) == verdict
        assert predicate(m for m in members) == verdict
    assert not system.is_read_quorum(())
    assert system.is_write_quorum(iter(system.nodes))
