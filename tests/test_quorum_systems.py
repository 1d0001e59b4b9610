"""Unit and property tests for the quorum systems."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quorum import (
    GridQuorumSystem,
    MajorityQuorumSystem,
    RowaQuorumSystem,
    SingleNodeQuorumSystem,
    WeightedVotingSystem,
    binomial_tail,
    exact_quorum_availability,
)


def nodes(n):
    return [f"n{i}" for i in range(n)]


class TestMajority:
    def test_default_majority_sizes(self):
        q = MajorityQuorumSystem(nodes(9))
        assert q.read_quorum_size == 5
        assert q.write_quorum_size == 5

    def test_even_count_majority(self):
        q = MajorityQuorumSystem(nodes(4))
        assert q.read_quorum_size == 3

    def test_custom_sizes(self):
        q = MajorityQuorumSystem(nodes(9), read_size=3, write_size=7)
        assert q.is_read_quorum(set(nodes(3)))
        assert not q.is_write_quorum(set(nodes(6)))
        assert q.is_write_quorum(set(nodes(7)))

    def test_intersection_constraint_enforced(self):
        with pytest.raises(ValueError):
            MajorityQuorumSystem(nodes(9), read_size=4, write_size=5)

    def test_out_of_range_sizes(self):
        with pytest.raises(ValueError):
            MajorityQuorumSystem(nodes(3), read_size=0, write_size=4)
        with pytest.raises(ValueError):
            MajorityQuorumSystem(nodes(3), read_size=2, write_size=5)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            MajorityQuorumSystem(["a", "a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MajorityQuorumSystem([])

    def test_sample_is_minimal_and_contains_prefer(self):
        q = MajorityQuorumSystem(nodes(9))
        rng = random.Random(0)
        for _ in range(50):
            quorum = q.sample_read_quorum(rng, prefer="n3")
            assert len(quorum) == 5
            assert "n3" in quorum
            assert q.is_read_quorum(quorum)

    def test_availability_closed_form_matches_enumeration(self):
        q = MajorityQuorumSystem(nodes(7))
        p = 0.1
        exact = exact_quorum_availability(q.nodes, q.is_read_quorum, p)
        assert q.read_availability(p) == pytest.approx(exact, rel=1e-9)

    def test_superset_is_quorum(self):
        q = MajorityQuorumSystem(nodes(5))
        assert q.is_read_quorum(set(nodes(5)))

    def test_foreign_nodes_ignored(self):
        q = MajorityQuorumSystem(nodes(3))
        assert not q.is_read_quorum({"x", "y", "z"})


class TestRowa:
    def test_sizes(self):
        q = RowaQuorumSystem(nodes(6))
        assert q.read_quorum_size == 1
        assert q.write_quorum_size == 6

    def test_read_any_one(self):
        q = RowaQuorumSystem(nodes(4))
        assert q.is_read_quorum({"n2"})
        assert not q.is_read_quorum({"zzz"})

    def test_write_needs_all(self):
        q = RowaQuorumSystem(nodes(4))
        assert not q.is_write_quorum(set(nodes(3)))
        assert q.is_write_quorum(set(nodes(4)))

    def test_sample_prefers(self):
        q = RowaQuorumSystem(nodes(5))
        rng = random.Random(1)
        assert q.sample_read_quorum(rng, prefer="n4") == frozenset(["n4"])
        assert q.sample_write_quorum(rng) == frozenset(nodes(5))

    def test_availability_formulas(self):
        q = RowaQuorumSystem(nodes(3))
        p = 0.1
        assert q.read_availability(p) == pytest.approx(1 - 0.1**3)
        assert q.write_availability(p) == pytest.approx(0.9**3)


class TestSingleNode:
    def test_everything_is_that_node(self):
        q = SingleNodeQuorumSystem("primary")
        assert q.is_read_quorum({"primary", "other"})
        assert not q.is_write_quorum({"other"})
        rng = random.Random(0)
        assert q.sample_read_quorum(rng) == frozenset(["primary"])
        assert q.read_availability(0.01) == pytest.approx(0.99)


class TestGrid:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GridQuorumSystem(nodes(7), rows=2, cols=3)  # too many for 2x3
        with pytest.raises(ValueError):
            GridQuorumSystem(nodes(4), rows=2, cols=3)  # last column empty
        with pytest.raises(ValueError):
            GridQuorumSystem(nodes(1), rows=0, cols=0)

    def test_sizes(self):
        q = GridQuorumSystem(nodes(12), rows=3, cols=4)
        assert q.read_quorum_size == 4
        assert q.write_quorum_size == 3 + 4 - 1

    def test_ragged_grid_sizes(self):
        # 7 nodes as <=3 rows x 3 cols: balanced columns of 3, 2, 2
        q = GridQuorumSystem(nodes(7), rows=3, cols=3)
        assert [len(c) for c in q._columns] == [3, 2, 2]
        assert q.read_quorum_size == 3
        assert q.write_quorum_size == 2 + 3 - 1  # shortest column is 2

    def test_balanced_fill_no_tiny_columns(self):
        # 21 nodes as 4x6 must balance to 4,4,4,3,3,3 — never a 1-column
        q = GridQuorumSystem(nodes(21), rows=4, cols=6)
        assert sorted(len(c) for c in q._columns) == [3, 3, 3, 4, 4, 4]

    def test_near_square_constructor(self):
        from repro.quorum.grid import near_square_grid

        for n in (3, 5, 7, 9, 11, 15):
            q = near_square_grid(nodes(n))
            assert q.size == n
            assert q.rows * q.cols >= n > q.rows * (q.cols - 1)

    def test_read_quorum_is_column_cover(self):
        q = GridQuorumSystem(nodes(6), rows=2, cols=3)
        # column-major: columns {n0,n1}, {n2,n3}, {n4,n5}
        assert q.is_read_quorum({"n0", "n2", "n4"})
        assert q.is_read_quorum({"n1", "n3", "n5"})
        assert not q.is_read_quorum({"n0", "n1", "n2"})  # col 3 uncovered

    def test_write_quorum_needs_full_column_plus_cover(self):
        q = GridQuorumSystem(nodes(6), rows=2, cols=3)
        assert q.is_write_quorum({"n0", "n1", "n2", "n4"})  # col0 full + cover
        assert not q.is_write_quorum({"n0", "n2", "n4"})  # no full column

    def test_ragged_quorums_intersect(self):
        import random

        for n in (5, 7, 11, 13):
            q = GridQuorumSystem(
                nodes(n), rows=max(1, int(n**0.5)),
                cols=-(-n // max(1, int(n**0.5))),
            )
            q.check_intersection(random.Random(0), trials=100)

    def test_sampled_quorums_valid(self):
        q = GridQuorumSystem(nodes(12), rows=3, cols=4)
        rng = random.Random(2)
        for _ in range(50):
            assert q.is_read_quorum(q.sample_read_quorum(rng))
            assert q.is_write_quorum(q.sample_write_quorum(rng))

    def test_sample_write_prefer_pins_column(self):
        q = GridQuorumSystem(nodes(6), rows=2, cols=3)
        rng = random.Random(3)
        wq = q.sample_write_quorum(rng, prefer="n1")
        assert {"n1", "n4"} <= wq  # full column of n1

    def test_availability_matches_enumeration(self):
        q = GridQuorumSystem(nodes(6), rows=2, cols=3)
        p = 0.2
        read_exact = exact_quorum_availability(q.nodes, q.is_read_quorum, p)
        write_exact = exact_quorum_availability(q.nodes, q.is_write_quorum, p)
        assert q.read_availability(p) == pytest.approx(read_exact, rel=1e-9)
        assert q.write_availability(p) == pytest.approx(write_exact, rel=1e-9)


class TestWeightedVoting:
    def test_thresholds_enforced(self):
        with pytest.raises(ValueError):
            WeightedVotingSystem({"a": 2, "b": 1}, read_threshold=1, write_threshold=2)
        with pytest.raises(ValueError):
            WeightedVotingSystem({}, 1, 1)
        with pytest.raises(ValueError):
            WeightedVotingSystem({"a": 0}, 1, 1)

    def test_vote_counting(self):
        q = WeightedVotingSystem({"a": 3, "b": 1, "c": 1}, read_threshold=3, write_threshold=3)
        assert q.is_read_quorum({"a"})
        assert not q.is_read_quorum({"b", "c"})

    def test_min_nodes_sizes(self):
        q = WeightedVotingSystem({"a": 3, "b": 1, "c": 1}, read_threshold=4, write_threshold=2)
        assert q.read_quorum_size == 2  # a + any other
        assert q.write_quorum_size == 1  # a alone

    def test_samples_meet_threshold(self):
        q = WeightedVotingSystem(
            {"a": 3, "b": 2, "c": 2, "d": 1}, read_threshold=5, write_threshold=4
        )
        rng = random.Random(4)
        for _ in range(50):
            assert q.is_read_quorum(q.sample_read_quorum(rng))
            assert q.is_write_quorum(q.sample_write_quorum(rng))


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

_SYSTEM_STRATEGY = st.one_of(
    st.integers(min_value=1, max_value=12).map(
        lambda n: MajorityQuorumSystem(nodes(n))
    ),
    st.integers(min_value=1, max_value=12).map(lambda n: RowaQuorumSystem(nodes(n))),
    st.tuples(
        st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
    ).map(lambda rc: GridQuorumSystem(nodes(rc[0] * rc[1]), rows=rc[0], cols=rc[1])),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8).map(
        lambda votes: WeightedVotingSystem(
            {f"n{i}": v for i, v in enumerate(votes)},
            read_threshold=sum(votes) // 2 + 1,
            write_threshold=sum(votes) // 2 + 1,
        )
    ),
)


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


@given(system=_SYSTEM_STRATEGY, p=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_property_availability_bounds_and_monotonicity(system, p):
    """Availabilities are probabilities; reads are at least as available
    as writes for every system here (read quorums are never larger)."""
    av_r = system.read_availability(p)
    av_w = system.write_availability(p)
    assert -1e-9 <= av_r <= 1 + 1e-9
    assert -1e-9 <= av_w <= 1 + 1e-9
    assert av_r >= av_w - 1e-9


@given(
    n=st.integers(min_value=1, max_value=10),
    p=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_property_closed_forms_match_enumeration(n, p):
    """Closed-form availability equals brute-force enumeration."""
    q = MajorityQuorumSystem(nodes(n))
    exact_r = exact_quorum_availability(q.nodes, q.is_read_quorum, p)
    assert q.read_availability(p) == pytest.approx(exact_r, abs=1e-9)
    r = RowaQuorumSystem(nodes(n))
    exact_read = exact_quorum_availability(r.nodes, r.is_read_quorum, p)
    exact_write = exact_quorum_availability(r.nodes, r.is_write_quorum, p)
    assert r.read_availability(p) == pytest.approx(exact_read, abs=1e-9)
    assert r.write_availability(p) == pytest.approx(exact_write, abs=1e-9)


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
