"""Tests for the history recorder and the semantics checkers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import (
    History,
    check_atomic,
    check_regular,
    staleness_report,
)
from repro.consistency.regular import (
    Violation,
    _legal_clocks_regular,
    _legal_writes_regular,
)
from repro.quorum import QrpcError
from repro.sim import Simulator
from repro.types import ZERO_LC, LogicalClock, Op
from repro.workload.generators import OpSpec
from repro.workload.runner import issue


def lc(n, node="w"):
    return LogicalClock(n, node)


def w(key, n, start, end, ok=True, client="c"):
    return Op("write", key, f"v{n}", lc(n), start, end, client, ok)


def r(key, n, start, end, ok=True, client="c"):
    value = f"v{n}" if n else None
    return Op("read", key, value, lc(n) if n else ZERO_LC, start, end, client, ok)


def history_of(*ops):
    h = History()
    h.ops = list(ops)
    return h


class TestHistoryRecorder:
    def test_record_and_query(self):
        h = History()
        h.ops.append(Op("write", "x", "v", lc(1), 0.0, 10.0, "c"))
        h.ops.append(Op("read", "x", "v", lc(1), 10.0, 20.0, "c", hit=True))
        h.ops.append(Op("read", "y", None, ZERO_LC, 20.0, 30.0, "c", ok=False))
        assert len(h) == 3
        assert sorted(h.by_key()) == ["x", "y"]
        assert len(h.reads("x")) == 1
        assert len(h.writes("x")) == 1
        assert len(h.failures()) == 1
        assert h.reads("x")[0].hit is True


class TestRegularChecker:
    def test_empty_history_ok(self):
        assert check_regular(history_of()) == []

    def test_read_of_initial_value_ok(self):
        assert check_regular(history_of(r("x", 0, 0, 10))) == []

    def test_read_of_last_completed_write_ok(self):
        h = history_of(w("x", 1, 0, 10), r("x", 1, 20, 30))
        assert check_regular(h) == []

    def test_read_of_older_write_is_violation(self):
        h = history_of(
            w("x", 1, 0, 10),
            w("x", 2, 20, 30),
            r("x", 1, 40, 50),  # stale: write 2 completed at 30
        )
        violations = check_regular(h)
        assert len(violations) == 1
        assert violations[0].read.lc == lc(1)

    def test_read_of_initial_after_write_is_violation(self):
        h = history_of(w("x", 1, 0, 10), r("x", 0, 20, 30))
        assert len(check_regular(h)) == 1

    def test_concurrent_write_value_ok_either_way(self):
        # read [15, 25] overlaps write2 [20, 30]
        h_old = history_of(w("x", 1, 0, 10), w("x", 2, 20, 30), r("x", 1, 15, 25))
        h_new = history_of(w("x", 1, 0, 10), w("x", 2, 20, 30), r("x", 2, 15, 25))
        assert check_regular(h_old) == []
        assert check_regular(h_new) == []

    def test_unrelated_value_during_concurrency_is_violation(self):
        h = history_of(
            w("x", 1, 0, 10),
            w("x", 2, 20, 30),
            w("x", 3, 40, 50),
            r("x", 1, 45, 55),  # concurrent with w3 only; w2 completed
        )
        assert len(check_regular(h)) == 1

    def test_failed_write_may_be_observed_forever(self):
        h = history_of(
            w("x", 1, 0, 10),
            w("x", 2, 20, 30, ok=False),  # timed out; effect unknown
            r("x", 2, 100, 110),
        )
        assert check_regular(h) == []

    def test_failed_write_with_unknown_clock_matched_by_value(self):
        """A failed write usually records no clock (the client gave up
        before learning it); when its value surfaces under the clock a
        server assigned, the read is legal — matched by value."""
        h = history_of(
            w("x", 1, 0, 10),
            Op("write", "x", "v2", ZERO_LC, 20, 30, "c", ok=False),
            Op("read", "x", "v2", lc(5, node="srv"), 100, 110, "c"),
        )
        assert check_regular(h) == []

    def test_unrelated_value_not_excused_by_in_doubt_write(self):
        h = history_of(
            w("x", 1, 0, 10),
            Op("write", "x", "v2", ZERO_LC, 20, 30, "c", ok=False),
            Op("read", "x", "v9", lc(5, node="srv"), 100, 110, "c"),
        )
        assert len(check_regular(h)) == 1

    def test_in_doubt_none_value_does_not_excuse_initial_reads(self):
        """A failed write recorded without its value must not blanket-
        excuse reads of the (None) initial value under a bogus clock."""
        h = history_of(
            w("x", 1, 0, 10),
            Op("write", "x", None, ZERO_LC, 20, 30, "c", ok=False),
            Op("read", "x", None, lc(5, node="srv"), 100, 110, "c"),
        )
        assert len(check_regular(h)) == 1

    def test_failed_write_placeholder_clock_does_not_excuse_initial_reads(self):
        """The clock-side twin: ``issue`` stamps ZERO_LC on a
        write whose clock the client never learned, and that placeholder
        must not make the initial value legal again — a wiped replica
        serving ``None @ 0@-`` after v1 completed is a rollback."""
        failed = Op("write", "x", "v2", ZERO_LC, 20, 30, "c", ok=False)
        initial_read = Op("read", "x", None, ZERO_LC, 100, 110, "c")
        violations = check_regular(
            history_of(w("x", 1, 0, 10), failed, initial_read)
        )
        assert [v.read for v in violations] == [initial_read]
        assert violations[0].legal_clocks == [lc(1)]
        # with no completed write the initial value is still legal
        assert check_regular(history_of(failed, initial_read)) == []

    def test_failure_record_keeps_attempted_write_value(self):
        class Rejecting:
            node_id = "c"

            def write(self, key, value):
                yield sim.sleep(10.0)
                raise QrpcError("WRITE", 1)

        sim = Simulator(seed=0)
        op = sim.run_process(issue(sim, Rejecting(), OpSpec("write", "x", "v1")))
        assert op == Op("write", "x", "v1", ZERO_LC, 0.0, 10.0, "c", ok=False)

    def test_failed_read_not_checked(self):
        h = history_of(w("x", 1, 0, 10), r("x", 9, 20, 30, ok=False))
        assert check_regular(h) == []

    def test_per_key_independence(self):
        h = history_of(w("x", 1, 0, 10), r("y", 0, 20, 30))
        assert check_regular(h) == []

    def test_among_completed_writes_highest_clock_wins(self):
        """Two writes both completed; the one with the higher clock is
        the register's value even if it finished earlier in real time."""
        h = history_of(
            # w2 (higher clock) completes before w1 does
            Op("write", "x", "v2", lc(2), 0.0, 5.0, "a"),
            Op("write", "x", "v1", lc(1), 0.0, 20.0, "b"),
            r("x", 2, 30, 40),
        )
        assert check_regular(h) == []
        h_bad = history_of(
            Op("write", "x", "v2", lc(2), 0.0, 5.0, "a"),
            Op("write", "x", "v1", lc(1), 0.0, 20.0, "b"),
            r("x", 1, 30, 40),
        )
        assert len(check_regular(h_bad)) == 1


class TestAtomicChecker:
    def test_regular_but_not_atomic(self):
        """New-old inversion: r1 sees w2, then r2 (after r1) sees w1
        while w2 is still in flight — regular allows it, atomic not."""
        h = history_of(
            w("x", 1, 0, 10),
            Op("write", "x", "v2", lc(2), 20, 60, "b"),  # long write
            r("x", 2, 25, 30),  # sees the concurrent write
            r("x", 1, 35, 40),  # then an older value: inversion
        )
        assert check_regular(h) == []
        violations = check_atomic(h)
        assert len(violations) == 1
        assert "inversion" in violations[0].reason

    def test_atomic_history_passes(self):
        h = history_of(
            w("x", 1, 0, 10),
            r("x", 1, 15, 20),
            w("x", 2, 25, 35),
            r("x", 2, 40, 45),
        )
        assert check_atomic(h) == []

    def test_concurrent_reads_may_disagree(self):
        h = history_of(
            w("x", 1, 0, 10),
            Op("write", "x", "v2", lc(2), 20, 60, "b"),
            Op("read", "x", "v2", lc(2), 25, 45, "r1"),
            Op("read", "x", "v1", lc(1), 30, 50, "r2"),  # overlaps r1
        )
        assert check_atomic(h) == []

    def test_inversion_behind_a_long_running_newer_read(self):
        """r1 returned 5 and ended before r2 began, and r2 went back to
        4: an inversion, whatever a third read that returned 7 and is
        still running when r2 starts has seen."""
        r2 = r("x", 4, 2.0, 3.0)
        ops = [
            w("x", 4, 0.0, 0.5),
            Op("write", "x", "v5", lc(5, "b"), 0.6, 20.0, "b"),
            Op("write", "x", "v7", lc(7, "c"), 0.7, 20.0, "c"),
            Op("read", "x", "v5", lc(5, "b"), 0.95, 1.0, "r1"),
            Op("read", "x", "v7", lc(7, "c"), 0.95, 10.0, "r3"),
            r2,
        ]
        assert check_regular(history_of(*ops)) == []
        for history in (history_of(*ops), history_of(*ops[:4], r2)):
            violations = check_atomic(history)
            assert [v.read for v in violations] == [r2]
            assert violations[0].legal_clocks == [lc(5, "b")]


class TestStaleness:
    def test_no_writes_no_staleness(self):
        report = staleness_report(history_of(r("x", 0, 0, 10)))
        assert report.stale_reads == 0
        assert report.stale_fraction == 0.0

    def test_stale_read_measured(self):
        h = history_of(
            w("x", 1, 0, 10),
            w("x", 2, 20, 30),
            r("x", 1, 100, 110),
        )
        report = staleness_report(h)
        assert report.total_reads == 1
        assert report.stale_reads == 1
        assert report.max_staleness_ms == pytest.approx(70.0)  # 100 - 30
        assert report.mean_version_lag == 1.0

    def test_fresh_reads_not_stale(self):
        h = history_of(w("x", 1, 0, 10), r("x", 1, 20, 30))
        report = staleness_report(h)
        assert report.stale_reads == 0


# ---------------------------------------------------------------------------
# property test: the checker accepts exactly the construction it defines
# ---------------------------------------------------------------------------


@given(
    data=st.data(),
    num_writes=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=100, deadline=None)
def test_property_reads_of_legal_values_always_accepted(data, num_writes):
    """Construct sequential writes, then reads that return either the
    last completed write or a concurrent one; the checker must accept."""
    ops = []
    t = 0.0
    for n in range(1, num_writes + 1):
        duration = data.draw(st.floats(min_value=1.0, max_value=20.0))
        ops.append(w("x", n, t, t + duration))
        t += duration + data.draw(st.floats(min_value=0.0, max_value=5.0))
    # a read concurrent with nothing, after all writes
    ops.append(r("x", num_writes, t + 1, t + 2))
    # a read concurrent with the last write
    last = ops[num_writes - 1]
    mid = (last.start + last.end) / 2
    choice = data.draw(st.sampled_from([num_writes, num_writes - 1]))
    if choice:
        ops.append(r("x", choice, mid, last.end + 1))
    assert check_regular(history_of(*ops)) == []


@given(
    gap=st.floats(min_value=0.1, max_value=100.0),
    stale_n=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=50, deadline=None)
def test_property_strictly_stale_reads_always_rejected(gap, stale_n):
    """A read strictly after 5 completed writes returning write #stale_n
    (< 5) is always a violation."""
    ops = []
    t = 0.0
    for n in range(1, 6):
        ops.append(w("x", n, t, t + 1))
        t += 1 + gap
    ops.append(r("x", stale_n, t + gap, t + gap + 1))
    assert len(check_regular(history_of(*ops))) == 1


# ---------------------------------------------------------------------------
# differential properties: the indexed checkers against their definitions
# ---------------------------------------------------------------------------

_CLOCKS = [ZERO_LC, lc(1, "a"), lc(1, "b"), lc(2, "a"), lc(3, "a")]
#: None, hashable and unhashable values; equal dicts are distinct objects
_VALUES = [None, "v1", "v2", "v3", {"p": 1}, {"p": 2}]
#: a coarse grid, so end == start boundaries and zero-length ops are common
_INSTANTS = st.integers(min_value=0, max_value=6).map(float)


@st.composite
def _ops(draw, keys):
    start = draw(_INSTANTS)
    end = max(start, draw(_INSTANTS))
    kind = draw(st.sampled_from(["read", "read", "write", "write", "scan"]))
    ok = draw(st.sampled_from([True, True, True, False]))
    value = draw(st.sampled_from(_VALUES))
    # a failed write mostly carries the placeholder clock issue stamps
    clocks = _CLOCKS if ok or kind != "write" else [ZERO_LC, ZERO_LC, lc(2, "a")]
    return Op(
        kind, draw(st.sampled_from(keys)),
        dict(value) if isinstance(value, dict) else value,
        draw(st.sampled_from(clocks)), start, end, "c", ok=ok,
        degraded=kind == "read" and draw(st.sampled_from([False] * 5 + [True])),
    )


def _histories():
    keys = st.sampled_from([("x",), ("x", "y"), ("x", "y", "z")])
    return keys.flatmap(
        lambda ks: st.lists(_ops(ks), max_size=14)
    ).map(lambda ops: history_of(*ops))


def _regular_by_definition(history):
    """Every read put to ``_legal_writes_regular`` / ``_legal_clocks_regular``."""
    violations = []
    for key in sorted({op.key for op in history.ops}):
        writes = history.writes(key)
        for read in history.reads(key):
            if not read.ok or read.degraded:
                continue
            legal = _legal_writes_regular(read, writes)
            clocks = _legal_clocks_regular(read, writes, legal)
            by_value = read.value is not None and any(
                w.value == read.value for w in legal
            )
            if read.lc not in clocks and not by_value:
                violations.append(
                    Violation(read, "regular-semantics violation", clocks)
                )
    return violations


@given(history=_histories())
@settings(max_examples=600, deadline=None)
def test_property_check_regular_equals_its_definition(history):
    expected = _regular_by_definition(history)
    found = check_regular(history)
    assert [id(v.read) for v in found] == [id(v.read) for v in expected]
    assert [str(v) for v in found] == [str(v) for v in expected]


@given(history=_histories())
@settings(max_examples=300, deadline=None)
def test_property_check_atomic_equals_its_definition(history):
    """The O(R^2) statement in ``check_atomic``'s docstring."""
    expected = []
    for key in sorted({op.key for op in history.ops}):
        reads = [r for r in history.reads(key) if r.ok and not r.degraded]
        for r2 in sorted(reads, key=lambda r: r.start):
            ended = [r1.lc for r1 in reads if r1.end <= r2.start]
            if ended and max(ended) > r2.lc:
                expected.append((id(r2), [max(ended)]))
    inversions = check_atomic(history)[len(check_regular(history)):]
    assert [(id(v.read), v.legal_clocks) for v in inversions] == expected
    assert all("new-old inversion" in v.reason for v in inversions)


@given(history=_histories())
@settings(max_examples=200, deadline=None)
def test_property_by_key_agrees_with_the_per_key_queries(history):
    index = history.by_key()
    assert sorted(index) == sorted({op.key for op in history.ops})
    for key, (reads, writes) in index.items():
        assert [id(op) for op in reads] == [id(op) for op in history.reads(key)]
        assert [id(op) for op in writes] == [id(op) for op in history.writes(key)]
