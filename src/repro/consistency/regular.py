"""Regular- and atomic-semantics checkers over recorded histories.

The paper's guarantee (Section 2, following Lamport): a read *r* that is
not concurrent with any write returns the value of the **latest write
that completed before r began**; a read concurrent with writes may
additionally return the value of **any concurrent write**.

Among multiple completed writes, "latest" is resolved the way the
paper's correctness argument resolves it: by **logical clock** order
(the protocol's total write order).  For non-overlapping writes the
logical-clock order and the real-time order agree, so this matches the
intuitive reading of the definition as well.

Failed (rejected / timed-out) writes have indeterminate effect — they
may have reached some replicas — so the checker treats them like writes
concurrent with everything that starts after their invocation.

:func:`check_atomic` implements the stricter single-register
linearizability condition the paper mentions as future work, so the
cost/benefit of upgrading DQVL's semantics can be measured.

Cost.  Every checker starts from :meth:`History.by_key` (one pass) and
sweeps each key's operations in time order, ``O(N log N)`` for ``N``
operations.  :func:`check_regular` splits the work in two: a read is
first tried against an index of its key's writes
(:func:`_write_index`), which can only *accept*, and only a read the
index cannot explain is handed to :func:`_legal_writes_regular` and
:func:`_legal_clocks_regular` — the definition itself, one scan of the
key's ``W`` writes, and the only code that rejects a read or builds a
:class:`Violation`.  A history with ``V`` violations therefore costs
``O(N log N + V·W)``.  The index has to be *sound* (accept nothing the
definition rejects), not complete, and the definition is not restated
anywhere: ``tests/test_consistency.py`` holds the two to the same
verdicts on generated histories.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..types import ZERO_LC, LogicalClock, Op
from .history import History

__all__ = ["Violation", "check_regular", "check_atomic", "staleness_report", "StalenessReport"]


@dataclass
class Violation:
    """One read that no regular (or atomic) explanation covers."""

    read: Op
    reason: str
    legal_clocks: List[LogicalClock]

    def __str__(self) -> str:
        legal = ", ".join(str(lc) for lc in self.legal_clocks) or "<initial>"
        return (
            f"{self.reason}: read {self.read.key}={self.read.value!r}@{self.read.lc} "
            f"at [{self.read.start:.1f},{self.read.end:.1f}] by {self.read.client}; "
            f"legal clocks: {legal}"
        )


def _concurrent_or_in_doubt(write: Op, read: Op) -> bool:
    """May *read* return *write* without it having completed first?  A
    completed write when the two overlap; a failed write whenever it was
    invoked before the read ended (its effect is forever in doubt)."""
    if write.ok:
        return write.overlaps(read)
    return write.start < read.end


def _legal_writes_regular(read: Op, writes: List[Op]) -> List[Op]:
    """The writes a regular register may return for *read*: the latest
    completed before it, every overlapping completed write, and every
    failed write invoked before it ended."""
    completed_before = [
        w for w in writes if w.ok and w.end <= read.start
    ]
    legal = [w for w in writes if _concurrent_or_in_doubt(w, read)]
    if completed_before:
        legal.insert(0, max(completed_before, key=lambda w: w.lc))
    return legal


def _legal_clocks_regular(
    read: Op, writes: List[Op], legal: List[Op]
) -> List[LogicalClock]:
    """The clocks of the *legal* writes (ZERO_LC = the initial value).

    A failed write recorded without a clock carries ``ZERO_LC`` as a
    placeholder (:func:`~repro.workload.runner.issue`), which is no clock the
    write was ever applied under: it is in doubt by its value only.
    """
    clocks = [w.lc for w in legal if w.ok or w.lc != ZERO_LC]
    if not any(w.ok and w.end <= read.start for w in writes):
        clocks.insert(0, ZERO_LC)  # no completed predecessor: initial legal
    return clocks


def _write_index(writes: List[Op]) -> Callable[[Op], bool]:
    """Index one key's *writes*; the returned test says whether a read
    has an explanation the index can find in ``O(log W)``.

    True only where ``read.lc in _legal_clocks_regular(...)`` or a write
    of ``_legal_writes_regular(...)`` has the read's value, because each
    piece mirrors a piece of those: the latest completed write is a
    prefix maximum over the completed writes sorted by ``end`` (the first
    in history order among equal clocks, as ``max`` picks), and the
    overlapping and in-doubt writes are reached through their clock or
    value and then put to the same interval test.  False decides nothing
    — the caller asks the definition — so a value that cannot be hashed
    is simply not looked up.
    """
    completed = sorted((w.end, at, w) for at, w in enumerate(writes) if w.ok)
    ends: List[float] = []
    latest_by: List[Op] = []  # latest_by[n - 1]: the latest among the first n
    best, best_at = None, -1
    for end, at, w in completed:
        if best is None or w.lc > best.lc or (
            w.lc == best.lc and at < best_at
        ):
            best, best_at = w, at
        ends.append(end)
        latest_by.append(best)

    by_clock: Dict[LogicalClock, List[Op]] = {}
    by_value: Dict[object, List[Op]] = {}
    for w in writes:
        if w.ok or w.lc != ZERO_LC:
            by_clock.setdefault(w.lc, []).append(w)
        if w.value is not None:
            try:
                by_value.setdefault(w.value, []).append(w)
            except TypeError:
                pass

    def explains(read: Op) -> bool:
        value = read.value
        completed_before = bisect_right(ends, read.start)
        if completed_before:
            latest = latest_by[completed_before - 1]
            if latest.lc == read.lc:
                return True
            if value is not None and latest.value == value:
                return True
        elif read.lc == ZERO_LC:
            return True
        for w in by_clock.get(read.lc, ()):
            if _concurrent_or_in_doubt(w, read):
                return True
        if value is None:
            return False
        try:
            same_value = by_value.get(value, ())
        except TypeError:
            return False
        # the dict narrows (by identity, then equality); == decides
        return any(
            w.value == value and _concurrent_or_in_doubt(w, read)
            for w in same_value
        )

    return explains


def check_regular(history: History) -> List[Violation]:
    """All regular-semantics violations in *history* (empty = consistent),
    by sorted key and then in history order.

    Checked independently per key — the register abstraction is
    per-object, as in the paper.

    A read is explained by a legal write's **clock or value**.  The
    clock is the precise identity, but it cannot always be matched:

    * a failed write usually records no clock (the client gave up before
      learning it), yet its value may surface later stamped with
      whatever clock a server assigned;
    * a non-idempotent retry (primary/backup assigns a fresh clock per
      arriving request) can apply one logical write under several
      clocks, and a read may observe an application other than the one
      the writer ultimately heard about.

    In both cases the value — unique per operation in every workload
    here — identifies the write, and the paper's guarantee is stated
    over values.

    Degraded reads (a front end serving its remembered value while the
    storage path is unreachable) are excluded: their contract is the
    explicit staleness bound they carry, not regularity.  The chaos
    campaign checks that bound separately.
    """
    violations: List[Violation] = []
    index = history.by_key()
    for key in sorted(index):
        reads, writes = index[key]
        explains = _write_index(writes)
        for read in reads:
            if not read.ok or read.degraded or explains(read):
                continue
            legal = _legal_writes_regular(read, writes)
            clocks = _legal_clocks_regular(read, writes, legal)
            if read.lc in clocks:
                continue
            if read.value is not None and any(
                w.value == read.value for w in legal
            ):
                continue
            violations.append(
                Violation(read, "regular-semantics violation", clocks)
            )
    return violations


def _checked_reads(reads: List[Op]) -> List[Op]:
    """The reads the checkers judge, by invocation time (history order
    among equals): failed reads returned nothing, degraded reads claim
    a staleness bound instead."""
    return sorted(
        (r for r in reads if r.ok and not r.degraded), key=lambda r: r.start
    )


def check_atomic(history: History) -> List[Violation]:
    """Atomic (linearizable) register check, per key.

    In addition to regularity, atomicity forbids *new-old inversions*:
    a read ``r2`` is one when some read ``r1`` with ``r1.end <=
    r2.start`` returned a higher clock, ``r1.lc > r2.lc``; it is
    reported against the highest clock among the reads that had ended by
    ``r2.start``.  This simple interval-order check is sound for
    histories whose write clocks grow along real time (true for every
    protocol in this repository) — it reports exactly the anomalies that
    distinguish regular from atomic behaviour.

    Decided for all reads of a key in one sweep by start time, merging
    the ended reads in by end time under a running highest clock: a
    read that returned something newer but is still running when ``r2``
    starts must not hide an older read that had already ended.
    """
    violations = check_regular(history)
    index = history.by_key()
    for key in sorted(index):
        reads = _checked_reads(index[key][0])
        ended = sorted(reads, key=lambda r: r.end)
        newest: Optional[LogicalClock] = None  # among ended[:merged]
        merged = 0
        for read in reads:
            while merged < len(ended) and ended[merged].end <= read.start:
                if newest is None or ended[merged].lc > newest:
                    newest = ended[merged].lc
                merged += 1
            if newest is not None and read.lc < newest:
                violations.append(
                    Violation(
                        read,
                        "new-old inversion (atomicity violation)",
                        [newest],
                    )
                )
    return violations


@dataclass
class StalenessReport:
    """How stale reads were, aggregated over a history."""

    total_reads: int
    stale_reads: int
    max_staleness_ms: float
    mean_version_lag: float

    @property
    def stale_fraction(self) -> float:
        return self.stale_reads / self.total_reads if self.total_reads else 0.0


def staleness_report(history: History) -> StalenessReport:
    """Quantify staleness: a read is *stale* when a write with a higher
    clock completed before the read began (the read missed it).

    ``max_staleness_ms`` is the largest gap between a stale read's start
    and the completion of the newest write it missed; ROWA-Async has no
    bound on this value, which is the paper's core criticism of it.

    Runs as a sweep in read-start order per key: completed writes are
    merged in by end time while a sorted list of their clocks supports
    counting how many the read missed — ``O((R + W) log W)`` overall
    instead of the quadratic naive scan.
    """
    total = 0
    stale = 0
    max_staleness = 0.0
    lag_sum = 0
    lag_count = 0
    for key_reads, key_writes in history.by_key().values():
        writes = sorted((w for w in key_writes if w.ok), key=lambda w: w.end)
        reads = _checked_reads(key_reads)
        completed_clocks: List = []  # sorted clocks of completed writes
        newest: Optional[Op] = None  # completed write with the max clock
        wi = 0
        for read in reads:
            while wi < len(writes) and writes[wi].end <= read.start:
                w = writes[wi]
                insort(completed_clocks, w.lc)
                if newest is None or w.lc > newest.lc:
                    newest = w
                wi += 1
            total += 1
            lag_count += 1
            if newest is not None and newest.lc > read.lc:
                stale += 1
                max_staleness = max(max_staleness, read.start - newest.end)
                lag_sum += len(completed_clocks) - bisect_right(
                    completed_clocks, read.lc
                )
    mean_lag = lag_sum / lag_count if lag_count else 0.0
    return StalenessReport(
        total_reads=total,
        stale_reads=stale,
        max_staleness_ms=max_staleness,
        mean_version_lag=mean_lag,
    )
