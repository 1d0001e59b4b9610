"""Closed-form availability models (Figure 8).

The paper's model (Section 4.2): nodes fail independently with per-node
unavailability ``p`` (0.01 in the figures); a request is *rejected* when
the protocol cannot assemble the quorums regular semantics requires.
Availability is the accepted fraction under a workload with write ratio
``w``.  The paper's DQVL formula::

    av_DQVL = (1-w) * min(av_orq, av_irq) + w * min(av_iwq, av_irq)

is implemented verbatim; the baselines use the standard quorum counting
arguments (documented per function).  Unavailability is ``1 - av`` —
``1e-i`` is "i nines" of availability.

Per quorum shape, :func:`quorum_availability` is the one table of read
and write availabilities for every :class:`~repro.quorum.QuorumSpec`.

All formulas are exact sums, not Monte Carlo: Figure 8 spans
unavailabilities down to ``1e-12``, far below sampling resolution.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional, Sequence, Tuple

from ..quorum.spec import QuorumSpec, SpecLike, default_grid_shape

__all__ = [
    "binomial_tail",
    "exact_quorum_availability",
    "monte_carlo_quorum_availability",
    "quorum_availability",
    "majority_availability",
    "dqvl_availability",
    "dqvl_system_availability",
    "majority_protocol_availability",
    "grid_protocol_availability",
    "rowa_availability",
    "rowa_async_availability",
    "primary_backup_availability",
    "protocol_unavailability",
    "default_grid_shape",
]


def _check_inputs(w: float, p: float) -> None:
    if not 0.0 <= w <= 1.0:
        raise ValueError("write ratio w must be in [0, 1]")
    if not 0.0 <= p <= 1.0:
        raise ValueError("per-node unavailability p must be in [0, 1]")


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


def exact_quorum_availability(nodes: Sequence[str], is_quorum, p: float) -> float:
    """Probability that the live-node set contains a quorum.

    Exact for systems of at most 20 nodes (sums over all ``2^n``
    live-sets); Monte Carlo beyond that.  Exactness matters
    for reproducing Figure 8, where unavailabilities reach ``1e-12`` —
    far below Monte Carlo resolution — which is why
    :func:`quorum_availability` uses closed forms wherever one exists.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    n = len(nodes)
    if n > 20:
        return monte_carlo_quorum_availability(nodes, is_quorum, p)
    total = 0.0
    node_list = list(nodes)
    for bits in range(1 << n):
        live = {node_list[i] for i in range(n) if bits & (1 << i)}
        if is_quorum(live):
            k = len(live)
            total += (1.0 - p) ** k * p ** (n - k)
    return total


def monte_carlo_quorum_availability(
    nodes: Sequence[str], is_quorum, p: float, trials: int = 200_000, seed: int = 1234
) -> float:
    """Monte Carlo estimate of quorum availability (large systems)."""
    rng = random.Random(seed)
    node_list = list(nodes)
    hits = 0
    for _ in range(trials):
        live = {node for node in node_list if rng.random() >= p}
        if is_quorum(live):
            hits += 1
    return hits / trials


def quorum_availability(spec: SpecLike, n: int, p: float) -> Tuple[float, float]:
    """``(read, write)`` availability of the *spec* shape over *n* nodes
    that are each down with probability *p*, independently.

    The one per-shape table: a closed form for every shape but weighted
    voting, which is enumerated exactly (Monte Carlo beyond 20 nodes).
    """
    spec = QuorumSpec.parse(spec)
    system = spec.build([f"n{i}" for i in range(n)])  # checks the shape fits n
    if spec.kind == "majority":
        return (binomial_tail(n, system.read.min_size, 1.0 - p),
                binomial_tail(n, system.write.min_size, 1.0 - p))
    if spec.kind == "rowa":
        # any node alive; all nodes alive
        return 1.0 - p**n, (1.0 - p) ** n
    if spec.kind == "single":
        return 1.0 - p, 1.0 - p
    if spec.kind == "grid":
        # Columns are independent; per column of height h let
        # a = (1-p)^h (fully live) and b = 1 - p^h (has a live node).
        # Reads need every column covered: prod b.  Writes also need
        # some column full: prod b - prod (b - a).
        covered = covered_none_full = 1.0
        for h in spec.column_heights(n):
            a = (1.0 - p) ** h
            b = 1.0 - p**h
            covered *= b
            covered_none_full *= b - a
        return covered, covered - covered_none_full
    return (exact_quorum_availability(system.nodes, system.is_read_quorum, p),
            exact_quorum_availability(system.nodes, system.is_write_quorum, p))


def majority_availability(n: int, quorum: int, p: float) -> float:
    """P[at least *quorum* of *n* nodes are alive]."""
    return binomial_tail(n, quorum, 1.0 - p)


# ---------------------------------------------------------------------------
# protocol-level availability under write ratio w
# ---------------------------------------------------------------------------


def dqvl_availability(
    w: float,
    n_iqs: int,
    n_oqs: int,
    p: float,
    oqs_read_size: int = 1,
    iqs_read_size: Optional[int] = None,
    iqs_write_size: Optional[int] = None,
) -> float:
    """The paper's DQVL formula.

    * ``av_orq`` — an OQS read quorum exists: any ``oqs_read_size`` of
      the ``n_oqs`` nodes (read-one by default: ``1 - p^n``);
    * ``av_irq`` / ``av_iwq`` — IQS read/write quorums (majorities by
      default).

    Reads need an OQS read quorum and (pessimistically — the paper notes
    valid leases can mask short failures) an IQS read quorum for
    renewals; writes need IQS read + write quorums (the logical-clock
    read and the write itself).  Invalidation of the OQS never blocks a
    write indefinitely: expired volume leases substitute for
    unreachable OQS nodes — hence no ``av`` term for the OQS write
    quorum, per the paper.
    """
    _check_inputs(w, p)
    majority = n_iqs // 2 + 1
    ir = majority if iqs_read_size is None else iqs_read_size
    iw = majority if iqs_write_size is None else iqs_write_size
    av_orq = binomial_tail(n_oqs, oqs_read_size, 1.0 - p)
    av_irq = majority_availability(n_iqs, ir, p)
    av_iwq = majority_availability(n_iqs, iw, p)
    return (1.0 - w) * min(av_orq, av_irq) + w * min(av_iwq, av_irq)


def dqvl_system_availability(
    w: float, iqs_spec: SpecLike, oqs_spec: SpecLike, n_iqs: int, n_oqs: int, p: float
) -> float:
    """The paper's DQVL formula generalised to arbitrary quorum systems.

    Same min-composition as :func:`dqvl_availability` — reads need an
    OQS read quorum plus (pessimistically) an IQS read quorum for
    renewals; writes need IQS read + write quorums; the OQS write
    quorum never blocks a write indefinitely (expired volume leases
    substitute) — but the per-quorum terms come from
    :func:`quorum_availability`, so grid and weighted shapes are scored
    exactly.  This is the availability axis of the ``repro tune``
    scoring model (DESIGN.md §17).
    """
    _check_inputs(w, p)
    av_orq = quorum_availability(oqs_spec, n_oqs, p)[0]
    av_irq, av_iwq = quorum_availability(iqs_spec, n_iqs, p)
    return (1.0 - w) * min(av_orq, av_irq) + w * min(av_iwq, av_irq)


def majority_protocol_availability(w: float, n: int, p: float) -> float:
    """Majority quorum: both reads and writes need a majority."""
    _check_inputs(w, p)
    av = majority_availability(n, n // 2 + 1, p)
    return (1.0 - w) * av + w * av


def grid_protocol_availability(
    w: float, n: int, p: float, rows: Optional[int] = None, cols: Optional[int] = None
) -> float:
    """Grid quorum protocol over a near-square (possibly ragged) grid."""
    _check_inputs(w, p)
    shape = "grid" if rows is None or cols is None else f"grid:{rows}x{cols}"
    av_r, av_w = quorum_availability(shape, n, p)
    return (1.0 - w) * av_r + w * av_w


def rowa_availability(w: float, n: int, p: float) -> float:
    """ROWA: reads need any one node, writes need all of them."""
    _check_inputs(w, p)
    return (1.0 - w) * (1.0 - p**n) + w * (1.0 - p) ** n


def rowa_async_availability(w: float, n: int, p: float, allow_stale: bool = True) -> float:
    """ROWA-Async, in the paper's two variants.

    * ``allow_stale=True`` — any node can serve either operation, stale
      or not: ``av = 1 - p^n``.  Excellent, but not regular semantics.
    * ``allow_stale=False`` — the fair comparison (Yu & Vahdat): a read
      that would return stale data is rejected.  Immediately after a
      write, only the accepting replica is guaranteed current, so a read
      needs *that* node alive (``1 - p``); writes still complete at any
      live node.  This is why the no-stale variant collapses to roughly
      ``1 - p`` — "several orders of magnitude worse" than quorums.
    """
    _check_inputs(w, p)
    any_node = 1.0 - p**n
    if allow_stale:
        return (1.0 - w) * any_node + w * any_node
    return (1.0 - w) * (1.0 - p) + w * any_node


def primary_backup_availability(w: float, n: int, p: float) -> float:
    """Primary/backup without failover: everything needs the primary."""
    _check_inputs(w, p)
    return 1.0 - p


def protocol_unavailability(protocol: str, w: float, n: int, p: float, **kwargs) -> float:
    """Unavailability (``1 - av``) dispatcher used by the Figure 8 bench.

    ``n`` is the number of replicas; DQVL uses it for both IQS and OQS
    sizes, as in the figure ("the number of replicas ... in both IQS and
    OQS").
    """
    table: Dict[str, float] = {
        "dqvl": lambda: dqvl_availability(w, n_iqs=n, n_oqs=n, p=p, **kwargs),
        "majority": lambda: majority_protocol_availability(w, n, p),
        "grid": lambda: grid_protocol_availability(w, n, p, **kwargs),
        "rowa": lambda: rowa_availability(w, n, p),
        "rowa_async": lambda: rowa_async_availability(w, n, p, allow_stale=True),
        "rowa_async_no_stale": lambda: rowa_async_availability(w, n, p, allow_stale=False),
        "primary_backup": lambda: primary_backup_availability(w, n, p),
    }
    if protocol not in table:
        raise KeyError(f"unknown protocol {protocol!r}; choose from {sorted(table)}")
    availability = table[protocol]()
    return max(0.0, 1.0 - availability)
