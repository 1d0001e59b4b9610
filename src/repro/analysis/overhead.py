"""Communication-overhead models (Figure 9).

The paper counts the average number of message exchanges per client
request, weighting all message types equally; the detailed model is in
the dissertation, so we re-derive it here.  EXPERIMENTS.md documents the
derivation; in brief, with quorum sizes

* ``or_`` / ``ow`` — OQS read / write quorum,
* ``ir`` / ``iw`` — IQS read / write quorum,

and the single-hot-object interleaving model (an IID request stream with
write ratio ``w``), the event probabilities are:

* ``P(read miss) = w`` — a read misses exactly when the most recent
  operation on the object was a write (the first read of a read burst);
* ``P(write through) = 1 - w`` — a write must invalidate exactly when a
  read renewed callbacks since the previous write.

Per-event message counts (requests + replies):

* read hit: ``2 * or_``;
* read miss: ``2 * or_  +  2 * ir`` (each missing OQS read-quorum member
  renews from an IQS read quorum; with the paper's read-one OQS the
  factor is one renewal);
* write (always): ``2 * ir + 2 * iw`` (logical-clock read + quorum write);
* write through adds invalidations: every IQS write-quorum member that
  holds callbacks invalidates an OQS write quorum.  Callbacks live at
  the ``ir`` servers touched by the last renewal, so the expected number
  of invalidating servers is the quorum overlap ``E = iw * ir / n_iqs``
  (hypergeometric mean for independently sampled quorums), giving
  ``2 * ow * E`` extra messages.

Volume-lease renewals are charged separately via ``renewal_rate`` (extra
volume renewals per read; near zero once leases amortise across a
volume's objects — the A2 ablation measures this).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..bounds import require
from ..quorum.spec import QuorumSpec, default_grid_shape

__all__ = [
    "dqvl_messages_per_request",
    "majority_messages_per_request",
    "grid_messages_per_request",
    "rowa_messages_per_request",
    "rowa_async_messages_per_request",
    "primary_backup_messages_per_request",
    "protocol_messages_per_request",
]


def dqvl_messages_per_request(
    w: float,
    n_iqs: int,
    n_oqs: int,
    oqs_read_size: int = 1,
    oqs_write_size: Optional[int] = None,
    iqs_read_size: Optional[int] = None,
    iqs_write_size: Optional[int] = None,
    read_miss_rate: Optional[float] = None,
    write_through_rate: Optional[float] = None,
    renewal_rate: float = 0.0,
) -> float:
    """Expected messages per request for DQVL.

    ``read_miss_rate`` / ``write_through_rate`` default to the
    interleaving model (``w`` and ``1 - w``); pass measured rates to
    model bursty workloads (they shrink both, which is exactly how DQVL
    escapes its worst case).
    """
    require("w", w, 0, 1)
    majority = n_iqs // 2 + 1
    ir = majority if iqs_read_size is None else iqs_read_size
    iw = majority if iqs_write_size is None else iqs_write_size
    or_ = oqs_read_size
    ow = n_oqs if oqs_write_size is None else oqs_write_size
    miss = w if read_miss_rate is None else read_miss_rate
    through = (1.0 - w) if write_through_rate is None else write_through_rate

    read_cost = 2.0 * or_ + miss * (2.0 * ir) + renewal_rate * (2.0 * ir)
    overlap = iw * ir / n_iqs  # expected invalidating IQS servers
    write_cost = 2.0 * ir + 2.0 * iw + through * (2.0 * ow * overlap)
    return (1.0 - w) * read_cost + w * write_cost


def majority_messages_per_request(w: float, n: int) -> float:
    """Majority quorum: reads one round to a majority; writes two."""
    require("w", w, 0, 1)
    q = n // 2 + 1
    read_cost = 2.0 * q
    write_cost = 2.0 * q + 2.0 * q
    return (1.0 - w) * read_cost + w * write_cost


def grid_messages_per_request(
    w: float, rows: int, cols: int, n: Optional[int] = None
) -> float:
    """Grid quorum: read quorum = cols; write quorum = shortest column +
    cols - 1 (ragged grids have a shorter last column)."""
    require("w", w, 0, 1)
    n = n if n is not None else rows * cols
    grid = QuorumSpec(kind="grid", rows=rows, cols=cols).build([f"g{i}" for i in range(n)])
    read_cost = 2.0 * grid.read.min_size
    write_cost = 2.0 * grid.read.min_size + 2.0 * grid.write.min_size
    return (1.0 - w) * read_cost + w * write_cost


def rowa_messages_per_request(w: float, n: int) -> float:
    """ROWA: read one replica; write all replicas (one round)."""
    require("w", w, 0, 1)
    return (1.0 - w) * 2.0 + w * (2.0 * n)


def rowa_async_messages_per_request(
    w: float, n: int, gossip_overhead_per_request: float = 0.0
) -> float:
    """ROWA-Async: local read (2), local write (2) plus one eager push
    to each peer (one-way, no ack); anti-entropy digests are charged via
    *gossip_overhead_per_request* (workload-dependent, 0 in the figure's
    per-request accounting)."""
    require("w", w, 0, 1)
    read_cost = 2.0
    write_cost = 2.0 + (n - 1)
    return (1.0 - w) * read_cost + w * write_cost + gossip_overhead_per_request


def primary_backup_messages_per_request(w: float, n: int) -> float:
    """Primary/backup: both ops are one exchange with the primary; a
    write additionally fans one update to each backup."""
    require("w", w, 0, 1)
    read_cost = 2.0
    write_cost = 2.0 + (n - 1)
    return (1.0 - w) * read_cost + w * write_cost


def protocol_messages_per_request(protocol: str, w: float, n: int, **kwargs) -> float:
    """Dispatcher for the Figure 9 bench; *n* is the replica count
    (DQVL: both IQS and OQS sizes unless overridden in kwargs)."""
    if protocol == "dqvl":
        n_iqs = kwargs.pop("n_iqs", n)
        n_oqs = kwargs.pop("n_oqs", n)
        return dqvl_messages_per_request(w, n_iqs=n_iqs, n_oqs=n_oqs, **kwargs)
    if protocol == "majority":
        return majority_messages_per_request(w, n)
    if protocol == "grid":
        rows = kwargs.get("rows")
        cols = kwargs.get("cols")
        if rows is None or cols is None:
            rows, cols = default_grid_shape(n)
        return grid_messages_per_request(w, rows, cols, n=n)
    if protocol == "rowa":
        return rowa_messages_per_request(w, n)
    if protocol == "rowa_async":
        return rowa_async_messages_per_request(w, n, **kwargs)
    if protocol == "primary_backup":
        return primary_backup_messages_per_request(w, n)
    raise KeyError(f"unknown protocol {protocol!r}")
