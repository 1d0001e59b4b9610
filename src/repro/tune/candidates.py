"""Candidate (IQS, OQS) quorum-shape enumeration for ``repro tune``.

The IQS family covers every shape the :mod:`repro.quorum` package can
build over ``n`` nodes:

* all **majority** read/write splits ``(r, w)`` with ``r + w > n`` —
  the intersection requirement for regular semantics;
* all distinct **grid** layouts ``rows x ceil(n / rows)`` (ragged grids
  allowed; duplicates by shape are collapsed);
* one **weighted-voting** family: a heavy first node holding
  ``n // 2 + 1`` votes, singleton votes elsewhere, majority-of-total
  thresholds — the "primary-biased" point of the weighted space;
* **rowa** and **single**.

The OQS family stays write-all (so invalidations reach every output
replica and :func:`repro.core.cluster._check_owq_safety` stays silent)
but varies the read quorum: read-one (the paper's ROWA default) plus
read-2 and read-3 variants that trade read latency for read-side fault
tolerance.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from ..bounds import require
from ..quorum.spec import QuorumSpec

__all__ = ["iqs_candidates", "oqs_candidates", "candidate_pairs"]


def iqs_candidates(n: int) -> List[QuorumSpec]:
    """Every distinct IQS shape over *n* nodes (see module docstring)."""
    require("n", n, 1)
    specs: List[QuorumSpec] = []
    for r in range(1, n + 1):
        for w in range(1, n + 1):
            if r + w > n:
                specs.append(QuorumSpec(kind="majority", read_size=r, write_size=w))
    seen_shapes = set()
    for rows in range(1, n + 1):
        cols = math.ceil(n / rows)
        if (rows, cols) in seen_shapes:
            continue
        seen_shapes.add((rows, cols))
        specs.append(QuorumSpec(kind="grid", rows=rows, cols=cols))
    if n >= 2:
        votes = (n // 2 + 1,) + (1,) * (n - 1)
        threshold = sum(votes) // 2 + 1
        specs.append(
            QuorumSpec(
                kind="weighted",
                votes=votes,
                read_threshold=threshold,
                write_threshold=threshold,
            )
        )
    specs.append(QuorumSpec(kind="rowa"))
    specs.append(QuorumSpec(kind="single"))
    return specs


def oqs_candidates(n: int) -> List[QuorumSpec]:
    """Write-all OQS shapes over *n* nodes with varying read quorums."""
    require("n", n, 1)
    specs = [QuorumSpec(kind="rowa")]
    for r in (2, 3):
        if r <= n:
            specs.append(QuorumSpec(kind="majority", read_size=r, write_size=n))
    return specs


def candidate_pairs(
    num_iqs: int, num_oqs: int
) -> List[Tuple[QuorumSpec, QuorumSpec]]:
    """The full cross product the tuner scores."""
    return [
        (iqs, oqs)
        for iqs in iqs_candidates(num_iqs)
        for oqs in oqs_candidates(num_oqs)
    ]
