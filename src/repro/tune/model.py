"""Analytic scoring model for the quorum-shape autotuner.

Each (IQS spec, OQS spec) candidate is scored on three axes without
touching the simulator:

* **latency** — expected mean operation latency under a read fraction
  ``f``, generalising :mod:`repro.analysis.response_time` to arbitrary
  quorum shapes.  A QRPC to a quorum of size ``q`` waits for the
  *maximum* of ``q`` round trips; with per-leg uniform jitter
  ``U(0, j)`` each round trip is ``2d + U + U'``, so the expectation is
  ``2d + E[max of q triangular(0, 2j) draws]`` — computed by
  deterministic fixed-grid integration of ``1 - F(t)^q``
  (:func:`tri_max_mean`).  This is what makes smaller quorums *strictly*
  faster once jitter is nonzero: the max of fewer draws is smaller.
* **load** — mean per-node messages handled per client operation: reads
  touch an OQS read quorum (plus, on a miss, an IQS read quorum for
  validation/renewal); writes touch an IQS read quorum (logical-clock
  read), an IQS write quorum, and an OQS write quorum (invalidation).
* **availability** — the paper's min-composition formula generalised to
  every shape's entry in the availability table
  (:func:`repro.analysis.availability.dqvl_system_availability`).

Model assumptions (documented in DESIGN.md §17): full locality (reads
hit the client's co-located OQS node when the OQS read quorum is a
singleton), read-miss probability equal to the write fraction (the same
heuristic :mod:`repro.analysis.response_time` uses), and write-through
invalidation on every write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.availability import dqvl_system_availability
from ..quorum.spec import QuorumSpec

__all__ = ["LatencyModel", "CandidateScore", "score_candidate", "tri_max_mean"]

#: fixed integration grid for :func:`tri_max_mean` — deterministic, and
#: fine enough that the quadrature error (< 1e-3 ms at j = 5) is far
#: below the model's own fidelity
_TRI_STEPS = 512


def tri_max_mean(q: int, jitter_ms: float) -> float:
    """``E[max of q i.i.d. triangular(0, 2j) draws]`` (extra wait of a
    size-*q* QRPC beyond its deterministic round trip).

    Each leg's round trip carries two independent ``U(0, j)`` jitters;
    their sum is triangular on ``[0, 2j]`` with CDF ``t^2 / 2j^2`` below
    ``j`` and ``1 - (2j - t)^2 / 2j^2`` above.  The expectation of the
    max is ``∫ (1 - F(t)^q) dt`` over ``[0, 2j]``, integrated by the
    trapezoid rule on a fixed grid.
    """
    if jitter_ms <= 0.0 or q <= 0:
        return 0.0
    j = float(jitter_ms)
    hi = 2.0 * j
    dt = hi / _TRI_STEPS

    def integrand(t: float) -> float:
        if t <= j:
            cdf = (t * t) / (2.0 * j * j)
        else:
            rest = hi - t
            cdf = 1.0 - (rest * rest) / (2.0 * j * j)
        return 1.0 - cdf**q

    total = 0.5 * (integrand(0.0) + integrand(hi))
    for i in range(1, _TRI_STEPS):
        total += integrand(i * dt)
    return total * dt


@dataclass(frozen=True)
class LatencyModel:
    """Topology delay parameters for the analytic latency model.

    Defaults mirror :class:`repro.edge.topology.EdgeTopologyConfig`:
    client↔home-edge ``lan_ms``, client↔remote-edge ``client_wan_ms``,
    edge↔edge ``server_wan_ms`` (one-way), plus per-leg uniform jitter
    ``U(0, jitter_ms)``.
    """

    lan_ms: float = 8.0
    client_wan_ms: float = 86.0
    server_wan_ms: float = 80.0
    jitter_ms: float = 5.0

    def qrpc_ms(self, one_way_ms: float, quorum_size: int) -> float:
        """Expected latency of a QRPC waiting on *quorum_size* legs."""
        return 2.0 * one_way_ms + tri_max_mean(quorum_size, self.jitter_ms)

    def read_ms(self, r_oqs: int, r_iqs: int, miss_rate: float) -> float:
        """Expected DQVL read latency.

        A read-one OQS quorum is served by the co-located replica (one
        LAN round trip); larger read quorums must reach remote edges
        over the client WAN.  A miss adds the OQS→IQS validation/renewal
        QRPC over the server WAN.
        """
        if r_oqs <= 1:
            hit = self.qrpc_ms(self.lan_ms, 1)
        else:
            # the co-located leg never dominates the remote legs
            hit = self.qrpc_ms(self.client_wan_ms, r_oqs - 1)
        renewal = self.qrpc_ms(self.server_wan_ms, r_iqs)
        return hit + miss_rate * renewal

    def write_ms(self, r_iqs: int, w_iqs: int, w_oqs: int) -> float:
        """Expected DQVL write latency: the logical-clock read and the
        write proper over the client WAN, then write-through
        invalidation of an OQS write quorum over the server WAN."""
        return (
            self.qrpc_ms(self.client_wan_ms, r_iqs)
            + self.qrpc_ms(self.client_wan_ms, w_iqs)
            + self.qrpc_ms(self.server_wan_ms, w_oqs)
        )


@dataclass(frozen=True)
class CandidateScore:
    """One candidate's position on the three tuning axes."""

    iqs: str
    oqs: str
    latency_ms: float
    read_ms: float
    write_ms: float
    load: float
    availability: float

    def dominates(self, other: "CandidateScore") -> bool:
        """Pareto dominance: no worse on every axis, better on one."""
        no_worse = (
            self.latency_ms <= other.latency_ms
            and self.load <= other.load
            and self.availability >= other.availability
        )
        better = (
            self.latency_ms < other.latency_ms
            or self.load < other.load
            or self.availability > other.availability
        )
        return no_worse and better

    def axes_better_than(self, other: "CandidateScore") -> List[str]:
        """The axes on which this score is *strictly* better."""
        axes = []
        if self.latency_ms < other.latency_ms:
            axes.append("latency")
        if self.load < other.load:
            axes.append("load")
        if self.availability > other.availability:
            axes.append("availability")
        return axes

    def to_json_obj(self) -> Dict[str, object]:
        return {
            "iqs": self.iqs,
            "oqs": self.oqs,
            "latency_ms": round(self.latency_ms, 6),
            "read_ms": round(self.read_ms, 6),
            "write_ms": round(self.write_ms, 6),
            "load": round(self.load, 6),
            "availability": round(self.availability, 9),
        }


def score_candidate(
    iqs_spec: QuorumSpec,
    oqs_spec: QuorumSpec,
    num_iqs: int,
    num_oqs: int,
    read_fraction: float,
    p: float,
    delays: LatencyModel,
) -> CandidateScore:
    """Score one (IQS, OQS) shape pair analytically."""
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    iqs = iqs_spec.build([f"iqs{k}" for k in range(num_iqs)])
    oqs = oqs_spec.build([f"oqs{k}" for k in range(num_oqs)])
    f = read_fraction
    miss = 1.0 - f
    r_i, w_i = iqs.read.min_size, iqs.write.min_size
    r_o, w_o = oqs.read.min_size, oqs.write.min_size

    read_ms = delays.read_ms(r_o, r_i, miss)
    write_ms = delays.write_ms(r_i, w_i, w_o)
    latency_ms = f * read_ms + (1.0 - f) * write_ms

    # mean per-node messages handled per client operation
    messages = f * (r_o + miss * r_i) + (1.0 - f) * (r_i + w_i + w_o)
    load = messages / (num_iqs + num_oqs)

    availability = dqvl_system_availability(
        1.0 - f, iqs_spec, oqs_spec, num_iqs, num_oqs, p
    )
    return CandidateScore(
        iqs=str(iqs_spec),
        oqs=str(oqs_spec),
        latency_ms=latency_ms,
        read_ms=read_ms,
        write_ms=write_ms,
        load=load,
        availability=availability,
    )
