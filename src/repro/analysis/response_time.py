"""Analytical response-time model for the edge topology (Figures 6-7).

These closed forms predict the *network* component of each protocol's
mean response time under the paper's delay parameters.  They serve two
purposes: cross-checking the simulator (tests assert simulation means
approach the model) and giving EXPERIMENTS.md an interpretable account
of every curve.  Every round trip comes from the autotuner's
:class:`~repro.tune.model.LatencyModel` with the paper's delays and no
jitter, so the Figure 6-7 cross-check and ``repro tune`` read one set
of numbers; this module only mixes them per protocol and workload.

Model assumptions (matching the simulation's *direct* mode, which is the
paper's measurement setup):

* constant one-way delays: ``lan`` (app ↔ closest edge server),
  ``cwan`` (app ↔ every other edge server), ``swan`` (edge ↔ edge);
  zero processing time;
* the service client runs on the application client's machine, so a
  quorum round from the client costs a ``cwan`` round trip whenever the
  quorum includes any non-closest replica (it always does for majority
  quorums of more than one), and a ``lan`` round trip when a single
  co-located... closest replica suffices;
* steady state for DQVL under a per-client object with proactive lease
  renewal: reads at the object's usual replica are hits; reads at a
  *different* replica (redirected requests) miss and the replica renews
  from the IQS over server-to-server links; writes pay the two IQS
  rounds plus, when a read preceded them, a server-side invalidation
  round.
"""

from __future__ import annotations

from ..bounds import require
from ..tune.model import LatencyModel

__all__ = ["expected_latency", "expected_mean_latency"]

#: the paper's constant delays: with no jitter every QRPC costs exactly
#: its round trip (``qrpc_ms`` adds no wait for the slowest leg)
_PAPER = LatencyModel(jitter_ms=0.0)


def expected_latency(
    protocol: str,
    op: str,
    local: bool = True,
    primary_local: bool = False,
    miss: bool = False,
    write_through: bool = True,
) -> float:
    """Expected response time of one operation.

    Parameters
    ----------
    protocol:
        ``dqvl`` | ``majority`` | ``primary_backup`` | ``rowa`` |
        ``rowa_async``.
    op:
        ``read`` | ``write``.
    local:
        Whether the request reached the client's home front end
        (the access-locality knob of Figure 7).
    primary_local:
        Primary/backup only: is the primary co-located with the chosen
        front end?
    miss:
        DQVL reads only: charge the renewal round (first read after a
        write, or at a freshly visited replica).
    write_through:
        DQVL writes only: charge the invalidation round (a read renewed
        callbacks since the last write).
    """
    lan_rt = _PAPER.qrpc_ms(_PAPER.lan_ms, 1)
    cwan_rt = _PAPER.qrpc_ms(_PAPER.client_wan_ms, 1)
    swan_rt = _PAPER.qrpc_ms(_PAPER.server_wan_ms, 1)
    hop = lan_rt if local else cwan_rt  # app client to the chosen front end
    if protocol == "rowa_async":
        return hop  # the chosen replica serves both ops
    if protocol == "rowa":
        # reads: the chosen replica; writes: all replicas in parallel,
        # dominated by the farthest (cwan) round trip.
        return hop if op == "read" else cwan_rt
    if protocol == "primary_backup":
        return lan_rt if primary_local else cwan_rt
    if protocol == "majority":
        # Any majority includes distant replicas, so each phase costs a
        # client-WAN round trip — for every locality value (flat).
        return cwan_rt if op == "read" else 2 * cwan_rt
    if protocol in ("dqvl", "basic_dq"):
        if op == "read":
            # a miss makes the contacted OQS replica renew from an IQS
            # read quorum over server-to-server links
            return hop + (swan_rt if miss else 0.0)
        cost = 2 * cwan_rt  # lc read + quorum write, both client-WAN
        if write_through:
            cost += swan_rt  # server-side invalidation round
        return cost
    raise KeyError(f"unknown protocol {protocol!r}")


def expected_mean_latency(
    protocol: str,
    w: float,
    locality: float = 1.0,
    primary_local_fraction: float = 1.0 / 3.0,
    n_distant: int = 8,
) -> float:
    """Workload-mean response time — the full Figure 6(b)/7(b) curves.

    Mixes :func:`expected_latency` over the operation and event
    probabilities of the steady-state single-client-per-object model:

    * an operation is a write with probability ``w`` and lands on the
      home replica with probability ``locality``;
    * a DQVL read at the home replica misses when any write intervened
      since the home replica was last validated — probability ``w``
      (writes invalidate everywhere; redirected *reads* leave the home
      leases intact);
    * a DQVL read at one of the ``n_distant`` distant replicas misses
      when any write occurred since that replica's last visit; the
      expected revisit gap is ``n_distant / (1 - locality)`` operations,
      so the miss probability is ``1 - (1-w) ** gap``;
    * a DQVL write goes through (pays the invalidation round) when a
      read preceded it: probability ``1 - w``;
    * the primary/backup primary is co-located with one of the
      ``1/primary_local_fraction`` clients' home edges.

    This is the model the simulation cross-check tests compare against;
    agreement within a few ms validates both.
    """
    require("w", w, 0, 1)
    require("locality", locality, 0, 1)

    if protocol == "primary_backup":
        op = (
            primary_local_fraction * expected_latency(protocol, "read", primary_local=True)
            + (1 - primary_local_fraction)
            * expected_latency(protocol, "read", primary_local=False)
        )
        return op  # reads and writes cost the same here

    if protocol == "majority":
        read = expected_latency(protocol, "read")
        write = expected_latency(protocol, "write")
        return (1 - w) * read + w * write

    if protocol in ("rowa", "rowa_async"):
        read = (
            locality * expected_latency(protocol, "read", local=True)
            + (1 - locality) * expected_latency(protocol, "read", local=False)
        )
        if protocol == "rowa_async":
            return read  # the chosen replica serves writes alike
        return (1 - w) * read + w * expected_latency(protocol, "write")

    if protocol in ("dqvl", "basic_dq"):
        home_miss = w
        read_home = (
            (1 - home_miss) * expected_latency(protocol, "read", local=True, miss=False)
            + home_miss * expected_latency(protocol, "read", local=True, miss=True)
        )
        if locality < 1.0 and n_distant > 0:
            gap = n_distant / (1 - locality)
            away_miss = 1.0 - (1.0 - w) ** gap if w < 1.0 else 1.0
        else:
            away_miss = 1.0
        read_away = (
            (1 - away_miss) * expected_latency(protocol, "read", local=False, miss=False)
            + away_miss * expected_latency(protocol, "read", local=False, miss=True)
        )
        read = locality * read_home + (1 - locality) * read_away
        through = 1 - w
        write = (
            through * expected_latency(protocol, "write", write_through=True)
            + (1 - through) * expected_latency(protocol, "write", write_through=False)
        )
        return (1 - w) * read + w * write

    raise KeyError(f"unknown protocol {protocol!r}")
