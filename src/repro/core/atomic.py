"""Atomic (linearizable) reads for DQVL — the paper's future work.

Section 6: "We are also interested in modifying DQVL to provide
different consistency semantics (e.g. atomic semantics [16]) and
comparing the cost difference."  This module implements the standard
upgrade and makes the cost measurable.

Why regular DQVL is not atomic
------------------------------
Regularity allows *new-old inversions*: while a write is in flight, one
read may return the new value and a later read the old one (two OQS
read quorums need not intersect, so the second reader can be oblivious
to what the first one saw).

The fix (ABD-style write-back)
------------------------------
:class:`DqvlAtomicClient` completes every read with a **write-back
phase**: the value/clock the read selected is re-issued as a write to an
IQS write quorum.  Re-issuing is safe — the write path is idempotent on
(value, clock) — and after it completes, an OQS write quorum can no
longer serve anything older, so every subsequent read returns at least
that clock.  First-reader-wins then forces a single serialization point
per write: no inversions.

The cost — the answer to the paper's question — is that every read pays
the two-round quorum write path on top of its (possibly local) read:
the A6 ablation benchmark quantifies it.
"""

from __future__ import annotations

from ..protocols.register import RegisterClient
from ..quorum.qrpc import WRITE
from ..types import ZERO_LC
from .cluster import CLIENT_KINDS, client_qrpc_config

__all__ = ["DqvlAtomicClient"]


class DqvlAtomicClient(RegisterClient):
    """A DQVL service client whose reads are atomic (linearizable).

    Reads perform the regular DQVL read, then write back the selected
    (value, clock) to an IQS write quorum before returning; the
    write-back runs under the read's op span and counts toward its
    latency.  Writes are unchanged (the regular write path already
    serializes writes by logical clock).

    ``write_back`` controls the policy:

    * ``"always"`` (default) — atomic semantics;
    * ``"never"`` — degenerates to the regular client (useful for
      like-for-like cost comparisons in one deployment).
    """

    def __init__(self, sim, network, node_id, iqs_system, oqs_system, config,
                 clock=None, prefer_oqs=None, prefer_iqs=None,
                 write_back: str = "always") -> None:
        if write_back not in ("always", "never"):
            raise ValueError("write_back must be 'always' or 'never'")
        super().__init__(
            sim, network, node_id, oqs_system, iqs_system, CLIENT_KINDS,
            client_qrpc_config(config), prefer=prefer_oqs,
            prefer_write=prefer_iqs, clock=clock,
        )
        self.write_back = write_back
        self.write_backs_issued = 0

    def _read(self, obj: str, span):
        best = yield from super()._read(obj, span)
        if self.write_back == "always" and best.payload["lc"] > ZERO_LC:
            self.write_backs_issued += 1
            yield from self._qrpc(
                self.write_system, WRITE, self.write_kind,
                {"obj": obj, "value": best.payload["value"], "lc": best.payload["lc"]},
                span, self._write_prefer(),
            )
        return best
