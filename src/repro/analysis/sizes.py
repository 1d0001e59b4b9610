"""Message-size models for byte-level traffic accounting.

The paper's Figure 9 weights every message equally and says so ("the
study assumes the weights of all message types are equal").  Its
related-work section nevertheless argues in *bytes*: ghost-style
replicas receive "the timestamp and object ID of the write" rather than
the data, and dual-quorum's "use of invalidations also allows us to
reduce the future message propagation".  The A8 ablation quantifies
that: attach :class:`EdgeServiceSizeModel` to the simulated network and
measure bytes per operation instead of messages per operation.

The model is deliberately simple: every message pays a fixed header;
messages whose payload carries an object value (writes, read replies,
renewal replies, epidemic updates, primary/backup sync) add the value
size; volume-renewal replies add a small per-delayed-invalidation
entry.  Invalidations, acks, clock reads, and digests are header-only.
"""

from __future__ import annotations

from typing import Optional

from ..sim.messages import Message

__all__ = ["EdgeServiceSizeModel", "VALUE_BEARING_KINDS"]

#: message kinds whose payload ships an object value
VALUE_BEARING_KINDS = frozenset({
    # dual quorum
    "dq_write", "dq_read_reply", "obj_renew_reply", "vlobj_renew_reply",
    # majority register
    "mq_write", "mq_read_reply",
    # ROWA / ROWA-Async / primary-backup
    "rowa_write", "rowa_read_reply",
    "ra_write", "ra_read_reply", "ra_update",
    "pb_write", "pb_read_reply", "pb_sync",
    # bookstore
    "cat_update", "cat_pull_reply",
})


class EdgeServiceSizeModel:
    """Header + value-size accounting.

    Parameters
    ----------
    value_bytes:
        Size of one object value (the paper's profile objects — name,
        addresses, credit card, recent orders — are ~1 KiB).
    header_bytes:
        Fixed per-message overhead (framing, ids, clocks).
    delayed_entry_bytes:
        Per delayed-invalidation entry piggybacked on a volume renewal
        reply (object id + clock).
    """

    def __init__(
        self,
        value_bytes: int = 1024,
        header_bytes: int = 64,
        delayed_entry_bytes: int = 24,
    ) -> None:
        if min(value_bytes, header_bytes, delayed_entry_bytes) < 0:
            raise ValueError("sizes must be non-negative")
        self.value_bytes = value_bytes
        self.header_bytes = header_bytes
        self.delayed_entry_bytes = delayed_entry_bytes

    def __call__(self, message: Message) -> int:
        size = self.header_bytes
        if message.kind in VALUE_BEARING_KINDS:
            size += self.value_bytes
        delayed = message.payload.get("delayed")
        if delayed:
            size += self.delayed_entry_bytes * len(delayed)
        digest = message.payload.get("digest")
        if digest:
            size += self.delayed_entry_bytes * len(digest)
        return size
