"""Message representation for the simulated network.

Messages are small, immutable-ish records.  The ``kind`` string selects
the handler on the receiving node (``on_<kind>``); ``payload`` carries the
protocol-specific fields.  ``reply_to`` links a response back to the
request that produced it, which is how :meth:`repro.sim.node.Node.call`
implements request/response RPC on top of one-way sends.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

__all__ = ["Message"]

_message_ids = itertools.count(1)


class Message:
    """A single network message.

    Attributes
    ----------
    src, dst:
        Node identifiers (strings) of sender and receiver.
    kind:
        Handler selector, e.g. ``"inval"`` dispatches to ``on_inval``.
    payload:
        Protocol fields, read as ``message.payload[...]`` (there is no
        item access on the message itself).  Treated as read-only by
        receivers.
    msg_id:
        Unique id assigned at construction; used for RPC correlation and
        duplicate tracking.
    reply_to:
        ``msg_id`` of the request this message responds to, or ``None``.
    send_time:
        Simulated time at which the message entered the network.
    span_id:
        Observability metadata: the id of the causal span (see
        ``repro.obs``) this message belongs to, or ``None`` when tracing
        is off or the sender is untraced.  Replies inherit the request's
        span id so a whole RPC exchange attributes to one span.
    """

    __slots__ = ("src", "dst", "kind", "payload", "msg_id", "reply_to",
                 "send_time", "span_id")

    def __init__(self, src: str, dst: str, kind: str,
                 payload: Optional[Dict[str, Any]] = None,
                 reply_to: Optional[int] = None, span_id: Optional[int] = None,
                 send_time: float = 0.0) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload or {}
        self.msg_id = next(_message_ids)
        self.reply_to = reply_to
        self.send_time = send_time
        self.span_id = span_id

    def duplicate(self) -> "Message":
        """A copy with a fresh ``msg_id`` (used by duplication injection).

        The copy keeps ``reply_to`` so duplicated replies still correlate.
        """
        return Message(
            src=self.src,
            dst=self.dst,
            kind=self.kind,
            payload=dict(self.payload),
            reply_to=self.reply_to,
            send_time=self.send_time,
            span_id=self.span_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        reply = f" reply_to={self.reply_to}" if self.reply_to is not None else ""
        return f"<Message #{self.msg_id} {self.kind} {self.src}->{self.dst}{reply}>"
