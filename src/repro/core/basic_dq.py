"""The basic dual-quorum protocol (Section 3.1) — no volume leases.

This is the paper's stepping-stone protocol: reads and writes are
processed by two separate quorum systems (OQS and IQS) synchronised by
per-object invalidations.  It already allows the read and write quorums
to be optimised independently, but because it assumes an asynchronous
system model, **a write can block for an arbitrarily long time**: the
writer must collect invalidation acknowledgements from an OQS write
quorum, and there is no lease to wait out when an OQS node is
unreachable.  DQVL (:mod:`repro.core.dqvl`) fixes exactly this.

Message kinds are shared with DQVL's client-facing surface (``dq_read``,
``dq_write``, ``lc_read``, ``obj_renew``, ``inval``), so the same
service client — a :class:`~repro.protocols.register.RegisterClient`
reading on the OQS and writing on the IQS — drives both protocols.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..quorum.qrpc import READ, QuorumCall
from ..quorum.system import QuorumSystem
from ..sim.clock import DriftingClock
from ..sim.kernel import Simulator, any_of
from ..sim.messages import Message
from ..sim.network import Network
from ..sim.node import Node
from ..sim.trace import NULL_TRACER
from ..types import ZERO_LC, LogicalClock
from .config import DqvlConfig

__all__ = ["BasicIqsNode", "BasicOqsNode"]


class BasicIqsNode(Node):
    """IQS server of the basic protocol: invalidation without leases."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        oqs_system: QuorumSystem,
        config: Optional[DqvlConfig] = None,
        clock: Optional[DriftingClock] = None,
        tracer=NULL_TRACER,
    ) -> None:
        super().__init__(sim, network, node_id, clock=clock)
        self.oqs = oqs_system
        self.config = config or DqvlConfig()
        self.tracer = tracer
        self.logical_clock = ZERO_LC
        self._values: Dict[str, Any] = {}
        self._last_write_lc: Dict[str, LogicalClock] = {}
        # per-(object, OQS node) lastReadLC; see DqvlIqsNode for why this
        # is tracked per node rather than the paper's global scalar
        self._last_renew_lc: Dict[Tuple[str, str], Optional[LogicalClock]] = {}
        self._last_ack_lc: Dict[Tuple[str, str], LogicalClock] = {}
        self.writes_applied = 0
        self.writes_suppressed = 0
        self.writes_through = 0
        self.invals_sent = 0
        self.renewals_served = 0

    # -- state accessors -----------------------------------------------------

    def last_write_lc(self, obj: str) -> LogicalClock:
        return self._last_write_lc.get(obj, ZERO_LC)

    def last_renew_lc(self, obj: str, oqs_node: str) -> Optional[LogicalClock]:
        return self._last_renew_lc.get((obj, oqs_node))

    def last_read_lc(self, obj: str) -> LogicalClock:
        """The paper's global ``lastReadLC``: max over the per-node values."""
        values = [
            lc for (o, _j), lc in self._last_renew_lc.items()
            if o == obj and lc is not None
        ]
        return max(values, default=ZERO_LC)

    def last_ack_lc(self, obj: str, oqs_node: str) -> LogicalClock:
        return self._last_ack_lc.get((obj, oqs_node), ZERO_LC)

    def value_of(self, obj: str) -> Any:
        return self._values.get(obj)

    # -- handlers ----------------------------------------------------------------

    def on_lc_read(self, msg: Message) -> None:
        self.reply(msg, payload={"lc": self.logical_clock})

    def on_dq_write(self, msg: Message):
        """Apply-if-newer, then ensure invalidation, then acknowledge.

        As in DQVL, the invalidation step runs for every copy of the
        request — acknowledging a retransmitted duplicate early would
        let the client complete the write while caches still serve the
        old version (see :meth:`DqvlIqsNode.on_dq_write`)."""
        obj: str = msg["obj"]
        lc: LogicalClock = msg["lc"]
        fresh = lc > self.last_write_lc(obj)
        if fresh:
            self._values[obj] = msg["value"]
            self._last_write_lc[obj] = lc
            self.logical_clock = self.logical_clock.merge(lc)
            self.writes_applied += 1
        yield from self._ensure_owq_invalid(obj, lc, record_stats=fresh,
                                            parent=msg.span_id)
        self.reply(msg, payload={"obj": obj, "lc": lc})

    def on_obj_renew(self, msg: Message) -> None:
        """Serve the current value; record the callback installation."""
        obj: str = msg["obj"]
        self.renewals_served += 1
        self._last_renew_lc[(obj, msg.src)] = self.last_write_lc(obj)
        self.reply(
            msg,
            payload={
                "obj": obj,
                "value": self._values.get(obj),
                "lc": self.last_write_lc(obj),
            },
        )

    # -- invalidation ---------------------------------------------------------------

    def _record_ack(self, obj: str, oqs_node: str, lc: LogicalClock) -> None:
        key = (obj, oqs_node)
        self._last_ack_lc[key] = max(self._last_ack_lc.get(key, ZERO_LC), lc)

    def _known_invalid(self, obj: str, oqs_node: str, lc: LogicalClock) -> bool:
        """Case (a): j's copy is provably invalid when it acked an
        invalidation covering this write, never renewed the object
        (nothing cached), or acked *strictly* after its last renewal.
        The comparison must be strict: an ack and a later renewal can
        carry the same clock, in which case j has revalidated and must
        be suspected."""
        ack = self.last_ack_lc(obj, oqs_node)
        if ack >= lc:
            return True
        renew = self.last_renew_lc(obj, oqs_node)
        # Note: inferring invalidity from `renew >= lc` would be unsound
        # under message loss — a served renewal reply may never arrive,
        # and only an acknowledgement proves delivery (see DqvlIqsNode).
        return renew is None or ack > renew

    def _ensure_owq_invalid(self, obj: str, lc: LogicalClock,
                            record_stats: bool = True,
                            parent: Optional[int] = None):
        """Block until an OQS write quorum has acknowledged invalidation.

        Unlike DQVL there is no lease to wait out: if too many OQS nodes
        are unreachable this loops forever — the asynchronous model's
        documented weakness.
        """
        interval = self.config.inval_initial_timeout_ms
        ack_event = self.sim.future(name=f"{self.node_id}:ack:{obj}")
        sent_any = False
        obs_tracer = self.obs_tracer
        span = None
        if obs_tracer is not None:
            span = obs_tracer.span("invalidate", category="inval",
                                   node=self.node_id, parent=parent,
                                   key=obj, lc=str(lc))

        def on_inval_reply(future) -> None:
            if future.failed:
                return
            reply: Message = future._value
            self._record_ack(obj, reply.src, reply["lc"])
            if not ack_event.done:
                ack_event.resolve(None)

        while True:
            invalid: Set[str] = {
                j for j in self.oqs.nodes if self._known_invalid(obj, j, lc)
            }
            if self.oqs.is_write_quorum(invalid):
                if record_stats:
                    if sent_any:
                        self.writes_through += 1
                    else:
                        self.writes_suppressed += 1
                if span is not None:
                    span.finish(
                        outcome="through" if sent_any else "suppressed"
                    )
                return
            for j in self.oqs.nodes:
                if j in invalid:
                    continue
                self.invals_sent += 1
                future = self.call(j, "inval", {"obj": obj, "lc": lc},
                                   timeout=interval,
                                   span=span.span_id if span is not None else None)
                future.add_callback(on_inval_reply)
            sent_any = True
            yield any_of(self.sim, [ack_event, self.sim.sleep(interval)])
            if ack_event.done:
                ack_event = self.sim.future(name=f"{self.node_id}:ack:{obj}")
            interval = min(interval * self.config.qrpc_backoff, self.config.qrpc_max_timeout_ms)


class BasicOqsNode(Node):
    """OQS server of the basic protocol: per-(object, IQS-node) validity."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        iqs_system: QuorumSystem,
        config: Optional[DqvlConfig] = None,
        clock: Optional[DriftingClock] = None,
        tracer=NULL_TRACER,
    ) -> None:
        super().__init__(sim, network, node_id, clock=clock)
        self.iqs = iqs_system
        self.config = config or DqvlConfig()
        self.tracer = tracer
        # per (obj, iqs_node): highest clock seen, and whether it was an
        # update (True) or an invalidation (False)
        self._clock_of: Dict[Tuple[str, str], LogicalClock] = {}
        self._valid: Dict[Tuple[str, str], bool] = {}
        self._values: Dict[str, Tuple[Any, LogicalClock]] = {}
        #: optional NodeResilience; attached by the deployment
        self.resilience = None
        self.read_hits = 0
        self.read_misses = 0
        self.renewals_sent = 0
        self.invals_received = 0

    # -- validity -----------------------------------------------------------

    def object_clock(self, obj: str, iqs_node: str) -> LogicalClock:
        return self._clock_of.get((obj, iqs_node), ZERO_LC)

    def is_local_valid(self, obj: str) -> bool:
        """The hit test: a full IQS read quorum of *valid* columns, plus
        the max-clock rule (no column may have seen a newer
        invalidation).

        The paper's Section 3.1 prose checks only the max-clock column;
        that alone is unsound once callbacks are tracked per node: the
        valid columns can shrink below a read quorum (stale renewal
        replies are rejected per column), after which a write quorum can
        exist that avoids every valid column — its members all classify
        this node invalid, suppress their invalidations, and the node
        serves the old value as a hit.  Requiring the valid columns to
        contain a read quorum restores the intersection argument — it is
        exactly DQVL's Condition C without the leases.  (Found by the
        lossy-network fuzz suite; see DESIGN.md §8.)
        """
        valid_servers = {
            i for i in self.iqs.nodes if self._valid.get((obj, i), False)
        }
        if not self.iqs.is_read_quorum(valid_servers):
            return False
        max_seen = max(
            (self.object_clock(obj, i) for i in self.iqs.nodes), default=ZERO_LC
        )
        return any(
            self.object_clock(obj, i) == max_seen for i in valid_servers
        )

    def local_value(self, obj: str) -> Tuple[Any, LogicalClock]:
        return self._values.get(obj, (None, ZERO_LC))

    # -- handlers -------------------------------------------------------------

    def on_dq_read(self, msg: Message):
        obj: str = msg["obj"]
        obs_tracer = self.obs_tracer
        if self.is_local_valid(obj):
            self.read_hits += 1
            if obs_tracer is not None:
                obs_tracer.event("read_hit", span=msg.span_id,
                                 node=self.node_id, key=obj)
            value, lc = self.local_value(obj)
            self.reply(msg, payload={"obj": obj, "value": value, "lc": lc, "hit": True})
            return
        self.read_misses += 1
        if obs_tracer is not None:
            obs_tracer.event("read_miss", span=msg.span_id,
                             node=self.node_id, key=obj)
        yield from self._renew_object(obj, parent=msg.span_id)
        value, lc = self.local_value(obj)
        self.reply(msg, payload={"obj": obj, "value": value, "lc": lc, "hit": False})

    def _renew_object(self, obj: str, parent: Optional[int] = None):
        """Validate by QRPC-renewing from an IQS read quorum.

        Completion requires BOTH a full read quorum of replies and the
        max-clock validity rule.  The quorum requirement is what makes
        the result fresh: any read quorum intersects the write quorum of
        the latest completed write, so at least one reply carries its
        clock.  (Stopping at mere local validity would let a single
        stale replica's reply satisfy the max-clock rule and serve an
        old value — a subtle unsound shortcut.)"""

        obs_tracer = self.obs_tracer
        span = None
        if obs_tracer is not None:
            span = obs_tracer.span("validate", category="lease",
                                   node=self.node_id, parent=parent, key=obj)

        def request_for(target: str):
            self.renewals_sent += 1
            return ("obj_renew", {"obj": obj})

        call = QuorumCall(
            self,
            self.iqs,
            READ,
            request_for=request_for,
            done=lambda replies: (
                self.iqs.is_read_quorum(set(replies)) and self.is_local_valid(obj)
            ),
            on_reply=self._apply_renewal_reply,
            initial_timeout_ms=self.config.qrpc_initial_timeout_ms,
            backoff=self.config.qrpc_backoff,
            max_timeout_ms=self.config.qrpc_max_timeout_ms,
            max_attempts=self.config.client_max_attempts,
            span=span,
            resilience=self.resilience,
        )
        try:
            yield from call.run()
        except Exception:
            if span is not None:
                span.finish(status="failed")
            raise
        else:
            if span is not None:
                span.finish(status="ok")

    def _apply_renewal_reply(self, reply: Message) -> None:
        """Apply an object renewal: newer-or-equal clocks validate."""
        obj = reply["obj"]
        lc: LogicalClock = reply["lc"]
        key = (obj, reply.src)
        if lc >= self._clock_of.get(key, ZERO_LC):
            self._clock_of[key] = lc
            self._valid[key] = True
            max_seen = max(
                (self.object_clock(obj, i) for i in self.iqs.nodes), default=ZERO_LC
            )
            if lc >= max_seen:
                self._values[obj] = (reply["value"], lc)

    def on_inval(self, msg: Message) -> None:
        self.invals_received += 1
        obj = msg["obj"]
        lc: LogicalClock = msg["lc"]
        key = (obj, msg.src)
        if lc > self._clock_of.get(key, ZERO_LC):
            self._clock_of[key] = lc
            self._valid[key] = False
        self.reply(msg, payload={"obj": obj, "lc": lc})
