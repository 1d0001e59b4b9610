"""DQVL — dual-quorum replication with volume leases (Sections 3.2-3.3).

Three roles, each a :class:`~repro.sim.node.Node`:

* :class:`DqvlIqsNode` — an Input Quorum System server.  Stores object
  values, orders writes by logical clock, and keeps OQS caches coherent
  by invalidation, delayed invalidation (behind expired volume leases),
  or simply waiting out a volume lease.
* :class:`DqvlOqsNode` — an Output Quorum System server.  Caches objects
  under (volume lease, object lease) pairs and serves reads locally when
  both are valid from a full IQS read quorum (the paper's Condition C);
  otherwise it runs the QRPC variation that renews volumes/objects until
  C holds.  Every lease question it asks, the holder-side drift rule
  included, is answered by its :class:`~repro.core.leases.OqsLeaseView`.
* the service client (the data-access library linked into a front-end
  edge server) is a :class:`~repro.protocols.register.RegisterClient`
  built by :meth:`DqvlCluster.client <repro.core.cluster.DqvlCluster.client>`:
  it reads via QRPC on the OQS and writes via the two-round quorum write
  on the IQS (logical-clock read, then write).

Fidelity notes
--------------
The node logic follows the pseudo-code of the paper's Figures 4 and 5,
with the deviations below (each discussed in DESIGN.md / EXPERIMENTS.md):

* **Granter-side drift correction.**  IQS records lease expiry as
  ``now + L * (1 + maxDrift)`` (the paper only states the holder-side
  ``t0 + L * (1 - maxDrift)`` rule, which is insufficient on its own
  when both clocks may drift).
* **"Known invalid" uses ≥.**  An IQS server counts OQS node j invalid
  for object o when ``lastAckLC >= lastReadLC`` (the paper's prose uses
  a strict inequality, under which a freshly booted system would
  invalidate caches that provably hold nothing).
* **Max-clock hit rule.**  An OQS node additionally refuses to serve a
  cached value when it has seen *any* invalidation with a logical clock
  above its best valid one.  This is the validity rule of the basic
  protocol (Section 3.1) carried over; it is strictly conservative
  (turns some hits into misses; never the reverse).
* **OQS write quorums.**  Each IQS server independently invalidates
  *one* OQS write quorum.  When the OQS write quorum is the full OQS
  node set (the paper's recommended read-one configuration, used in all
  evaluation figures) this is airtight; for proper-subset OQS write
  quorums, different IQS servers may invalidate *different* write
  quorums and regularity can be violated — the cluster builder warns in
  that case.  See DESIGN.md §7 for the analysis.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..quorum.qrpc import BACKOFF, READ, QuorumCall
from ..quorum.system import QuorumSystem
from ..sim.clock import DriftingClock
from ..sim.kernel import Simulator, any_of
from ..sim.messages import Message
from ..sim.network import Network
from ..sim.node import Node
from ..types import ZERO_LC, LogicalClock
from .config import DqvlConfig
from .leases import (
    EMPTY_ROW,
    AdaptiveObjectLeasePolicy,
    IqsLeaseTable,
    ObjectLeaseTable,
    OqsLeaseView,
)

__all__ = ["DqvlIqsNode", "DqvlOqsNode"]


_NEVER = float("-inf")

#: how long a post-crash catch-up waits before retrying an object whose
#: IQS read quorum was unreachable
CATCHUP_RETRY_MS = 500.0


class DqvlIqsNode(Node):
    """An IQS server: the write-side home of every object (Figure 4)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        oqs_system: QuorumSystem,
        config: DqvlConfig,
        clock: Optional[DriftingClock] = None,
    ) -> None:
        super().__init__(sim, network, node_id, clock=clock)
        self.oqs = oqs_system
        self.config = config
        self.logical_clock = ZERO_LC
        self.leases = IqsLeaseTable(
            lease_length_ms=config.lease_length_ms,
            max_drift=config.max_drift,
        )
        # finite object leases (footnote 4) — None means infinite callbacks
        self.object_leases: Optional[ObjectLeaseTable] = (
            ObjectLeaseTable(max_drift=config.max_drift)
            if config.finite_object_leases
            else None
        )
        self.lease_policy: Optional[AdaptiveObjectLeasePolicy] = (
            AdaptiveObjectLeasePolicy(
                config.object_lease_min_ms, config.object_lease_max_ms
            )
            if config.adaptive_object_leases
            else None
        )
        self._values: Dict[str, Any] = {}
        self._last_write_lc: Dict[str, LogicalClock] = {}
        # lastReadLC, tracked per (object, OQS node): the value of
        # lastWriteLC at the time this node last renewed the object.
        # The paper keeps a single per-object scalar; per-node tracking
        # (the renewal handler knows the requester) is strictly more
        # precise — it avoids invalidating nodes that provably cached
        # nothing, and it disambiguates the ack-vs-renewal equality case.
        # Both are rows, obj -> {oqs_node -> clock}: a write fetches its
        # object's two rows once and classifies every OQS node from them.
        self._last_renew_lc: Dict[str, Dict[str, LogicalClock]] = {}
        self._last_ack_lc: Dict[str, Dict[str, LogicalClock]] = {}
        # statistics
        self.writes_applied = 0
        self.writes_suppressed = 0
        self.writes_through = 0
        self.invals_sent = 0
        self.delayed_enqueued = 0
        self.renewals_served = 0

    # -- per-object state accessors -----------------------------------------

    def last_write_lc(self, obj: str) -> LogicalClock:
        return self._last_write_lc.get(obj, ZERO_LC)

    def note_renewal(self, obj: str, oqs_node: str, lc: LogicalClock) -> None:
        """*oqs_node* (re)installed a callback on *obj* at lastWriteLC *lc*."""
        self._last_renew_lc.setdefault(obj, {})[oqs_node] = lc

    def last_ack_lc(self, obj: str, oqs_node: str) -> LogicalClock:
        return self._last_ack_lc.get(obj, EMPTY_ROW).get(oqs_node, ZERO_LC)

    def volume_of(self, obj: str) -> str:
        return self.config.volume_map.volume_of(obj)

    # -- client-facing handlers -------------------------------------------------

    def on_lc_read(self, msg: Message) -> None:
        """processLCReadRequest: return the node's global logical clock."""
        self.reply(msg, payload={"lc": self.logical_clock})

    def on_dq_write(self, msg: Message):
        """processWriteRequest: apply the write, then ensure an OQS write
        quorum cannot read the old version, then acknowledge.

        The invalidation step runs for *every* copy of the request, not
        just the one that applied the value: a retransmitted duplicate
        must not be acknowledged while the original's invalidation is
        still in flight, or the client would count the ack toward its
        write quorum and complete the write while caches can still serve
        the old version.  (The paper's pseudo-code acknowledges stale
        clocks unconditionally; that is unsound under QRPC
        retransmission — see DESIGN.md.)
        """
        obj: str = msg.payload["obj"]
        lc: LogicalClock = msg.payload["lc"]
        fresh = lc > self.last_write_lc(obj)
        if fresh:
            self._values[obj] = msg.payload["value"]
            self._last_write_lc[obj] = lc
            self.logical_clock = self.logical_clock.merge(lc)
            self.writes_applied += 1
            if self.lease_policy is not None:
                self.lease_policy.on_write(obj)
        yield from self._ensure_owq_invalid(
            obj, lc, record_stats=fresh, parent=msg.span_id
        )
        self.reply(msg, payload={"obj": obj, "lc": lc})

    # -- OQS-facing handlers -----------------------------------------------------

    def on_vl_renew(self, msg: Message) -> None:
        """processVLRenewal: grant a fresh volume lease, shipping any
        delayed invalidations (kept queued until acknowledged)."""
        volume: str = msg.payload["vol"]
        length_ms, epoch, delayed = self.leases.grant(volume, msg.src, self.clock.now())
        self.reply(
            msg,
            payload={
                "vol": volume,
                "L": length_ms,
                "epoch": epoch,
                "delayed": delayed,
                "t0": msg.payload["t0"],
            },
        )

    def on_vl_ack(self, msg: Message) -> None:
        """processVLRenewalAck: clear delayed invalidations the holder has
        now applied; their application also counts as invalidation acks."""
        volume: str = msg.payload["vol"]
        ack_lc: LogicalClock = msg.payload["lc"]
        covered = self.leases.pending_delayed(volume, msg.src)
        self.leases.ack_delayed(volume, msg.src, ack_lc)
        for obj, pending_lc in covered.items():
            if pending_lc <= ack_lc:
                self._record_ack(obj, msg.src, pending_lc)

    def on_obj_renew(self, msg: Message) -> None:
        """processObjRenewal: serve the current value and record that the
        requester (re)installed a callback."""
        self.reply(msg, payload=self._renewal_payload(
            msg.payload["obj"], msg.src, msg.payload.get("t0")))

    def on_vlobj_renew(self, msg: Message) -> None:
        """Combined volume renewal + object renewal (read path case (a))."""
        volume: str = msg.payload["vol"]
        obj: str = msg.payload["obj"]
        t0 = msg.payload["t0"]
        length_ms, epoch, delayed = self.leases.grant(volume, msg.src, self.clock.now())
        payload = self._renewal_payload(obj, msg.src, t0)
        payload.update(
            {
                "vol": volume,
                "L": length_ms,
                "vol_epoch": epoch,
                "delayed": delayed,
                "t0": t0,
            }
        )
        self.reply(msg, payload=payload)

    def _object_lease_length(self, obj: str) -> float:
        """The object-lease length to grant right now (finite modes)."""
        if self.lease_policy is not None:
            return self.lease_policy.on_renewal(obj, self.clock.now())
        return self.config.object_lease_ms  # type: ignore[return-value]

    def _renewal_payload(
        self, obj: str, oqs_node: str, t0: Optional[float]
    ) -> Dict[str, Any]:
        """Serve an object renewal: count it, record the callback, and
        build the reply (granting the object lease when they are finite)."""
        self.renewals_served += 1
        self.note_renewal(obj, oqs_node, self.last_write_lc(obj))
        volume = self.volume_of(obj)
        payload = {
            "obj": obj,
            "value": self._values.get(obj),
            "lc": self.last_write_lc(obj),
            "epoch": self.leases.epoch(volume, oqs_node),
        }
        if self.object_leases is not None:
            length = self._object_lease_length(obj)
            self.object_leases.grant(obj, oqs_node, self.clock.now(), length)
            payload["obj_L"] = length
            payload["obj_t0"] = t0
        return payload

    # -- invalidation machinery ------------------------------------------------------

    def _record_ack(self, obj: str, oqs_node: str, lc: LogicalClock) -> None:
        """processInvalAck: lastAckLC := MAX(lastAckLC, lc)."""
        row = self._last_ack_lc.setdefault(obj, {})
        row[oqs_node] = max(row.get(oqs_node, ZERO_LC), lc)

    def _write_state(self, obj: str, volume: str):
        """What one classification pass reads, fetched once: local time, the
        object's ack, renewal and (if finite) lease rows, the volume's row."""
        return (
            self.clock.now(),
            self._last_ack_lc.get(obj, EMPTY_ROW),
            self._last_renew_lc.get(obj, EMPTY_ROW),
            self.leases.row(volume),
            None if self.object_leases is None else self.object_leases.row(obj),
        )

    def _classify_oqs_node(self, oqs_node: str, lc: LogicalClock, state) -> str:
        """How must this write treat OQS node j?  (*state* is the pass's
        :meth:`_write_state`.)  One of:

        - ``"invalid"`` — j provably cannot serve the old version via this
          server's column: it acked an invalidation covering this write
          (``lastAckLC >= lc``); or it never renewed the object from this
          server (nothing cached); or its last ack is *strictly* newer
          than its last renewal (the paper's case (a) with per-node
          ``lastReadLC``; at equality the ack and a subsequent renewal
          carry the same clock, so j may have revalidated and must be
          suspected); or it never held the volume lease at all;
        - ``"expired"`` — j's volume lease has lapsed: queue a delayed
          invalidation and count j invalid (case (b));
        - ``"valid"`` — both leases live: a direct invalidation must be
          delivered, or the volume lease waited out (case (c)).
        """
        now, acks, renews, vol_row, obj_expiries = state
        # All four tests below say "invalid", so their order is free:
        # the clock-free one (most nodes never renewed) goes first.
        renew = renews.get(oqs_node)
        if renew is None:
            return "invalid"
        ack = acks.get(oqs_node, ZERO_LC)
        if ack >= lc or ack > renew:
            return "invalid"
        if obj_expiries is not None and obj_expiries.get(oqs_node, _NEVER) < now:
            # Finite object leases: the callback lapsed on its own; j
            # cannot serve the object without renewing it first.  No
            # invalidation, no delayed-queue entry — footnote 4's
            # space/network saving.  (Strict ``<``: the granter-side
            # boundary of ObjectLeaseTable.is_expired.)
            return "invalid"
        # NOTE: one tempting further rule — "renew >= lc implies j already
        # holds a version at least this new, so count it invalid" — is
        # UNSOUND: serving a renewal only proves the reply was *sent*; if
        # the network drops it, j still caches an older version obtained
        # from other servers.  Only an acknowledgement (ack >= lc above)
        # proves delivery.  (Found by the lossy-network fuzz tests.)
        granted = vol_row.get(oqs_node)
        if granted is None or granted.expires == _NEVER:
            # Never granted the volume: j cannot satisfy Condition C through
            # this server until it renews, at which point it must also renew
            # the object (getting the new value).  No queue entry needed.
            return "invalid"
        # Strict ``<``, the granter-side boundary of IqsLeaseTable.is_expired.
        return "expired" if granted.expires < now else "valid"

    def _ensure_owq_invalid(self, obj: str, lc: LogicalClock,
                            record_stats: bool = True,
                            parent: Optional[int] = None):
        """The write-side while-loop: block until an OQS *write quorum*
        cannot read the old version of *obj* (ack / delayed / expiry)."""
        volume = self.volume_of(obj)
        interval = self.config.inval_initial_timeout_ms
        ack_event = self.sim.future(name=f"{self.node_id}:ack:{obj}")
        sent_any = False
        obs_tracer = self.obs_tracer
        span = None
        if obs_tracer is not None:
            # Parented on the dq_write request: the causal tree shows
            # which write's invalidations blocked which caches.
            span = obs_tracer.span("invalidate", category="inval",
                                   node=self.node_id, parent=parent,
                                   key=obj, lc=str(lc))

        def on_inval_reply(future) -> None:
            if future.failed:
                return
            reply: Message = future._value
            self._record_ack(obj, reply.src, reply.payload["lc"])
            if not ack_event.done:
                ack_event.resolve(None)

        while True:
            invalid: Set[str] = set()
            awaiting: List[str] = []
            next_expiry = float("inf")
            state = self._write_state(obj, volume)
            now, _acks, _renews, vol_row, _obj_expiries = state
            for j in self.oqs.nodes:
                status = self._classify_oqs_node(j, lc, state)
                if status == "invalid":
                    invalid.add(j)
                elif status == "expired":
                    if not self.leases.has_delayed(volume, j, obj, lc):
                        self.leases.enqueue_delayed(volume, j, obj, lc)
                        self.delayed_enqueued += 1
                    invalid.add(j)
                else:
                    awaiting.append(j)
                    next_expiry = min(next_expiry, vol_row[j].expires)

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

            # Invalidate the still-valid holders; retransmission happens by
            # falling through this loop again after `interval`.
            span_id = span.span_id if span is not None else None
            for j in awaiting:
                self.invals_sent += 1
                self.call(
                    j, "inval", {"obj": obj, "lc": lc, "vol": volume},
                    timeout=interval, span=span_id,
                ).add_callback(on_inval_reply)
            sent_any = True

            # Wake on the first ack, or when the earliest relevant volume
            # lease expires (then the expired branch above finishes the
            # write), or at the retransmission interval.
            wait = interval
            if next_expiry < float("inf"):
                # A small epsilon past the granter-side expiry instant so
                # is_expired's strict comparison observes the lapse.
                wait = min(wait, max(next_expiry - now, 0.0) + 0.001)
            yield any_of(self.sim, [ack_event, self.sim.sleep(wait)])
            if ack_event.done:
                ack_event = self.sim.future(name=f"{self.node_id}:ack:{obj}")
            interval = min(interval * BACKOFF, self.config.qrpc_max_timeout_ms)

    # -- maintenance -----------------------------------------------------------

    def live_callback_count(self) -> int:
        """Number of (object, OQS node) callbacks this server must still
        honour — i.e. entries a write would have to invalidate or wait
        out.  With infinite callbacks this only shrinks via acks; finite
        object leases let it decay on its own, which is the state saving
        of the paper's footnote 4."""
        now, leases = self.clock.now(), self.object_leases
        return sum(
            1
            for obj, row in self._last_renew_lc.items()
            for node, renew in row.items()
            if self.last_ack_lc(obj, node) <= renew
            and not (leases is not None and leases.is_expired(obj, node, now))
        )


class DqvlOqsNode(Node):
    """An OQS server: the read-side cache of every object (Figure 5)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        iqs_system: QuorumSystem,
        config: DqvlConfig,
        clock: Optional[DriftingClock] = None,
    ) -> None:
        if config.proactive_renewal and config.renewal_margin_ms >= config.lease_length_ms:
            raise ValueError("renewal_margin_ms must be below lease_length_ms")
        super().__init__(sim, network, node_id, clock=clock)
        self.iqs = iqs_system
        self.config = config
        self.view = OqsLeaseView(max_drift=config.max_drift)
        self._values: Dict[str, Tuple[Any, LogicalClock]] = {}
        self._volume_interest: Dict[str, float] = {}
        self._keeper_running: Set[str] = set()
        #: in-flight validation per object (single-flight coalescing)
        self._validating: Dict[str, Any] = {}
        #: optional NodeResilience (adaptive timeouts, hedging, suspect
        #: avoidance, post-crash catch-up); attached by the deployment
        self.resilience = None
        #: while True, cached values are never served as hits: the
        #: post-crash catch-up is revalidating them against the IQS
        self._catching_up = False
        #: called as ``hook(node, volume)`` when a renewal keeper exits
        #: warm; set by the liveness monitor for the length of a run
        self.warm_exit_hook = None
        # statistics
        self.read_hits = 0
        self.read_misses = 0
        self.renewals_sent = 0
        self.invals_received = 0
        self.validations_coalesced = 0
        self.catchups_started = 0

    # -- local validity ------------------------------------------------------------

    def volume_of(self, obj: str) -> str:
        return self.config.volume_map.volume_of(obj)

    def is_local_valid(self, obj: str, volume: Optional[str] = None) -> bool:
        """The hit test: Condition C (a fully valid IQS read quorum) plus
        the basic protocol's max-clock rule (no newer invalidation seen).
        *volume* is ``volume_of(obj)`` when the caller already has it."""
        return self.view.is_hit(
            volume or self.volume_of(obj), obj, self.iqs, self.clock.now()
        )

    def local_value(self, obj: str) -> Tuple[Any, LogicalClock]:
        return self._values.get(obj, (None, ZERO_LC))

    # -- client-facing read -------------------------------------------------------------

    def on_dq_read(self, msg: Message):
        """processReadRequest: serve locally when valid, else run the
        renewal variation of QRPC until Condition C holds."""
        obj: str = msg.payload["obj"]
        volume = self.volume_of(obj)
        obs_tracer = self.obs_tracer
        self._note_interest(volume)
        if not self._catching_up and self.is_local_valid(obj, volume):
            self.read_hits += 1
            value, lc = self.local_value(obj)
            if obs_tracer is not None:
                obs_tracer.event("read_hit", span=msg.span_id,
                                 node=self.node_id, key=obj)
            self.reply(msg, payload={"obj": obj, "value": value, "lc": lc, "hit": True})
            return
        self.read_misses += 1
        if obs_tracer is not None:
            obs_tracer.event("read_miss", span=msg.span_id,
                             node=self.node_id, key=obj)
        yield from self.ensure_validated(obj, parent=msg.span_id, volume=volume)
        value, lc = self.local_value(obj)
        self.reply(msg, payload={"obj": obj, "value": value, "lc": lc, "hit": False})

    def ensure_validated(self, obj: str, parent: Optional[int] = None,
                         volume: Optional[str] = None):
        """Wait until the object is locally valid, coalescing concurrent
        validations: a read storm hitting a just-invalidated object must
        produce ONE renewal exchange, not one per reader (the classic
        thundering-herd guard).  Loops because validity can be broken
        again (by a new invalidation) between a joined validation's
        completion and this reader's turn."""
        volume = volume or self.volume_of(obj)
        while not self.is_local_valid(obj, volume):
            inflight = self._validating.get(obj)
            if inflight is None or inflight.done:
                def runner(obj=obj, parent=parent):
                    try:
                        yield from self.validate_local(obj, parent, volume)
                    finally:
                        self._validating.pop(obj, None)

                inflight = self.spawn(
                    runner(), name=f"{self.node_id}:validate:{obj}"
                )
                self._validating[obj] = inflight
            else:
                self.validations_coalesced += 1
            yield inflight

    def validate_local(self, obj: str, parent: Optional[int] = None,
                       volume: Optional[str] = None):
        """The paper's QRPC variation: per-target renewal requests (volume,
        object, or both) repeated until Condition C becomes true.

        Quorum selection favours the IQS servers whose volume lease this
        node already holds (QRPC's ``favour=``), so one volume-lease
        renewal keeps amortising over all the volume's objects instead
        of spreading leases across random quorums; a third attempt
        broadcasts like any other QRPC.
        """
        volume = volume or self.volume_of(obj)

        def request_for(target: str):
            now = self.clock.now()
            if self.view.object_valid(volume, obj, target, now):
                return None  # implies the volume lease is valid too
            self.renewals_sent += 1
            if self.view.volume_valid(volume, target, now):
                return ("obj_renew", {"obj": obj, "t0": now})
            return ("vlobj_renew", {"vol": volume, "obj": obj, "t0": now})

        # Parented on the read that missed (coalesced readers attach
        # to the first miss's validation).
        yield from self._renewal_round(
            "validate", volume, request_for,
            lambda _replies: self.is_local_valid(obj, volume),
            self.config.client_max_attempts, parent=parent, key=obj,
        )

    def _renewal_round(self, span_name: str, volume: str, request_for, done,
                       max_attempts: int, **span_attrs):
        """One renewal QRPC to an IQS read quorum, favouring the servers
        whose lease on *volume* this node holds; a failure re-raises."""
        obs_tracer = self.obs_tracer
        span = None
        if obs_tracer is not None:
            span = obs_tracer.span(span_name, category="lease", node=self.node_id,
                                   vol=volume, **span_attrs)
        call = QuorumCall(
            self,
            self.iqs,
            READ,
            request_for=request_for,
            done=done,
            on_reply=self._apply_renewal_reply,
            initial_timeout_ms=self.config.qrpc_initial_timeout_ms,
            max_timeout_ms=self.config.qrpc_max_timeout_ms,
            max_attempts=max_attempts,
            favour=lambda: self.view.held(volume, self.clock.now()),
            span=span,
            resilience=self.resilience,
        )
        try:
            yield from call.run()
        except Exception:
            if span is not None:
                span.finish(status="failed")
            raise
        if span is not None:
            span.finish(status="ok")

    def _apply_renewal_reply(self, reply: Message) -> None:
        """Dispatch a renewal reply to the lease view (vl / obj / both)."""
        server = reply.src
        payload = reply.payload
        if "L" in payload:  # volume grant present
            volume = payload["vol"]
            epoch = payload["vol_epoch"] if "vol_epoch" in payload else payload["epoch"]
            self.view.apply_grant(server, volume, payload["L"], epoch, payload["t0"])
            delayed = payload["delayed"]
            if delayed:
                applied_max = ZERO_LC
                for obj, lc in delayed:
                    self.view.apply_invalidation(server, obj, lc)
                    applied_max = max(applied_max, lc)
                    self.invals_received += 1
                self.send(server, "vl_ack", {"vol": volume, "lc": applied_max})
        if "obj" in payload:  # object renewal present
            obj = payload["obj"]
            became_valid = self.view.apply_renewal(
                server, obj, payload["epoch"], payload["lc"],
                payload.get("obj_t0"), payload.get("obj_L"),
            )
            if became_valid and payload["lc"] >= self.view.max_clock_seen(obj):
                self._values[obj] = (payload["value"], payload["lc"])

    # -- recovery ---------------------------------------------------------------------------

    def on_recover(self) -> None:
        """With ``volatile_oqs_recovery``, a restart loses the cache and
        every lease; the node rebuilds by missing and revalidating.
        Losing state is always safe — the protocol's hazard is serving
        *stale* data, never serving none.

        With resilience attached (and durable state), recovery also runs
        an anti-entropy catch-up: every cached object is revalidated
        against an IQS read quorum — pulling the invalidations and
        delayed-invalidation queues that could not be delivered while
        the node was down — before the cache may serve hits again.
        """
        self._validating.clear()
        if self.config.volatile_oqs_recovery:
            self.view = OqsLeaseView(max_drift=self.config.max_drift)
            self._values.clear()
            self._volume_interest.clear()
            self._keeper_running.clear()
            return
        res = self.resilience
        if res is not None and self._values:
            self._catching_up = True
            self.catchups_started += 1
            self.spawn(self._catch_up(), name=f"{self.node_id}:catchup")

    def _catch_up(self):
        """Post-crash anti-entropy resync: revalidate every cached object
        from an IQS read quorum before local hits resume.

        The ``_catching_up`` flag turns every read into a miss meanwhile
        (each miss revalidates its own object on demand, so reads stay
        correct *and* live during the sweep — they just pay the renewal
        round trip).  Retries survive quorum outages; a second crash
        abandons the sweep, and the next recovery starts a fresh one.
        """
        epoch = self._crash_count
        try:
            for obj in sorted(self._values):
                while self.alive and self._crash_count == epoch:
                    try:
                        yield from self.ensure_validated(obj)
                        break
                    except Exception:
                        # Quorum unreachable (QrpcError or a crashed IQS
                        # majority): back off and retry the same object.
                        yield self.sim.sleep(CATCHUP_RETRY_MS)
                if self._crash_count != epoch:
                    return
        finally:
            if self._crash_count == epoch:
                self._catching_up = False

    # -- IQS-facing handlers ----------------------------------------------------------------

    def on_inval(self, msg: Message) -> None:
        """processInval: record the invalidation if news; always ack."""
        self.invals_received += 1
        self.view.apply_invalidation(msg.src, msg.payload["obj"], msg.payload["lc"])
        self.reply(msg, payload={"obj": msg.payload["obj"], "lc": msg.payload["lc"]})

    # -- proactive volume renewal -----------------------------------------------------------

    def _note_interest(self, volume: str) -> None:
        if not self.config.proactive_renewal:
            return
        self._volume_interest[volume] = self.clock.now()
        if volume not in self._keeper_running:
            self._keeper_running.add(volume)
            self.spawn(self._volume_keeper(volume), name=f"{self.node_id}:keeper:{volume}")

    def _volume_keeper(self, volume: str):
        """Background renewal loop: while the volume has recent read
        interest, sleep until `renewal_margin_ms` before the quorum
        deadline, then renew from a full IQS read quorum.  The "renew?"
        test is the negation of `_renew_volume_quorum`'s completion
        predicate, so a renewal round is never started vacuously."""
        margin = self.config.renewal_margin_ms
        while True:
            now = self.clock.now()
            interest = self._volume_interest.get(volume, float("-inf"))
            if now - interest > self.config.interest_window_ms:
                break  # cold volume: let the lease lapse
            deadline = self.view.quorum_deadline(volume, self.iqs.is_read_quorum)
            if deadline - now <= margin:
                yield from self._renew_volume_quorum(volume)
                now = self.clock.now()
                deadline = self.view.quorum_deadline(volume, self.iqs.is_read_quorum)
            yield self.sim.sleep(max(deadline - now - margin, 1.0))
        self._keeper_exited(volume)

    def _keeper_exited(self, volume: str) -> None:
        """Bookkeeping when a renewal keeper loop returns.

        A healthy keeper only ever exits *cold* (interest window
        elapsed); an exit while the volume still had recent read
        interest is a keeper that abandoned a volume it was still
        responsible for, and goes to ``warm_exit_hook``.
        """
        self._keeper_running.discard(volume)
        interest = self._volume_interest.get(volume, float("-inf"))
        warm = self.clock.now() - interest <= self.config.interest_window_ms
        if warm and self.warm_exit_hook is not None:
            self.warm_exit_hook(self, volume)

    def _renew_volume_quorum(self, volume: str):
        """Renew the volume lease from every member of an IQS read quorum
        whose grant is not :meth:`~OqsLeaseView.fresh` (used by the
        keeper, off the read path)."""
        margin = self.config.renewal_margin_ms

        def request_for(target: str):
            now = self.clock.now()
            if target in self.view.fresh(volume, now, margin):
                return None
            self.renewals_sent += 1
            return ("vl_renew", {"vol": volume, "t0": now})

        def done(_replies) -> bool:
            return self.iqs.is_read_quorum(self.view.fresh(volume, self.clock.now(), margin))

        try:
            yield from self._renewal_round("renew_volume", volume, request_for, done, 3)
        except Exception:
            # Keeper renewals are best-effort; the read path renews on
            # demand if the keeper could not reach a quorum.
            pass
