"""QRPC — quorum-based remote procedure call.

Section 2 of the paper defines the primitive::

    replies = QRPC(system, READ/WRITE, request)

which sends *request* to nodes of the given quorum system and blocks
until replies constituting the specified quorum have been gathered.

This module implements QRPC as a kernel process, following the paper's
prototype policy:

* the request always goes to the **local node first** if it is a member
  of the system;
* enough additional nodes are selected **at random** to form a minimal
  quorum;
* on timeout, the request is retransmitted to a **freshly sampled
  quorum**, with an **exponentially increasing** retransmission interval
  (each round's interval is :data:`BACKOFF` times the last, capped);
* after ``broadcast_after`` failed attempts it goes to **all nodes** (the
  paper's "more aggressive implementation");
* replies accumulate across attempts — QRPC completes as soon as the
  responder set contains a full quorum.

Target selection is one rule, :meth:`QuorumCall._sample_targets`: every
call escalates to broadcast alike; before that, a ``favour`` set (DQVL's
held volume leases) biases each read-quorum draw toward its members, and
otherwise ``prefer`` (the local node) is pinned on the first attempt only.
With a resilience layer attached, suspected replicas are avoided in
either draw.

The DQVL read path needs a variation (Section 3.2): *different* requests
to different nodes, looping until a protocol-level condition (the paper's
"Condition C") becomes true rather than until a quorum of replies
arrives.  :class:`QuorumCall` supports both through three hooks: a
per-target request factory, a reply hook (renewal replies mutate the
caller's lease state) and a pluggable completion predicate.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Set, Tuple

from ..sim.kernel import Future, Timer
from ..sim.messages import Message
from ..sim.node import Node, RpcTimeout
from .system import QuorumSystem

__all__ = ["BACKOFF", "READ", "WRITE", "QrpcError", "QuorumCall", "qrpc"]

READ = "READ"
WRITE = "WRITE"

#: the growth factor of every retransmission schedule: QRPC rounds, DQVL's
#: invalidation retries and the timeout caps derived from a topology
BACKOFF = 2.0


class QrpcError(Exception):
    """QRPC gave up: the attempt budget was exhausted without a quorum.

    The availability experiments treat this as the system *rejecting* the
    request (the paper's availability definition counts exactly these
    rejections).
    """

    def __init__(self, kind: str, attempts: int):
        super().__init__(f"QRPC {kind!r} failed after {attempts} attempts")
        self.kind = kind
        self.attempts = attempts


# A request factory maps a target node id to (kind, payload), or None to
# skip the target entirely on this attempt.
RequestFactory = Callable[[str], Optional[Tuple[str, Dict]]]


class QuorumCall:
    """One QRPC invocation, runnable as a kernel process.

    A round's requests carry no timers: one round deadline fails those still
    unanswered, in send order, and wakes the process unless the quorum formed.

    Parameters
    ----------
    node:
        The sending node (a service client or a server acting as one).
    system:
        Quorum system to contact.
    mode:
        ``READ`` or ``WRITE`` — which quorum flavour must respond.
    request_for:
        Per-target request factory (see :data:`RequestFactory`).
    done:
        Optional completion predicate over the accumulated replies
        (``{node_id: Message}``).  Defaults to "the responders contain a
        full quorum of the requested flavour".  DQVL's read path passes
        its Condition-C check here.
    on_reply:
        Optional ``fn(message)`` called with every reply as it arrives,
        before the completion predicate is consulted — DQVL applies
        renewal grants to its lease view here.
    initial_timeout_ms / max_timeout_ms:
        Retransmission schedule (exponential by :data:`BACKOFF`, capped).
    max_attempts:
        Give up (raise :class:`QrpcError`) after this many rounds;
        ``None`` retries forever, matching the basic asynchronous
        protocol in which a write "can block for an arbitrarily long
        period of time".
    prefer:
        Node id to include in the first attempt's quorum when possible
        (e.g. a front end's co-located replica).  Defaults to the sender
        itself when it is a member of the system — the paper's
        "always transmit to the local node" policy.  Retries sample
        afresh.
    favour:
        Optional ``fn() -> set of node ids``, re-read on every attempt
        before the broadcast escalation: each such attempt draws a read
        quorum overlapping the returned set as much as possible, from
        ``sim.rng`` (DQVL passes the IQS servers whose volume lease it
        holds, so one lease renewal keeps amortising).  READ mode only.
    broadcast_after:
        After this many unsuccessful attempts every round goes to all
        nodes, favoured or not.
    span:
        Optional parent causal span (a ``repro.obs`` Span or raw span
        id).  When the sending node's network has observability
        installed, each retransmission round opens a child span and the
        round's messages carry that span id, producing the
        op→round→message tree.
    resilience:
        Optional :class:`~repro.resilience.NodeResilience`.  When set,
        the call feeds the node's failure detector with every
        reply/timeout, sizes per-round timeouts from observed RTT
        quantiles, avoids suspected replicas when sampling quorums,
        and hedges slow rounds with one backup probe — from dedicated
        RNG streams, except that a favoured draw stays on ``sim.rng``.
        Timed-out rounds back off on the same :data:`BACKOFF` ladder.
        ``None`` (the default) leaves the legacy behaviour
        byte-identical.
    """

    def __init__(
        self,
        node: Node,
        system: QuorumSystem,
        mode: str,
        request_for: RequestFactory,
        done: Optional[Callable[[Dict[str, Message]], bool]] = None,
        on_reply: Optional[Callable[[Message], None]] = None,
        initial_timeout_ms: float = 400.0,
        max_timeout_ms: float = 6400.0,
        max_attempts: Optional[int] = None,
        prefer: Optional[str] = None,
        favour: Optional[Callable[[], Set[str]]] = None,
        broadcast_after: int = 2,
        span=None,
        resilience=None,
    ) -> None:
        if mode not in (READ, WRITE):
            raise ValueError(f"mode must be READ or WRITE, got {mode!r}")
        if favour is not None and mode != READ:
            raise ValueError("favour biases read quorums only")
        self.node = node
        self.system = system
        self.mode = mode
        self.request_for = request_for
        #: with a custom completion predicate, a target's earlier reply
        #: does not retire it: the paper's read-path variation "keeps
        #: renewing from some irq" until Condition C holds, so targets
        #: are re-queried on later attempts (request_for may still skip
        #: them).  The default quorum-of-replies mode never re-asks a
        #: responder.
        self.resend_to_responders = done is not None
        self._done = done
        self.on_reply = on_reply
        self.initial_timeout_ms = initial_timeout_ms
        self.max_timeout_ms = max_timeout_ms
        self.max_attempts = max_attempts
        self.prefer = prefer
        self.favour = favour
        #: after this many unsuccessful attempts, send to *all* nodes —
        #: the paper's "more aggressive implementation might send to all
        #: nodes in system".  Decouples availability from sampling luck.
        self.broadcast_after = broadcast_after
        #: parent span for causal tracing (Span object or raw id)
        self.span: Optional[int] = getattr(span, "span_id", span)
        #: optional NodeResilience (adaptive timeouts, hedging, suspect
        #: avoidance); None keeps the legacy behaviour exactly
        self.resilience = resilience
        self.replies: Dict[str, Message] = {}
        self.attempts = 0
        #: the round in progress: its wake-up (None once due), deadline, count
        #: of unanswered requests
        self._wake: Optional[Future] = None
        self._deadline: Optional[Timer] = None
        self._unanswered = 0
        #: caller crash epoch this call (and each round's replies) belongs
        #: to — replies gathered before a crash of the *caller* must not
        #: count toward a quorum completed after its recovery
        self._epoch = node._crash_count
        self._hedge_timer = None
        #: current round's span (None when tracing is off) and the call
        #: key — the first round's span id — shared by every round of
        #: this invocation so the attribution analyzer can group replies
        #: that raced across retransmission rounds back to one call
        self._round_span = None
        self._call_key: Optional[int] = None

    # -- completion test -----------------------------------------------------

    def done(self) -> bool:
        """The caller's predicate over the replies so far; by default,
        "the responders contain a full quorum of the requested flavour"."""
        if self._done is not None:
            return self._done(self.replies)
        members: Set[str] = set(self.replies)
        if self.mode == READ:
            return self.system.is_read_quorum(members)
        return self.system.is_write_quorum(members)

    # -- target selection -------------------------------------------------------

    def _sample_targets(self) -> FrozenSet[str]:
        """The one selection rule: broadcast once ``attempts >
        broadcast_after``; before that a favoured read-quorum draw on every
        attempt, or else a draw pinning ``prefer`` on the first attempt
        only — the paper's "retransmissions are each to a new randomly
        selected quorum"."""
        system = self.system
        if self.attempts > self.broadcast_after:
            return frozenset(system.nodes)
        favoured = self.favour() if self.favour is not None else None
        prefer = None
        if self.attempts == 1:
            prefer = self.prefer
            if prefer is None and self.node.node_id in system.nodes:
                prefer = self.node.node_id
            if prefer is not None and prefer not in system.nodes:
                prefer = None
        if self.resilience is not None:
            # Suspects are dropped from the favoured set, swapped out of
            # the drawn quorum and stripped of the first-hop privilege.
            return self.resilience.sample_quorum(system, self.mode,
                                                 prefer=prefer, favour=favoured)
        rng = self.node.sim.rng
        if favoured is not None:
            return system.sample_read_quorum_biased(rng, favoured)
        if self.mode == READ:
            return system.sample_read_quorum(rng, prefer=prefer)
        return system.sample_write_quorum(rng, prefer=prefer)

    # -- execution -----------------------------------------------------------------

    def run(self):
        """Kernel process: yields until done; returns the replies dict."""
        sim = self.node.sim
        res = self.resilience
        cap = self.max_timeout_ms
        interval = self.initial_timeout_ms
        if res is not None:
            # Size the first-round timeout from observed RTT quantiles
            # once the detector has enough samples; the configured
            # schedule is the cold-start fallback.
            interval = res.round_timeout(self.initial_timeout_ms, cap)
        obs = getattr(self.node.net, "obs", None)
        tracer = obs.tracer if obs is not None else None

        if self.done():
            # Degenerate but legal: the predicate may hold vacuously
            # (e.g. DQVL finds its leases already valid).
            return self.replies

        while True:
            if self.node._crash_count != self._epoch:
                # The *caller* crashed since the previous round.  Every
                # reply gathered by the dead incarnation must be
                # discarded: counting it toward a quorum completed after
                # recovery would let a single live responder masquerade
                # as a full quorum assembled across the crash.
                self._epoch = self.node._crash_count
                self.replies.clear()
                interval = self.initial_timeout_ms
                if res is not None:
                    interval = res.round_timeout(self.initial_timeout_ms, cap)

            self.attempts += 1
            if self.max_attempts is not None and self.attempts > self.max_attempts:
                raise QrpcError(self.mode, self.attempts - 1)

            targets = self._sample_targets()
            round_span = None
            if tracer is not None:
                round_span = tracer.span(
                    "qrpc_round", category="qrpc", node=self.node.node_id,
                    parent=self.span, mode=self.mode,
                    attempt=self.attempts, targets=sorted(targets),
                    broadcast=self.attempts > self.broadcast_after,
                )
            if round_span is not None:
                if self._call_key is None:
                    self._call_key = round_span.span_id
                round_span.annotate(call=self._call_key)
                round_span.event("round_start", interval_ms=interval,
                                 attempt=self.attempts)
            self._round_span = round_span
            call_span = round_span.span_id if round_span is not None else self.span
            wake = self._wake = sim.future(name=f"qrpc:{self.node.node_id}")
            sink = self._make_reply_handler(interval, True)
            sent = []
            # Iterate in sorted order: target sets are frozensets, whose
            # iteration order depends on the per-process string-hash
            # seed; sending in hash order would make traces differ
            # between processes with the same simulation seed.
            for target in sorted(targets):
                if target in self.replies and not self.resend_to_responders:
                    continue
                request = self.request_for(target)
                if request is None:
                    continue
                kind, payload = request
                message = self.node.request(target, kind, payload, call_span, sink)
                if message is not None:
                    sent.append(message)
            self._unanswered = len(sent)
            self._maybe_hedge(targets, interval, call_span)
            self._deadline = sim.schedule(interval, self._expiry(sent, interval, wake))
            completed = yield wake
            self._cancel_hedge()
            if self.node._crash_count != self._epoch:
                # Crashed mid-round; the loop top resets to a clean slate.
                if round_span is not None:
                    round_span.finish(outcome="crashed")
                continue
            if completed or self.done():
                # (or the predicate became true through replies racing the deadline)
                if round_span is not None:
                    round_span.finish(outcome="quorum")
                return self.replies
            if round_span is not None:
                round_span.finish(outcome="timeout", replies=len(self.replies))
            interval = min(interval * BACKOFF, cap)
            if round_span is not None:
                round_span.event("backoff", next_interval_ms=interval)

    def _expiry(self, sent, interval: float, wake: Future) -> Callable[[], None]:
        def expire() -> None:  # the round's deadline (see the class docstring)
            for message in sent:
                self.node.expire(message, interval)
            if wake is self._wake:  # no quorum yet: wake up to retry
                self._wake = None
                self.node.sim.call_soon(wake.resolve, False)
        expire._mc_node = self.node.node_id  # POR footprint: node-local
        return expire

    # -- hedging -------------------------------------------------------------

    def _maybe_hedge(self, targets: FrozenSet[str], interval: float,
                     call_span) -> None:
        """Arm this round's backup probe, if resilience says to.

        When the round has been outstanding for the detector's
        hedge-quantile RTT estimate without completing, one extra
        replica (not yet targeted, unsuspected preferred) gets the same
        request — straight-up tail-latency hedging, bounded to a single
        extra message per round.
        """
        res = self.resilience
        if res is None:
            return
        delay = res.detector.hedge_delay(interval)
        if delay is None:
            return

        def fire() -> None:
            self._hedge_timer = None
            if self._wake is None:  # the round is over
                return
            target = res.pick_hedge(self.system, targets, self.replies)
            if target is None:
                return
            request = self.request_for(target)
            if request is None:
                return
            kind, payload = request
            remaining = max(1.0, interval - delay)
            self.node.request(target, kind, payload, call_span,
                              self._make_reply_handler(interval, False), remaining)
            res.hedges_sent += 1
            if self._round_span is not None:
                self._round_span.event("hedge", target=target, delay_ms=delay)

        # node.after is crash-epoch-guarded: a hedge armed before a crash
        # never fires on the recovered incarnation.
        self._hedge_timer = self.node.after(delay, fire)

    def _cancel_hedge(self) -> None:
        if self._hedge_timer is not None:
            self._hedge_timer.cancel()
            self._hedge_timer = None

    # -- reply handling ------------------------------------------------------

    def _make_reply_handler(self, round_interval: float,
                            in_round: bool) -> Callable[[Message | BaseException], None]:
        """One round's (or a hedge probe's) sink: a reply counts for its sender."""
        epoch = self._epoch
        sent_at = self.node.sim.now
        res = self.resilience
        on_reply = self.on_reply
        # The round that sent this request: a reply always attributes to
        # the round whose request produced it, even if it arrives while a
        # later retransmission round is already underway.
        round_span = self._round_span

        def handle(message: Message | BaseException) -> None:
            if isinstance(message, BaseException):
                if (res is not None and epoch == self._epoch
                        and isinstance(message, RpcTimeout)):
                    res.detector.observe_timeout(message.dst, round_interval)
                return  # timeout or crash: the retransmission loop covers it
            target = message.src
            if on_reply is not None:
                on_reply(message)
            if epoch != self._epoch:
                # Reply to a request issued before the caller crashed:
                # the recovered incarnation must not count it.
                return
            if res is not None:
                res.detector.observe_reply(target, self.node.sim.now - sent_at)
            if target not in self.replies or self.resend_to_responders:
                self.replies[target] = message
            if round_span is not None:
                round_span.event(
                    "reply_k_of_n", target=target, msg=message.msg_id,
                    req=message.reply_to, k=len(self.replies),
                )
            if self._wake is not None and self.done():
                if round_span is not None:
                    round_span.event("quorum_formed", k=len(self.replies),
                                     by=target)
                wake, self._wake = self._wake, None
                self.node.sim.call_soon(wake.resolve, True)
            # The deadline outlives the quorum until every request is answered.
            self._unanswered -= in_round
            if self._wake is None and not self._unanswered:
                self._deadline.cancel()

        return handle


def qrpc(
    node: Node,
    system: QuorumSystem,
    mode: str,
    kind: str,
    payload: Optional[Dict] = None,
    **config,
):
    """The paper's plain ``QRPC(system, READ/WRITE, request)``.

    Returns a generator suitable for ``yield node.spawn(...)`` or
    ``yield from``; the result is ``{node_id: reply Message}`` containing
    (at least) a full quorum of repliers.  ``**config`` forwards to
    :class:`QuorumCall`, including ``span=`` for causal tracing.
    """
    payload = payload or {}
    call = QuorumCall(
        node,
        system,
        mode,
        request_for=lambda target: (kind, dict(payload)),
        **config,
    )
    return call.run()
