"""Base class for simulated protocol nodes.

A :class:`Node` is a named participant attached to a
:class:`~repro.sim.network.Network`.  It provides:

* **message dispatch** — an incoming message of kind ``"foo"`` invokes the
  method ``on_foo(message)``; if the handler returns a generator it is
  spawned as a kernel process (so handlers can perform multi-round
  protocol work, e.g. an OQS node validating a cache miss);
* **request/response RPC** — :meth:`request` sends a message and hands
  the reply (or :class:`RpcTimeout`, :class:`NodeCrashed`) to a callable,
  or to the future :meth:`call` returns; QRPC is built on the pair;
* **fail-stop crashes** — :meth:`crash` silences the node (incoming
  messages and timer callbacks are dropped, sends are suppressed);
  :meth:`recover` brings it back and invokes the ``on_recover`` hook;
* **gray failures** — :meth:`set_slow` makes the node *slow* rather than
  dead: every incoming message is processed only after an extra local
  delay, modelling an overloaded or GC-pausing process that peers cannot
  distinguish from a lossy link;
* **safe timers** — :meth:`after` schedules callbacks that are
  automatically suppressed while the node is crashed.

Nodes never share memory: all inter-node interaction goes through the
network, as required to make partition and crash experiments meaningful.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Dict, Optional, Tuple, Union

from .clock import DriftingClock, PerfectClock
from .kernel import Future, Simulator, Timer
from .messages import Message
from .network import Network

__all__ = ["RpcTimeout", "NodeCrashed", "Node"]


class RpcTimeout(Exception):
    """An RPC issued with :meth:`Node.call` exceeded its timeout."""

    def __init__(self, src: str, dst: str, kind: str, timeout: float):
        super().__init__(f"rpc {kind} {src}->{dst} timed out after {timeout} ms")
        self.src = src
        self.dst = dst
        self.kind = kind
        self.timeout = timeout


class NodeCrashed(Exception):
    """Raised when local work is attempted on a crashed node."""

    def __init__(self, node_id: str):
        super().__init__(node_id)
        self.node_id = node_id


class Node:
    """A simulated fail-stop server or client process.

    Parameters
    ----------
    sim, network:
        Kernel and network this node lives on; the node registers itself
        with the network.
    node_id:
        Unique routable name.
    clock:
        Local real-time clock; defaults to a perfect (drift-free) clock.
    """

    #: kind → ``on_<kind>`` of this exact class, filled at first dispatch:
    #: a subclass starts empty, so its overrides are found, and plain
    #: functions (not bound methods) tie no node into a cycle
    _handlers: Dict[str, Callable] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {}

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        clock: Optional[DriftingClock] = None,
    ) -> None:
        self.sim = sim
        self.net = network
        self.node_id = node_id
        self.clock = clock or PerfectClock(sim)
        self.alive = True
        #: msg_id → (sink: a future or a callable, timeout timer or None).
        #: The timer is cancelled when the reply arrives, so resolved RPCs
        #: leave no dead timers (spurious repro.mc decision points).  A QRPC
        #: round's requests have none: one round deadline expires them.
        self._pending_rpcs: Dict[int, Tuple[Any, Optional[Timer]]] = {}
        self._crash_count = 0
        #: gray failure: extra per-message processing delay (0 = healthy)
        self._slow_ms = 0.0
        network.register(self)

    # -- identity ----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.node_id} {state}>"

    # -- observability -----------------------------------------------------

    @property
    def obs_tracer(self):
        """The network's span tracer, or ``None`` when observability is
        off (the default) or the network is closed — protocol code
        guards with one ``is None``."""
        obs = self.net.obs if self.net is not None else None
        return obs.tracer if obs is not None else None

    # -- sending ------------------------------------------------------------

    def send(self, dst: str, kind: str, payload: Optional[Dict[str, Any]] = None,
             reply_to: Optional[int] = None,
             span: Optional[int] = None) -> Optional[Message]:
        """Send a one-way message; returns it, or ``None`` if crashed.

        *span* is an optional causal-span id (see :mod:`repro.obs`)
        stamped onto the message so observability can attribute the send
        and its delivery to the operation that caused it.
        """
        if not self.alive:
            return None
        message = Message(self.node_id, dst, kind, payload, reply_to, span)
        self.net.send(message)
        return message

    def reply(self, request: Message, kind: Optional[str] = None,
              payload: Optional[Dict[str, Any]] = None) -> Optional[Message]:
        """Respond to *request*; the reply correlates via ``reply_to``.

        The reply inherits the request's span id, so a full RPC exchange
        attributes to the span of the request's sender.
        """
        return self.send(request.src, kind or (request.kind + "_reply"),
                         payload, reply_to=request.msg_id,
                         span=request.span_id)

    def call(self, dst: str, kind: str, payload: Optional[Dict[str, Any]] = None,
             timeout: Optional[float] = None,
             span: Optional[int] = None) -> Future:
        """Send a request and return a future for the reply message.

        The future resolves with the reply :class:`Message`.  With a
        *timeout*, the future fails with :class:`RpcTimeout` if no reply
        arrives in time (late replies are then ignored).  Replies are
        matched on the request's ``msg_id``, so duplicated replies resolve
        the RPC once and extra copies are dropped.
        """
        future = Future(self.sim, f"rpc:{kind}->{dst}")
        self.request(dst, kind, payload, span, future, timeout)
        return future

    def request(self, dst: str, kind: str, payload: Optional[Dict[str, Any]],
                span: Optional[int], on_reply: Union[Future, Callable[[Any], None]],
                timeout: Optional[float] = None) -> Optional[Message]:
        """Send a request whose outcome goes to *on_reply*; return it, or
        ``None`` if this node is down (the sink then fails with
        :class:`NodeCrashed` two turns later, as a future's callback did).
        With a *timeout*, a node-local timer expires the request."""
        if not self.alive:
            self.sim.call_soon(self._fail, on_reply, NodeCrashed(self.node_id))
            return None
        message = self.send(dst, kind, payload, span=span)
        timer = None
        if timeout is not None:
            on_timeout = lambda: self.expire(message, timeout)  # noqa: E731
            on_timeout._mc_node = self.node_id  # POR footprint: node-local
            timer = self.sim.schedule(timeout, on_timeout)
        self._pending_rpcs[message.msg_id] = (on_reply, timer)
        return message

    def expire(self, message: Message, timeout: float) -> None:
        """Fail *message*'s RPC with :class:`RpcTimeout` if still pending."""
        pending = self._pending_rpcs.pop(message.msg_id, None)
        if pending is not None:
            self._fail(pending[0], RpcTimeout(self.node_id, message.dst,
                                              message.kind, timeout))

    def _fail(self, sink, exception: BaseException) -> None:
        """Fail an RPC's sink by the turn rule (see :meth:`_dispatch`)."""
        if isinstance(sink, Future):
            sink.fail(exception)
        else:
            self.sim._ready.append((None, sink, (exception,)))

    # -- receiving -----------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Entry point used by the network; dispatches or correlates."""
        if not self.alive:
            return
        if self._slow_ms > 0.0:
            # Slow mode: the message has arrived, but the process gets to
            # it late.  The crash-epoch guard drops it if the node crashes
            # (or crash-recovers) before the backlog drains — restart
            # loses queued-but-unprocessed input.
            epoch = self._crash_count

            def delayed() -> None:
                if self.alive and self._crash_count == epoch:
                    self._dispatch(message)

            # Never cancelled (the epoch guard suppresses stale ones), so
            # no Timer handle is needed.
            self.sim.call_later(self._slow_ms, delayed)
            return
        self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        if message.reply_to is not None:
            pending = self._pending_rpcs.pop(message.reply_to, None)
            if pending is not None:
                sink, timer = pending
                if timer is not None:
                    timer.cancel()
                # The turn rule: a future is settled in place, its callbacks
                # taking the next free turns; a callable takes that turn.
                if isinstance(sink, Future):
                    sink.resolve(message)
                else:
                    self.sim._ready.append((None, sink, (message,)))
            # Unmatched replies (late after timeout, or duplicates) are
            # dropped: the protocol state machines never depend on them.
            return
        handler = self._handlers.get(message.kind)
        if handler is None:
            handler = getattr(type(self), "on_" + message.kind, None)
            if handler is None:
                raise AttributeError(
                    f"{type(self).__name__} {self.node_id} has no handler for "
                    f"message kind {message.kind!r}"
                )
            self._handlers[message.kind] = handler
        result = handler(self, message)
        if type(result) is GeneratorType:
            self.spawn(result, name=f"{self.node_id}:{message.kind}")

    # -- timers & processes ---------------------------------------------------

    def after(self, delay: float, fn: Callable, *args: Any) -> Timer:
        """Schedule ``fn(*args)`` after *delay* ms, suppressed while crashed.

        The callback is also suppressed if the node crashed and recovered
        in between (recovery discards the pre-crash schedule, matching a
        process restart).
        """
        epoch = self._crash_count

        def guarded() -> None:
            if self.alive and self._crash_count == epoch:
                fn(*args)

        guarded._mc_node = self.node_id  # POR footprint: node-local
        return self.sim.schedule(delay, guarded)

    def spawn(self, generator, name: str = ""):
        """Spawn a kernel process on behalf of this node."""
        return self.sim.spawn(generator, name=name or self.node_id)

    # -- failure model -----------------------------------------------------

    def set_slow(self, extra_ms: float) -> None:
        """Enter gray-failure slow mode: every subsequently delivered
        message waits *extra_ms* of local processing delay before being
        dispatched.  The node is otherwise fully alive — it is the
        degraded-but-not-dead condition quorum systems struggle with."""
        if extra_ms < 0:
            raise ValueError("extra_ms must be non-negative")
        self._slow_ms = extra_ms

    def clear_slow(self) -> None:
        """Leave slow mode; messages already queued keep their delay."""
        self._slow_ms = 0.0

    @property
    def is_slow(self) -> bool:
        return self._slow_ms > 0.0

    def crash(self) -> None:
        """Fail-stop: drop pending RPCs, ignore messages and timers."""
        if not self.alive:
            return
        self.alive = False
        self._crash_count += 1
        pending, self._pending_rpcs = self._pending_rpcs, {}
        for sink, timer in pending.values():
            if timer is not None:
                timer.cancel()
            self._fail(sink, NodeCrashed(self.node_id))

    def recover(self) -> None:
        """Restart after a crash; volatile state hooks run in ``on_recover``."""
        if self.alive:
            return
        self.alive = True
        self.on_recover()

    def on_recover(self) -> None:
        """Hook for subclasses to reinitialise volatile state."""

    def check_alive(self) -> None:
        """Raise :class:`NodeCrashed` if the node is down (guard for APIs)."""
        if not self.alive:
            raise NodeCrashed(self.node_id)
