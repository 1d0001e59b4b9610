"""The two service clients behind every protocol, parameterised by where
their operations go rather than named after a protocol (the stance of
"Read-Write Quorum Systems Made Practical"):

* :class:`RegisterClient` (dqvl, basic_dq, majority, ROWA) — a read is
  QRPC(READ) over ``read_system`` returning the highest-clock reply; a
  write stamps a logical clock and QRPCs the value to a write quorum of
  ``write_system``.  DQVL reads on its OQS and writes on its IQS
  (Figures 4-5); majority and ROWA pass their one system twice.
* :class:`SingleReplicaClient` (primary/backup, ROWA-Async) — one
  replica serves each operation.

Both record operations through :class:`ServiceClient`.  Where a write's
clock comes from is the one real difference between the register
protocols, and each protocol's message set decides it: with a clock-read
message (DQVL's ``lc_read``, majority's ``mq_lc``) the client advances
the highest clock of a ``write_system`` read quorum — two round trips,
which is why Figure 6(b)'s write latencies converge.  ROWA's writes
reach every replica and it has no such message: the client stamps from
its own drifting real-time clock, node id as tiebreaker.  Under the
experiments' drift bounds that orders sequential writes correctly, and
concurrent writes either way — exactly what regular semantics permits.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ..quorum.qrpc import READ, WRITE, QuorumCall
from ..quorum.system import QuorumSystem
from ..sim.clock import DriftingClock
from ..sim.kernel import Simulator
from ..sim.messages import Message
from ..sim.network import Network
from ..sim.node import Node, RpcTimeout
from ..types import READ as READ_OP, WRITE as WRITE_OP, ZERO_LC, LogicalClock, Op
from .base import lamport_from_clock

__all__ = ["ServiceClient", "RegisterClient", "SingleReplicaClient"]


def _clock_of(reply: Message) -> LogicalClock:
    return reply.payload["lc"]


class ServiceClient(Node):
    """The op recorder every protocol client shares.

    ``read``/``write`` open the operation's ``op`` span, run the
    protocol's ``_read(obj, span)`` (which returns the reply that
    answers the read) or ``_write(obj, value, span)`` (which returns the
    write's clock) under it, finish the span — ``rejected`` when the
    protocol raised — and return the operation's :class:`~repro.types.Op`.
    """

    def _op_span(self, name: str, obj: str, parent):
        tracer = self.obs_tracer
        if tracer is None:
            return None
        return tracer.span(name, category="op", node=self.node_id,
                           key=obj, parent=parent)

    def read(self, obj: str, parent=None):
        start = self.sim.now
        span = self._op_span("read", obj, parent)
        try:
            reply = yield from self._read(obj, span)
        except Exception:
            if span is not None:
                span.finish(status="rejected")
            raise
        hit = reply.payload.get("hit")  # only cache-based protocols report one
        if span is not None:
            if hit is None:
                span.finish(status="ok", server=reply.src)
            else:
                span.finish(status="ok", hit=hit, server=reply.src)
        return Op(READ_OP, obj, reply.payload["value"], reply.payload["lc"],
                  start, self.sim.now, self.node_id, hit=hit, server=reply.src)

    def write(self, obj: str, value: Any, parent=None):
        start = self.sim.now
        span = self._op_span("write", obj, parent)
        try:
            lc = yield from self._write(obj, value, span)
        except Exception:
            if span is not None:
                span.finish(status="rejected")
            raise
        if span is not None:
            span.finish(status="ok", lc=str(lc))
        return Op(WRITE_OP, obj, value, lc, start, self.sim.now, self.node_id)


class RegisterClient(ServiceClient):
    """A quorum-register service client.

    Parameters
    ----------
    read_system / write_system:
        Where reads and writes go (DQVL: OQS and IQS; majority and ROWA:
        their one system twice).
    kinds:
        The ``(read, clock_read, write)`` message kinds; ``clock_read``
        is ``None`` for a protocol without one (ROWA), whose writes are
        stamped from the local clock.
    qrpc_config:
        QRPC retransmission schedule (``initial_timeout_ms``,
        ``max_timeout_ms``, ``max_attempts``).
    prefer / prefer_write:
        The replica included in every sampled read quorum — typically the
        client's co-located one — and an optional override for the write
        side.  Without the override writes prefer ``prefer`` too: QRPC
        ignores a preferred node outside the system it samples, so a
        DQVL client's OQS preference never steers its IQS writes.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        read_system: QuorumSystem,
        write_system: QuorumSystem,
        kinds: Tuple[str, Optional[str], str],
        qrpc_config: Optional[Dict[str, Any]] = None,
        prefer: Optional[str] = None,
        prefer_write: Optional[str] = None,
        clock: Optional[DriftingClock] = None,
    ) -> None:
        super().__init__(sim, network, node_id, clock=clock)
        self.read_system = read_system
        self.write_system = write_system
        self.read_kind, self.clock_kind, self.write_kind = kinds
        self.qrpc_config = dict(qrpc_config or {})
        self.prefer = prefer
        self.prefer_write = prefer_write
        #: optional NodeResilience; attached by the deployment
        self.resilience = None
        #: the highest clock this client has read or stamped: its next
        #: stamp is above it (session monotonicity)
        self._floor = ZERO_LC

    def _qrpc(self, system: QuorumSystem, mode: str, kind: str,
              payload: Dict[str, Any], span, prefer: Optional[str]):
        return QuorumCall(self, system, mode, lambda target: (kind, dict(payload)),
                          span=span, prefer=prefer, resilience=self.resilience,
                          **self.qrpc_config).run()

    def _write_prefer(self) -> Optional[str]:
        return self.prefer if self.prefer_write is None else self.prefer_write

    def _read(self, obj: str, span):
        replies = yield from self._qrpc(self.read_system, READ, self.read_kind,
                                        {"obj": obj}, span, self.prefer)
        best = max(replies.values(), key=_clock_of)
        self._floor = self._floor.merge(best.payload["lc"])
        return best

    def _write(self, obj: str, value: Any, span):
        prefer = self._write_prefer()
        if self.clock_kind is None:  # ROWA: stamp from the local clock
            lc = lamport_from_clock(self.clock.now(), self.node_id)
            if lc <= self._floor:
                lc = self._floor.next(self.node_id)
        else:
            replies = yield from self._qrpc(self.write_system, READ,
                                            self.clock_kind, {}, span, prefer)
            highest = max(map(_clock_of, replies.values()), default=ZERO_LC)
            lc = max(highest, self._floor).next(self.node_id)
        self._floor = lc
        yield from self._qrpc(self.write_system, WRITE, self.write_kind,
                              {"obj": obj, "value": value, "lc": lc}, span, prefer)
        return lc


class SingleReplicaClient(ServiceClient):
    """Sends each operation to one replica, with bounded retries.

    Primary/backup targets the primary and has no ``fallbacks``: it
    retries the primary and never draws from the RNG.  ROWA-Async
    targets the client's nearest replica; any replica can serve any
    operation — that is where its availability comes from — so after a
    timeout it retries a uniformly random other one of ``fallbacks``.
    The server stamps the write's clock; ``kinds`` is ``(read, write)``.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        target: str,
        fallbacks: Sequence[str],
        kinds: Tuple[str, str],
        rpc_timeout_ms: float = 2000.0,
        max_attempts: Optional[int] = None,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.target = target
        self.fallbacks = list(fallbacks)
        self.read_kind, self.write_kind = kinds
        self.rpc_timeout_ms = rpc_timeout_ms
        self.max_attempts = max_attempts

    def _call(self, kind: str, payload: Dict[str, Any], span):
        span_id = span.span_id if span is not None else None
        target = self.target
        attempts = 0
        while True:
            attempts += 1
            try:
                return (yield self.call(target, kind, payload,
                                        timeout=self.rpc_timeout_ms,
                                        span=span_id))
            except RpcTimeout:
                if self.max_attempts is not None and attempts >= self.max_attempts:
                    raise
                others = [r for r in self.fallbacks if r != target]
                if others:
                    target = self.sim.rng.choice(others)

    def _read(self, obj: str, span):
        return self._call(self.read_kind, {"obj": obj}, span)

    def _write(self, obj: str, value: Any, span):
        reply = yield from self._call(self.write_kind,
                                      {"obj": obj, "value": value}, span)
        return reply.payload["lc"]
