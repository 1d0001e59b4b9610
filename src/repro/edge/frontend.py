"""Front ends and application clients (Figure 1's request path).

An :class:`AppClient` is an end user's machine: it sends each request to
a front-end edge server chosen by a :class:`LocalityRedirection` and waits
for the response — a closed loop, as in the paper ("the application
client sends the next request only after it receives the response of the
current request").

A :class:`FrontEnd` is the service logic on an edge server: it owns a
protocol *service client* (DQVL, majority, ROWA, ...) and translates
application requests into storage operations.  Application clients are
unaware of the storage protocol and never contact the OQS/IQS directly,
exactly as the system model requires.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sim.kernel import Future, Simulator
from ..sim.messages import Message
from ..sim.network import Network
from ..sim.node import Node, RpcTimeout
from ..types import READ, WRITE, LogicalClock, Op

__all__ = ["FrontEnd", "AppClient", "LocalityRedirection", "OperationFailed"]

#: the advertised staleness bound of a degraded read: a front end serves a
#: remembered value only while its age of information is within it
DEGRADED_MAX_STALENESS_MS = 8_000.0

#: the retry-after hint a throttling front end sheds a write with
THROTTLE_RETRY_AFTER_MS = 50.0

#: how many times an app client re-submits a shed write (waiting out each
#: retry-after hint) before the write counts as rejected
SHED_RETRY_BUDGET = 3

#: age-of-information bucket bounds (ms) for the degraded-read histogram
STALENESS_BUCKETS_MS = (
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_000.0,
    4_000.0, 8_000.0, 16_000.0, 32_000.0,
)


class OperationFailed(Exception):
    """An application-level operation was rejected or timed out."""

    def __init__(self, kind: str, key: str, detail: str = ""):
        super().__init__(f"{kind}({key!r}) failed{': ' + detail if detail else ''}")
        self.kind = kind
        self.key = key
        self.detail = detail


class FrontEnd(Node):
    """Edge-server service logic: application requests → storage ops.

    ``store_client`` is any object with ``read(key)`` / ``write(key,
    value)`` generator methods returning an :class:`~repro.types.Op` — any
    protocol client from :mod:`repro.core` or :mod:`repro.protocols`.
    Protocol errors (quorum unreachable) surface to the application as
    an ``error`` field in the reply, which :class:`AppClient` converts
    into :class:`OperationFailed` — the "rejected request" of the
    paper's availability definition.

    With ``resilience`` on, the front end still tries storage on every
    request, but a read whose storage attempt fails is served from the
    front end's *last-known* value — a counted, labeled **degraded
    read** carrying its age of information and the advertised staleness
    bound (:data:`DEGRADED_MAX_STALENESS_MS`) — provided the age is
    within that bound.  Writes have no degraded mode.

    With ``max_inflight`` set, the front end additionally throttles by
    admission control: once that many storage operations are executing
    concurrently, further reads are rejected outright and further writes
    shed with a :data:`THROTTLE_RETRY_AFTER_MS` hint — the per-PoP
    overload valve of the CDN scenarios.

    Writes are applied at most once per application request: an
    :class:`AppClient` numbers its write submissions, and the front end
    keeps each client's latest ``(rid, reply)``.  A network-duplicated
    copy of that request waits for the first copy's reply and returns
    it; a copy of an older one is dropped.  Running a copy as a fresh
    write would stamp it with a newer clock, and a late copy would then
    overwrite writes that completed after the original.
    """

    def __init__(self, sim: Simulator, network: Network, node_id: str,
                 store_client,
                 resilience: bool = False,
                 max_inflight: Optional[int] = None) -> None:
        super().__init__(sim, network, node_id)
        self.store_client = store_client
        self.resilience = resilience
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.max_inflight = max_inflight
        self.inflight = 0
        self.reads_throttled = 0
        #: per key: (value, lc, sim time the value was last confirmed
        #: against the storage layer) — the degraded-read source
        self._last_known: Dict[str, Tuple[Any, LogicalClock, float]] = {}
        #: per app client: its latest write submission's (rid, future of
        #: the reply payload)
        self._writes: Dict[str, Tuple[int, Future]] = {}
        self.requests_served = 0
        self.requests_failed = 0
        self.degraded_reads = 0
        self.writes_shed = 0

    def _remember(self, key: str, value: Any, lc: LogicalClock) -> None:
        self._last_known[key] = (value, lc, self.sim.now)

    def _serve_degraded(self, msg: Message, obj: str) -> bool:
        """Serve *obj* from the last-known cache if within the advertised
        staleness bound; returns False when no in-bound value exists (the
        caller then reports a plain failure)."""
        entry = self._last_known.get(obj)
        if entry is None:
            return False
        value, lc, confirmed_at = entry
        age = self.sim.now - confirmed_at
        bound = DEGRADED_MAX_STALENESS_MS
        if age > bound:
            return False
        self.degraded_reads += 1
        self.requests_served += 1
        obs = getattr(self.net, "obs", None)
        if obs is not None:
            obs.metrics.histogram(
                "fe.degraded_staleness_ms", STALENESS_BUCKETS_MS
            ).observe(age)
            obs.tracer.event("degraded_serve", span=msg.span_id,
                             node=self.node_id, key=obj,
                             staleness_ms=age)
        self.reply(
            msg,
            payload={
                "obj": obj,
                "value": value,
                "lc": lc,
                "hit": False,
                "server": self.node_id,
                "degraded": True,
                "staleness_ms": age,
                "staleness_bound_ms": bound,
            },
        )
        return True

    def _at_capacity(self) -> bool:
        return self.max_inflight is not None and self.inflight >= self.max_inflight

    def on_fe_read(self, msg: Message):
        obj: str = msg.payload["obj"]
        if self._at_capacity():
            self.reads_throttled += 1
            self.requests_failed += 1
            self.reply(msg, payload={"error": "throttled: front end at capacity"})
            return
        self.inflight += 1
        try:
            result: Op = yield from self.store_client.read(
                obj, parent=msg.span_id
            )
        except Exception as exc:  # noqa: BLE001 - report to the app client
            if self.resilience and self._serve_degraded(msg, obj):
                return
            self.requests_failed += 1
            self.reply(msg, payload={"error": repr(exc)})
            return
        finally:
            self.inflight -= 1
        if self.resilience:
            self._remember(obj, result.value, result.lc)
        self.requests_served += 1
        self.reply(
            msg,
            payload={
                "obj": result.key,
                "value": result.value,
                "lc": result.lc,
                "hit": result.hit,
                "server": result.server,
            },
        )

    def on_fe_write(self, msg: Message):
        rid = msg.payload["rid"]
        last = self._writes.get(msg.src)
        if last is not None and rid <= last[0]:
            if rid == last[0]:
                outcome = last[1]
                if not outcome.done:
                    yield outcome
                self.reply(msg, payload=outcome.value)
            return
        outcome = self.sim.future(name=f"{self.node_id}:fe_write:{rid}")
        self._writes[msg.src] = (rid, outcome)
        payload = yield from self._write(msg)
        outcome.resolve(payload)
        self.reply(msg, payload=payload)

    def _write(self, msg: Message):
        """Run one write request; returns the reply payload."""
        obj: str = msg.payload["obj"]
        if self._at_capacity():
            self.writes_shed += 1
            return {"shed": True, "retry_after_ms": THROTTLE_RETRY_AFTER_MS}
        self.inflight += 1
        try:
            result: Op = yield from self.store_client.write(
                obj, msg.payload["value"], parent=msg.span_id
            )
        except Exception as exc:  # noqa: BLE001
            self.requests_failed += 1
            return {"error": repr(exc)}
        finally:
            self.inflight -= 1
        if self.resilience:
            # A completed write is as fresh as storage truth gets: it is
            # the newest value this front end has confirmed.
            self._remember(obj, result.value, result.lc)
        self.requests_served += 1
        return {"obj": result.key, "lc": result.lc}


class LocalityRedirection:
    """Chooses the front end for each application request.

    With probability *locality*, route to the home front end;
    otherwise to a uniformly random distant one.

    This is the paper's access-locality knob (Figure 7): locality 1.0 is
    the normal case (requests always reach the closest edge server);
    lower values model failures of the closest server or client
    mobility.
    """

    def __init__(self, home: str, all_front_ends: Sequence[str], locality: float) -> None:
        if not 0.0 <= locality <= 1.0:
            raise ValueError("locality must be in [0, 1]")
        self.home = home
        self.others: List[str] = [fe for fe in all_front_ends if fe != home]
        if home not in all_front_ends:
            raise ValueError("home front end must be among all_front_ends")
        if not self.others and locality < 1.0:
            raise ValueError("need at least two front ends for locality < 1")
        self.locality = locality

    def pick(self, rng) -> str:
        if self.locality >= 1.0 or rng.random() < self.locality:
            return self.home
        return rng.choice(self.others)


class AppClient(Node):
    """A closed-loop application client."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        redirection: LocalityRedirection,
        request_timeout_ms: float = 30_000.0,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.redirection = redirection
        self.request_timeout_ms = request_timeout_ms
        self.degraded_reads_seen = 0
        self.writes_shed_seen = 0
        #: id of the latest write submission (see :class:`FrontEnd`)
        self._rid = 0

    def read(self, key: str):
        """Issue one read via a redirected front end.

        Returns an application-level :class:`~repro.types.Op` whose latency
        includes the client↔front-end hop; raises
        :class:`OperationFailed` on rejection or timeout.
        """
        start = self.sim.now
        front_end = self.redirection.pick(self.sim.rng)
        tracer = self.obs_tracer
        span = None
        if tracer is not None:
            span = tracer.span("read", category="op", node=self.node_id,
                               key=key, path="app", fe=front_end)
        try:
            reply = yield self.call(
                front_end, "fe_read", {"obj": key},
                timeout=self.request_timeout_ms,
                span=span.span_id if span is not None else None,
            )
        except RpcTimeout as exc:
            if span is not None:
                span.finish(status="timeout")
            raise OperationFailed("read", key, detail=str(exc))
        payload = reply.payload
        if "error" in payload:
            if span is not None:
                span.finish(status="rejected")
            raise OperationFailed("read", key, detail=payload["error"])
        if payload.get("degraded"):
            self.degraded_reads_seen += 1
        if span is not None:
            span.finish(status="ok", hit=payload.get("hit"),
                        degraded=bool(payload.get("degraded", False)))
        return Op(
            READ, key, payload["value"], payload["lc"], start, self.sim.now,
            self.node_id,
            hit=payload.get("hit"),
            server=payload.get("server"),
            degraded=bool(payload.get("degraded", False)),
            staleness_ms=payload.get("staleness_ms"),
            staleness_bound_ms=payload.get("staleness_bound_ms"),
        )

    def write(self, key: str, value: Any):
        """Issue one write via a redirected front end (see :meth:`read`).

        A throttling front end may *shed* the write with a retry-after
        hint; the client waits it out and re-submits, up to
        :data:`SHED_RETRY_BUDGET` times, before reporting the rejection.
        Each submission carries a fresh request id, so the front end
        applies it at most once however often the network copies it.
        """
        start = self.sim.now
        front_end = self.redirection.pick(self.sim.rng)
        tracer = self.obs_tracer
        span = None
        if tracer is not None:
            span = tracer.span("write", category="op", node=self.node_id,
                               key=key, path="app", fe=front_end)
        sheds = 0
        while True:
            self._rid += 1
            try:
                reply = yield self.call(
                    front_end,
                    "fe_write",
                    {"obj": key, "value": value, "rid": self._rid},
                    timeout=self.request_timeout_ms,
                    span=span.span_id if span is not None else None,
                )
            except RpcTimeout as exc:
                if span is not None:
                    span.finish(status="timeout")
                raise OperationFailed("write", key, detail=str(exc))
            if "shed" in reply.payload:
                self.writes_shed_seen += 1
                sheds += 1
                if sheds > SHED_RETRY_BUDGET:
                    if span is not None:
                        span.finish(status="rejected", sheds=sheds)
                    raise OperationFailed(
                        "write", key,
                        detail=f"shed {sheds} times (throttled)",
                    )
                yield self.sim.sleep(reply.payload["retry_after_ms"])
                continue
            break
        if "error" in reply.payload:
            if span is not None:
                span.finish(status="rejected")
            raise OperationFailed("write", key, detail=reply.payload["error"])
        if span is not None:
            span.finish(status="ok", sheds=sheds)
        return Op(WRITE, key, value, reply.payload["lc"], start, self.sim.now,
                  self.node_id)
