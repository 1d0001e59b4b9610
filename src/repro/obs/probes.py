"""The observability context and its kernel/network/protocol probes.

:class:`Observability` bundles one :class:`~repro.obs.spans.SpanTracer`
and one :class:`~repro.obs.metrics.MetricsRegistry` for a run and hooks
them into the layers below:

* **network probes** — installed by :meth:`Observability.install`
  (sets ``network.obs``); the network then reports every accepted send,
  delivery, and drop, feeding per-kind message/byte counters, per-kind
  delivery-latency histograms, and drop/duplicate/unknown-destination
  counters, plus ``msg_send``/``msg_recv`` span events that attach each
  message to the span threaded through its metadata;
* **kernel probes** — a self-rescheduling sampler
  (:class:`KernelProbe`) records ready-deque and live timer-heap depth
  histograms (and the peak tombstone backlog) while the simulation
  runs, reading only the kernel's public ``ready_depth`` /
  ``timer_depth`` / ``timer_tombstones`` counters — the run loop carries
  no observability code at all;
* **protocol probes** — :meth:`Observability.finalize` scrapes the
  protocol counters every node already maintains (hits/misses, renewal
  and invalidation rates, epochs, quorum sizes contacted) into gauges.

Everything here is deterministic: probes read simulation state only, so
two runs with the same seed produce identical snapshots.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim.kernel import Simulator
from ..sim.messages import Message
from .metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS_MS,
    SIZE_BUCKETS_BYTES,
    MetricsRegistry,
)
from .spans import SpanTracer

__all__ = ["Observability", "KernelProbe", "collect_protocol_metrics"]


class KernelProbe:
    """Samples kernel queue depths every *interval_ms* of simulated time.

    The probe reschedules itself only while other work is pending, so it
    never keeps an otherwise-drained simulation alive (and never changes
    when the run ends).
    """

    def __init__(self, sim: Simulator, metrics: MetricsRegistry,
                 interval_ms: float = 100.0) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        self.sim = sim
        self.interval_ms = interval_ms
        self.samples = 0
        self._ready_depth = metrics.histogram("kernel.ready_depth", DEPTH_BUCKETS)
        self._timer_depth = metrics.histogram("kernel.timer_depth", DEPTH_BUCKETS)
        self._tombstones = metrics.gauge("kernel.timer_tombstones")
        sim.schedule(interval_ms, self._tick)

    def _tick(self) -> None:
        self.samples += 1
        sim = self.sim
        self._ready_depth.observe(float(sim.ready_depth))
        # timer_depth counts cancelled-but-unswept tombstones; report
        # *live* timers so cancel-heavy keeper churn doesn't inflate the
        # histogram, and track the peak tombstone backlog separately.
        tombstones = sim.timer_tombstones
        self._timer_depth.observe(float(sim.timer_depth - tombstones))
        if tombstones > self._tombstones.value:
            self._tombstones.set(float(tombstones))
        if sim.ready_depth or sim.timer_depth:
            sim.schedule(self.interval_ms, self._tick)


class Observability:
    """One run's tracer + metrics registry, with layer hooks.

    Build one, :meth:`install` it on the network, run the simulation,
    then :meth:`finalize` to scrape end-of-run kernel and protocol
    state.  The exporters in :mod:`repro.obs.export` consume the
    resulting :attr:`tracer` and :attr:`metrics`.
    """

    def __init__(
        self,
        sim: Simulator,
        tracer: Optional[SpanTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_records: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.tracer = tracer or SpanTracer(sim, max_records=max_records)
        self.metrics = metrics or MetricsRegistry()
        self.kernel_probe: Optional[KernelProbe] = None

    # -- wiring -----------------------------------------------------------

    def install(self, network, kernel_probe_interval_ms: Optional[float] = 100.0):
        """Attach to *network* and start the kernel sampler."""
        network.obs = self
        if kernel_probe_interval_ms is not None:
            self.kernel_probe = KernelProbe(
                self.sim, self.metrics, kernel_probe_interval_ms
            )
        return self

    # -- network hooks (called by Network when ``network.obs`` is set) ----

    def on_send(self, message: Message, size: int) -> None:
        self.metrics.counter("net.messages", kind=message.kind).inc()
        if size:
            self.metrics.counter("net.bytes", kind=message.kind).inc(size)
            self.metrics.histogram(
                "net.message_bytes", SIZE_BUCKETS_BYTES, kind=message.kind
            ).observe(float(size))
        if message.reply_to is not None:
            self.tracer.event(
                "msg_send", span=message.span_id, node=message.src,
                kind=message.kind, msg=message.msg_id, dst=message.dst,
                re=message.reply_to,
            )
        else:
            self.tracer.event(
                "msg_send", span=message.span_id, node=message.src,
                kind=message.kind, msg=message.msg_id, dst=message.dst,
            )

    def on_deliver(self, message: Message) -> None:
        self.metrics.histogram(
            "net.delivery_latency_ms", LATENCY_BUCKETS_MS, kind=message.kind
        ).observe(self.sim.now - message.send_time)
        self.tracer.event(
            "msg_recv", span=message.span_id, node=message.dst,
            kind=message.kind, msg=message.msg_id, src=message.src,
        )

    def on_drop(self, message: Message, reason: str) -> None:
        self.metrics.counter("net.dropped", reason=reason).inc()
        self.tracer.event(
            "msg_drop", span=message.span_id, node=message.dst,
            kind=message.kind, msg=message.msg_id, reason=reason,
        )

    def on_duplicate(self, message: Message) -> None:
        self.metrics.counter("net.duplicated", kind=message.kind).inc()

    # -- latency attribution ----------------------------------------------

    def attributions(self):
        """Per-op critical-path attributions for every traced root op
        (see :mod:`repro.obs.critpath`)."""
        from .critpath import attribute_trace

        return attribute_trace(self.tracer)

    def latency_budget(self):
        """The run's phase × percentile budget table
        (see :mod:`repro.obs.budget`)."""
        from .budget import latency_budget

        return latency_budget(self.attributions())

    # -- end-of-run scrape ------------------------------------------------

    def finalize(self, network=None, deployment=None) -> "Observability":
        """Record end-of-run kernel, network, and protocol metrics."""
        sim = self.sim
        self.metrics.gauge("kernel.events_processed").set(float(sim.events_processed))
        if sim.now > 0:
            self.metrics.gauge("kernel.events_per_sim_sec").set(
                sim.events_processed / (sim.now / 1000.0)
            )
        if network is not None:
            stats = network.stats
            self.metrics.gauge("net.total_messages").set(float(stats.total_messages))
            self.metrics.gauge("net.total_bytes").set(float(stats.total_bytes))
            self.metrics.gauge("net.dropped_total").set(float(stats.dropped))
            self.metrics.gauge("net.duplicated_total").set(float(stats.duplicated))
            self.metrics.gauge("net.unknown_destination").set(
                float(stats.unknown_destination)
            )
        if deployment is not None:
            collect_protocol_metrics(deployment, self.metrics)
        return self


#: node counter attribute -> metric name scraped by the protocol probe
_NODE_COUNTERS = (
    ("read_hits", "proto.read_hits"),
    ("read_misses", "proto.read_misses"),
    ("renewals_sent", "proto.renewals_sent"),
    ("renewals_served", "proto.renewals_served"),
    ("invals_sent", "proto.invals_sent"),
    ("invals_received", "proto.invals_received"),
    ("validations_coalesced", "proto.validations_coalesced"),
    ("writes_applied", "proto.writes_applied"),
    ("writes_suppressed", "proto.writes_suppressed"),
    ("writes_through", "proto.writes_through"),
    ("delayed_enqueued", "proto.delayed_enqueued"),
    ("catchups_started", "resil.catchups_started"),
)

#: front-end counter attribute -> metric name
_FRONT_END_COUNTERS = (
    ("requests_served", "fe.requests_served"),
    ("requests_failed", "fe.requests_failed"),
    ("degraded_reads", "fe.degraded_reads"),
    ("writes_shed", "fe.writes_shed"),
)


def _collect_resilience(holder: Any, metrics: MetricsRegistry,
                        node_id: str) -> None:
    """Scrape a node's / client's NodeResilience counters, if attached."""
    res = getattr(holder, "resilience", None)
    if res is None or not hasattr(res, "detector"):
        return
    metrics.gauge("resil.suspicions", node=node_id).set(
        float(res.detector.suspicions)
    )
    metrics.gauge("resil.hedges_sent", node=node_id).set(float(res.hedges_sent))
    metrics.gauge("resil.adaptive_rounds", node=node_id).set(
        float(res.adaptive_rounds)
    )


def collect_protocol_metrics(deployment: Any, metrics: MetricsRegistry) -> None:
    """Scrape per-node protocol counters into gauges.

    Works for any deployment: the nodes are its ``servers`` (IQS+OQS
    for dual-quorum protocols, the replicas otherwise) and only the
    counters a node actually defines are recorded.  DQVL hit rate
    and logical-clock epoch state get derived gauges on top.  Front-end
    service counters (degraded reads, shed writes) and resilience-layer
    counters (suspicions, hedges, adaptive rounds, catch-ups) are
    scraped when those layers are present.
    """
    hits = misses = 0
    for node in deployment.servers:
        for attr, metric_name in _NODE_COUNTERS:
            value = getattr(node, attr, None)
            if value is not None:
                metrics.gauge(metric_name, node=node.node_id).set(float(value))
        _collect_resilience(node, metrics, node.node_id)
        hits += getattr(node, "read_hits", 0)
        misses += getattr(node, "read_misses", 0)
        epoch = getattr(node, "logical_clock", None)
        if epoch is not None and hasattr(epoch, "counter"):
            metrics.gauge("proto.logical_clock", node=node.node_id).set(
                float(epoch.counter)
            )
        leases = getattr(node, "leases", None)
        if leases is not None and hasattr(node, "live_callback_count"):
            metrics.gauge("proto.live_callbacks", node=node.node_id).set(
                float(node.live_callback_count())
            )
    for fe in deployment.front_ends:
        for attr, metric_name in _FRONT_END_COUNTERS:
            value = getattr(fe, attr, None)
            if value is not None:
                metrics.gauge(metric_name, node=fe.node_id).set(float(value))
        client = getattr(fe, "store_client", None)
        if client is not None:
            _collect_resilience(client, metrics, getattr(
                client, "node_id", fe.node_id
            ))
    if hits + misses:
        metrics.gauge("proto.read_hit_rate").set(hits / (hits + misses))
