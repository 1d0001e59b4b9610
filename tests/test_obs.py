"""Tests for the unified observability layer (repro.obs).

Covers the span tracer's tree queries and memory bound, the metrics
registry, the JSONL/Chrome exporters (record shapes, span filtering,
message-id densification, fault annotation tracks), and the end-to-end
determinism contract: identical seeds produce byte-identical exports.
"""

import json

import pytest

from repro.chaos.faults import Fault, FaultSchedule
from repro.harness.experiment import ExperimentConfig, run_response_time
from repro.obs import (
    MetricsRegistry,
    Observability,
    SpanTracer,
    select_spans,
    spans_to_chrome,
    spans_to_jsonl,
)
from repro.sim import Simulator
from repro.types import LogicalClock


@pytest.fixture
def sim():
    return Simulator(seed=1)


class TestSpanTracer:
    def test_ids_start_at_one_and_increment(self, sim):
        tracer = SpanTracer(sim)
        assert tracer.span("a", node="n").span_id == 1
        assert tracer.span("b", node="n").span_id == 2

    def test_parenting_accepts_span_or_id(self, sim):
        tracer = SpanTracer(sim)
        root = tracer.span("op", category="op", node="c")
        by_span = tracer.span("round", parent=root, node="c")
        by_id = tracer.span("round", parent=root.span_id, node="c")
        assert by_span.parent_id == root.span_id
        assert by_id.parent_id == root.span_id

    def test_finish_is_idempotent(self, sim):
        tracer = SpanTracer(sim)
        span = tracer.span("op")
        span.finish(status="ok")
        first_end = span.end
        span.finish(status="changed")
        assert span.end == first_end
        assert span.attrs["status"] == "changed"

    def test_top_slow_orders_by_duration_then_id(self, sim):
        tracer = SpanTracer(sim)
        fast = tracer.span("r", category="op").finish()
        slow = tracer.span("w", category="op").finish()
        slow.end = slow.start + 100.0
        other = tracer.span("w2", category="op").finish()
        other.end = other.start + 100.0
        unfinished = tracer.span("u", category="op")
        top = tracer.top_slow(3)
        assert [s.span_id for s in top] == [slow.span_id, other.span_id,
                                            fast.span_id]
        assert unfinished not in top

    def test_top_slow_rejects_a_negative_count(self, sim):
        tracer = SpanTracer(sim)
        tracer.span("r", category="op").finish()
        assert tracer.top_slow(0) == []
        with pytest.raises(ValueError, match=r"top_slow n must be in \[0, inf\), got -1"):
            tracer.top_slow(-1)

    def test_max_records_bounds_spans_plus_events(self, sim):
        tracer = SpanTracer(sim, max_records=3)
        tracer.span("a")
        tracer.event("e1")
        tracer.span("b")
        tracer.event("e2")  # over the bound
        tracer.span("c")    # over the bound
        assert len(tracer.spans) + len(tracer.events) == 3
        assert tracer.dropped == 2
        # ids keep advancing even for dropped spans (determinism)
        assert tracer.span("d").span_id == 4

    def test_events_for(self, sim):
        tracer = SpanTracer(sim)
        span = tracer.span("op", node="c")
        span.event("msg_send", msg=7)
        tracer.event("unrelated")
        (event,) = [e for e in tracer.events if e.span_id == span.span_id]
        assert event.name == "msg_send"
        assert event.node == "c"


class TestMetricsRegistry:
    def test_same_name_and_labels_dedup(self):
        reg = MetricsRegistry()
        a = reg.counter("net.messages", kind="inval")
        b = reg.counter("net.messages", kind="inval")
        c = reg.counter("net.messages", kind="renew")
        assert a is b
        assert a is not c
        assert len(reg.snapshot()) == 2

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        assert reg.gauge("g", a=1, b=2) is reg.gauge("g", b=2, a=1)

    def test_counter_gauge_basics(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        assert reg.counter("c").value == 3.5
        reg.gauge("g").set(7.0)
        assert reg.gauge("g").value == 7.0

    def test_histogram_buckets_and_quantile(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", bounds=(10.0, 100.0))
        for v in (1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.buckets == [2, 1, 1]  # <=10, <=100, +inf
        assert h.count == 4
        assert h.sum == 556.0
        assert h.max == 500.0
        assert h.quantile_interpolated(0.5) == 10.0   # top of its bucket
        assert h.quantile_interpolated(1.0) == 500.0  # overflow reports max
        assert reg.histogram("empty").quantile_interpolated(0.5) == 0.0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", bounds=(10.0, 1.0))

    def test_snapshot_is_sorted_and_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a", z="1").inc()
        snap = reg.snapshot()
        assert [e["name"] for e in snap] == ["a", "b"]
        assert snap[0]["labels"] == {"z": "1"}
        json.dumps(snap)  # must be serialisable as-is


def _toy_tracer(sim):
    """op -> round -> (validate); plus one span outside the op subtree."""
    tracer = SpanTracer(sim)
    op = tracer.span("read", category="op", node="appsc0", key="k")
    rnd = tracer.span("qrpc_round", category="qrpc", node="appsc0", parent=op)
    tracer.event("msg_send", span=rnd, node="appsc0", msg=9001)
    tracer.event("msg_recv", span=rnd, node="oqs0", msg=9001)
    tracer.span("validate", category="lease", node="oqs0", parent=rnd).finish()
    rnd.finish(outcome="quorum")
    op.finish(status="ok")
    tracer.span("renew_volume", category="lease", node="oqs1").finish()
    return tracer, op


class TestSelectSpans:
    def test_no_filter_returns_all_sorted(self, sim):
        tracer, _ = _toy_tracer(sim)
        spans = select_spans(tracer)
        assert [s.span_id for s in spans] == [1, 2, 3, 4]

    def test_filter_keeps_matching_subtrees(self, sim):
        tracer, op = _toy_tracer(sim)
        kept = select_spans(tracer, span_filter="op")
        assert {s.span_id for s in kept} == {1, 2, 3}  # not the lone renewal
        by_name = select_spans(tracer, span_filter="renew_volume")
        assert [s.span_id for s in by_name] == [4]


class TestJsonlExport:
    def test_record_kinds_and_shapes(self, sim):
        tracer, _ = _toy_tracer(sim)
        faults = [Fault.make("partition", start=5.0, duration=10.0,
                             groups=(("oqs0",), ("iqs0",)))]
        reg = MetricsRegistry()
        reg.counter("net.messages").inc(2)
        text = spans_to_jsonl(tracer, faults=faults, metrics=reg)
        records = [json.loads(line) for line in text.splitlines()]
        kinds = [r["record"] for r in records]
        assert kinds[0] == "meta"
        assert kinds.count("span") == 4
        assert kinds.count("event") == 2
        assert kinds.count("fault") == 1
        assert kinds.count("metric") == 1
        meta = records[0]
        assert meta["spans"] == 4 and meta["dropped"] == 0
        fault = next(r for r in records if r["record"] == "fault")
        assert fault["kind"] == "partition"
        assert fault["groups"] == [["oqs0"], ["iqs0"]]

    def test_msg_ids_densified_by_first_appearance(self, sim):
        tracer, _ = _toy_tracer(sim)
        records = [json.loads(l) for l in spans_to_jsonl(tracer).splitlines()]
        msgs = [r["attrs"]["msg"] for r in records if r["record"] == "event"]
        assert msgs == [1, 1]  # process-global 9001 remapped

    def test_logical_clock_attrs_export_as_their_text(self, sim):
        """A clock is a tuple, but exports as ``str(clock)``, not a list."""
        tracer = SpanTracer(sim)
        tracer.span("op", node="c").finish(lc=LogicalClock(3, "c"), pair=(1, "x"))
        span = next(json.loads(line) for line in spans_to_jsonl(tracer).splitlines()
                    if '"record":"span"' in line)
        assert span["attrs"]["lc"] == "3@c" and span["attrs"]["pair"] == [1, "x"]

    def test_span_filter_drops_unrelated_events(self, sim):
        tracer, _ = _toy_tracer(sim)
        tracer.event("stray", span=4, node="oqs1")
        text = spans_to_jsonl(tracer, span_filter="op")
        records = [json.loads(l) for l in text.splitlines()]
        names = [r["name"] for r in records if r["record"] == "event"]
        assert "stray" not in names


class TestChromeExport:
    def test_valid_chrome_trace_json(self, sim):
        tracer, _ = _toy_tracer(sim)
        faults = FaultSchedule([
            Fault.make("partition", start=5.0, duration=10.0,
                       groups=(("oqs0",), ("iqs0",)), extra=1.5),
        ])
        doc = json.loads(spans_to_chrome(tracer, faults=faults))
        evs = doc["traceEvents"]
        phases = {e["ph"] for e in evs}
        assert {"M", "X", "s", "f", "i"} <= phases
        # one complete event per span + one per fault window
        assert sum(1 for e in evs if e["ph"] == "X") == 5
        # ts/dur are microseconds
        fault = next(e for e in evs if e.get("cat") == "fault")
        assert (fault["ts"], fault["dur"]) == (5_000.0, 10_000.0)
        assert fault["args"]["params"] == {"extra": 1.5}
        # chaos rides on its own process row
        assert fault["pid"] != evs[0]["pid"]

    def test_flow_arrows_tie_children_to_parents(self, sim):
        tracer, _ = _toy_tracer(sim)
        doc = json.loads(spans_to_chrome(tracer))
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert {e["id"] for e in starts} == {2, 3}  # the two child spans
        assert {e["id"] for e in finishes} == {2, 3}
        assert all(e["bp"] == "e" for e in finishes)

    def test_thread_per_node(self, sim):
        tracer, _ = _toy_tracer(sim)
        doc = json.loads(spans_to_chrome(tracer))
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"appsc0", "oqs0", "oqs1"} <= names


def _traced_run(seed=3):
    config = ExperimentConfig(
        protocol="dqvl", write_ratio=0.3, ops_per_client=5, warmup_ops=2,
        num_clients=2, num_edges=3, seed=seed, trace=True,
    )
    return run_response_time(config)


class TestEndToEnd:
    def test_ops_link_to_rounds_and_messages(self):
        result = _traced_run()
        tracer = result.obs.tracer
        ops = tracer.op_spans()
        assert ops and all(s.finished for s in ops)
        some_round = None
        for op in ops:
            rounds = [s for s in tracer.spans if s.parent_id == op.span_id]
            assert rounds, f"operation {op!r} has no qrpc rounds"
            some_round = rounds[0]
        sends = [e for e in tracer.events
                 if e.span_id == some_round.span_id and e.name == "msg_send"]
        assert sends, "qrpc round recorded no message sends"

    def test_protocol_metrics_collected(self):
        result = _traced_run()
        metrics = result.obs.metrics
        recorded = {(name, labels) for name, labels, _ in metrics}
        assert ("proto.read_hit_rate", ()) in recorded
        assert ("net.messages", (("kind", "dq_read"),)) in recorded
        assert metrics.gauge("kernel.events_processed").value > 0
        assert metrics.gauge("net.total_messages").value > 0

    def test_same_seed_exports_are_byte_identical(self):
        faults = FaultSchedule([
            Fault.make("partition", start=50.0, duration=100.0,
                       groups=(("oqs0",), ("iqs0", "iqs1", "iqs2"))),
        ])

        def export(_):
            config = ExperimentConfig(
                protocol="dqvl", write_ratio=0.3, ops_per_client=5,
                warmup_ops=2, num_clients=2, num_edges=3, seed=3,
                trace=True, fault_schedule=faults,
            )
            result = run_response_time(config)
            obs = result.obs
            return (
                spans_to_jsonl(obs.tracer, faults=faults, metrics=obs.metrics),
                spans_to_chrome(obs.tracer, faults=faults),
            )

        first, second = export(0), export(1)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_different_seeds_differ(self):
        a = spans_to_jsonl(_traced_run(seed=3).obs.tracer)
        b = spans_to_jsonl(_traced_run(seed=4).obs.tracer)
        assert a != b


class TestObservabilityDisabled:
    def test_network_obs_defaults_to_none(self):
        config = ExperimentConfig(
            protocol="dqvl", ops_per_client=3, warmup_ops=1,
            num_clients=1, num_edges=3, seed=1,
        )
        result = run_response_time(config)
        assert result.obs is None

    def test_install_is_chainable_and_bounded(self, sim):
        from repro.sim import ConstantDelay, Network

        net = Network(sim, ConstantDelay(1.0))
        obs = Observability(sim, max_records=10).install(net)
        assert net.obs is obs
        assert obs.tracer.max_records == 10
