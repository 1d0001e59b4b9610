"""Unit tests for the latency attribution engine (repro.obs.critpath,
repro.obs.budget) and the histogram summary primitives backing it.

The engine's contract (DESIGN.md §15): attribution is a pure function
of the trace — identical seeds give byte-identical attribution JSON —
and per-op phase conservation holds by construction: the extracted
segments tile [op.start, op.end] exactly, so the phase sums match the
measured latency to within float error.
"""

import json

import pytest

from repro.harness.experiment import ExperimentConfig, run_response_time
from repro.obs import (
    PHASES,
    LatencyBudget,
    attribute_op,
    attribute_trace,
    build_index,
    format_attribution,
    format_budget,
    latency_budget,
    top_slow_json,
)
from repro.obs.metrics import Histogram


def _traced(protocol="dqvl", seed=0, write_ratio=0.2, ops=20, locality=1.0):
    config = ExperimentConfig(
        protocol=protocol, write_ratio=write_ratio, locality=locality,
        ops_per_client=ops, warmup_ops=2, num_clients=2, num_edges=3,
        seed=seed, trace=True,
    )
    return run_response_time(config)


@pytest.fixture(scope="module")
def dqvl_run():
    # 60 ops/client: enough writes that at least one invalidation goes
    # through (rather than being suppressed) and shows up on a path.
    return _traced(ops=60)


class TestConservation:
    def test_every_op_conserves_within_1e6(self, dqvl_run):
        atts = attribute_trace(dqvl_run.obs.tracer)
        assert atts, "traced run produced no attributable ops"
        for att in atts:
            assert att.conservation_error <= 1e-6, att.op.name

    def test_segments_tile_the_op_interval(self, dqvl_run):
        for att in attribute_trace(dqvl_run.obs.tracer):
            cursor = att.op.start
            for seg in att.segments:
                assert seg.start == pytest.approx(cursor, abs=1e-9)
                assert seg.end >= seg.start
                cursor = seg.end
            assert cursor == pytest.approx(att.end, abs=1e-9)

    def test_phases_dict_covers_taxonomy_with_zeros(self, dqvl_run):
        att = attribute_trace(dqvl_run.obs.tracer)[0]
        assert tuple(att.phases) == PHASES
        assert sum(att.phases.values()) == pytest.approx(att.total)

    def test_conservation_across_protocols(self):
        for protocol in ("majority", "primary_backup", "rowa", "rowa_async"):
            result = _traced(protocol=protocol, ops=8)
            atts = attribute_trace(result.obs.tracer)
            assert atts, protocol
            assert max(a.conservation_error for a in atts) <= 1e-6, protocol


class TestDqvlStory:
    """The acceptance criterion: local hits pay ~no quorum wait, writes
    and renewal misses do."""

    def test_hits_have_no_quorum_wait_or_lease_time(self, dqvl_run):
        atts = attribute_trace(dqvl_run.obs.tracer)
        hits = [a for a in atts if a.group_key() == "read[hit]"]
        assert hits
        for att in hits:
            assert att.phases["quorum_wait"] == pytest.approx(0.0)
            assert att.phases["lease"] == pytest.approx(0.0)

    def test_writes_carry_quorum_wait_and_inval(self, dqvl_run):
        atts = attribute_trace(dqvl_run.obs.tracer)
        writes = [a for a in atts if a.group_key() == "write"]
        assert writes
        assert sum(a.phases["quorum_wait"] for a in writes) > 0
        assert sum(a.phases["inval"] for a in writes) > 0

    def test_invalidation_retry_under_a_partition_is_attributed(self, capsys):
        """``repro why --partition 200:3000``: the slowest op, write #31,
        waits out a client QRPC across the partition, then 400 ms of an
        invalidation round at iqs1 that times out and the retransmission
        whose exchange completes it.  Its budget and conservation are
        pinned."""
        from repro.cli import main

        assert main(["why", "--protocol", "dqvl", "--seed", "0",
                     "--partition", "200:3000", "--check-conservation"]) == 0
        out = capsys.readouterr().out
        assert "210 ops, max |sum(phases) - latency| = 0 ms" in out
        block = out.split("#31 write key=profile0 node=appsc0 3312.00 ms")[1]
        block = block.split("\n#")[0]
        assert "2874.00 ms  +  400.00 ms  retry       @iqs1" in block
        assert block.rstrip().endswith(
            "budget: net_request=94.00 inval=160.00 net_reply=94.00 "
            "quorum_wait=156.00 retry=2808.00"
        )

    def test_misses_carry_the_lease_detour(self):
        result = _traced(locality=0.5, ops=30)
        atts = attribute_trace(result.obs.tracer)
        misses = [a for a in atts if a.group_key() == "read[miss]"]
        assert misses
        assert sum(a.phases["lease"] for a in misses) > 0


class TestDeterminism:
    def test_same_seed_attributions_identical(self):
        def snapshot():
            tracer = _traced(seed=7, ops=8).obs.tracer
            return json.dumps(
                [a.to_json_obj() for a in attribute_trace(tracer)],
                sort_keys=True,
            )

        assert snapshot() == snapshot()

    def test_same_seed_top_slow_json_byte_identical(self):
        first = top_slow_json(_traced(seed=7, ops=8).obs.tracer, 5)
        second = top_slow_json(_traced(seed=7, ops=8).obs.tracer, 5)
        assert first == second

    def test_different_seeds_differ(self):
        a = top_slow_json(_traced(seed=7, ops=8).obs.tracer, 5)
        b = top_slow_json(_traced(seed=8, ops=8).obs.tracer, 5)
        assert a != b

    def test_top_slow_json_is_canonical(self, dqvl_run):
        text = top_slow_json(dqvl_run.obs.tracer, 3)
        doc = json.loads(text)
        assert text == json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        ) + "\n"
        assert len(doc["ops"]) == 3
        for op in doc["ops"]:
            assert set(PHASES) == set(op["phases"])


class TestTracingOff:
    def test_untraced_run_carries_no_observability(self):
        config = ExperimentConfig(
            protocol="dqvl", write_ratio=0.2, ops_per_client=5,
            warmup_ops=1, num_clients=1, num_edges=3, seed=0,
        )
        assert run_response_time(config).obs is None

    def test_tracing_does_not_perturb_the_simulation(self):
        """Instrumentation is additive observation: the op latencies a
        traced run measures equal the untraced run's, op for op."""
        def latencies(trace):
            config = ExperimentConfig(
                protocol="dqvl", write_ratio=0.2, ops_per_client=8,
                warmup_ops=1, num_clients=2, num_edges=3, seed=5,
                trace=trace,
            )
            result = run_response_time(config)
            return [(op.kind, op.key, op.latency) for op in result.history.ops]

        assert latencies(False) == latencies(True)


class TestFormatting:
    def test_format_attribution_mentions_phases_and_path(self, dqvl_run):
        atts = attribute_trace(dqvl_run.obs.tracer)
        writes = [a for a in atts if a.group_key() == "write"]
        text = format_attribution(writes[0])
        assert "write" in text
        assert "quorum_wait" in text
        assert "ms" in text

    def test_attribute_op_matches_attribute_trace(self, dqvl_run):
        tracer = dqvl_run.obs.tracer
        index = build_index(tracer)
        ops = index.root_ops()
        direct = [attribute_op(index, op).to_json_obj() for op in ops]
        batch = [a.to_json_obj() for a in attribute_trace(tracer)]
        assert direct == batch


class TestBudget:
    def test_budget_groups_and_phases(self, dqvl_run):
        budget = dqvl_run.obs.latency_budget()
        groups = budget.groups
        assert "read[hit]" in groups and "write" in groups
        for phases in groups.values():
            assert "total" in phases
            assert set(PHASES) <= set(phases)

    def test_budget_conserves_means(self, dqvl_run):
        for group, phases in dqvl_run.obs.latency_budget().groups.items():
            phase_sum = sum(
                h.mean for name, h in phases.items() if name != "total"
            )
            assert phase_sum == pytest.approx(
                phases["total"].mean, abs=1e-6
            ), group

    def test_budget_json_deterministic_and_sorted(self, dqvl_run):
        budget = dqvl_run.obs.latency_budget()
        text = budget.to_json()
        doc = json.loads(text)
        assert text == json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        ) + "\n"
        assert list(doc) == sorted(doc)
        assert budget.to_json() == latency_budget(
            attribute_trace(dqvl_run.obs.tracer)
        ).to_json()

    def test_format_budget_skips_empty_phases(self, dqvl_run):
        text = format_budget(dqvl_run.obs.latency_budget(), title="t")
        assert "t" in text and "total" in text
        # hits never touch the degraded path in a fault-free run
        hit_block = text.split("read[hit]")[1].split("write")[0]
        assert "degraded" not in hit_block

    def test_empty_budget(self):
        budget = LatencyBudget()
        assert budget.groups == {}
        assert budget.to_json() == "{}\n"


class TestHistogramSummary:
    def test_interpolated_quantile_within_bucket_width(self):
        hist = Histogram((1.0, 2.0, 4.0, 8.0))
        values = [0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 5.0, 7.0, 7.5, 9.0]
        for v in values:
            hist.observe(v)
        exact = sorted(values)
        for q in (0.5, 0.95, 0.99):
            rank = max(1, int(q * len(values) + 0.5))
            err = abs(hist.quantile_interpolated(q) - exact[rank - 1])
            assert err <= 4.0  # widest finite bucket

    def test_interpolation_refines_the_upper_bound(self):
        hist = Histogram((10.0, 20.0))
        for v in (11.0, 12.0, 13.0, 14.0):
            hist.observe(v)
        # the ranked sample's bucket is (10, 20]; interpolation stays inside
        assert 10.0 < hist.quantile_interpolated(0.5) < 20.0

    def test_overflow_bucket_uses_observed_max(self):
        hist = Histogram((1.0,))
        hist.observe(5.0)
        assert hist.quantile_interpolated(0.99) <= 5.0

    def test_summary_shape(self):
        hist = Histogram((1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        s = hist.summary()
        assert set(s) == {"count", "sum", "mean", "max", "p50", "p95", "p99"}
        assert s["count"] == 2
        assert s["sum"] == pytest.approx(5.5)
        assert s["mean"] == pytest.approx(2.75)
        assert s["max"] == 5.0

    def test_empty_summary(self):
        s = Histogram((1.0,)).summary()
        assert s["count"] == 0
        assert s["p50"] == 0.0
