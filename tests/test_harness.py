"""Tests for the experiment harness: metrics, runner, reporting."""

import pytest

from repro.consistency import History
from repro.harness import (
    ExperimentConfig,
    LatencyStats,
    format_series,
    format_table,
    log_axis_note,
    run_response_time,
    summarize,
)
from repro.types import ZERO_LC, LogicalClock, Op


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_basic_stats(self):
        stats = LatencyStats.from_samples([10.0, 20.0, 30.0, 40.0])
        assert stats.count == 4
        assert stats.mean == 25.0
        assert stats.median == 20.0
        assert stats.maximum == 40.0

    def test_p95(self):
        samples = list(range(1, 101))
        stats = LatencyStats.from_samples([float(s) for s in samples])
        assert stats.p95 == 95.0


class TestSummarize:
    def make_history(self):
        h = History()
        lc = LogicalClock(1, "c")
        h.ops = [
            Op("read", "x", "v", lc, 0.0, 10.0, "c", hit=True),
            Op("read", "x", "v", lc, 10.0, 30.0, "c", hit=False),
            Op("write", "x", "v", lc, 30.0, 70.0, "c"),
            Op("read", "x", None, ZERO_LC, 70.0, 80.0, "c", ok=False),
        ]
        return h

    def test_summary_fields(self):
        s = summarize(self.make_history())
        assert s.reads.count == 2
        assert s.reads.mean == 15.0
        assert s.writes.mean == 40.0
        assert s.overall.count == 3
        assert s.read_hit_rate == 0.5
        assert s.failures == 1
        assert s.availability == 0.75

    def test_hit_rate_none_without_hits(self):
        h = History()
        h.ops.append(Op("read", "x", "v", LogicalClock(1, "c"), 0, 10, "c"))
        assert summarize(h).read_hit_rate is None

    def test_empty_history(self):
        s = summarize(History())
        assert s.availability == 1.0
        assert s.overall.count == 0


class TestRunner:
    def test_deterministic_across_runs(self):
        cfg = dict(protocol="dqvl", write_ratio=0.2, ops_per_client=30,
                   warmup_ops=5, seed=42)
        r1 = run_response_time(ExperimentConfig(**cfg))
        r2 = run_response_time(ExperimentConfig(**cfg))
        assert r1.summary.overall.mean == r2.summary.overall.mean
        assert r1.protocol_messages == r2.protocol_messages

    def test_seed_changes_results(self):
        base = dict(protocol="dqvl", write_ratio=0.3, ops_per_client=30, warmup_ops=5)
        r1 = run_response_time(ExperimentConfig(seed=1, **base))
        r2 = run_response_time(ExperimentConfig(seed=2, **base))
        assert r1.history.ops != r2.history.ops

    def test_all_ops_counted(self):
        cfg = ExperimentConfig(
            protocol="rowa", write_ratio=0.5, ops_per_client=25,
            warmup_ops=5, num_clients=3, seed=0,
        )
        res = run_response_time(cfg)
        assert len(res.history) == 75
        assert len(res.warmup_history) == 15
        assert len(res.full_history()) == 90
        assert res.total_requests == 75

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            ExperimentConfig(protocol="chain-replication")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="telepathy")

    def test_one_edge_refuses_locality_below_one(self):
        # no distant edge to redirect to, in either mode
        for mode in ("direct", "frontend"):
            config = ExperimentConfig(
                protocol="rowa", num_edges=1, num_clients=1, locality=0.5,
                ops_per_client=1, warmup_ops=0, mode=mode,
            )
            with pytest.raises(ValueError, match="at least two"):
                run_response_time(config)

    def test_frontend_mode_runs(self):
        cfg = ExperimentConfig(
            protocol="majority", mode="frontend", ops_per_client=10,
            warmup_ops=2, seed=3,
        )
        res = run_response_time(cfg)
        assert res.summary.overall.count == 30

    def test_bursty_stream_config(self):
        cfg = ExperimentConfig(
            protocol="dqvl", write_ratio=0.3, mean_write_burst=5.0,
            ops_per_client=40, warmup_ops=5, seed=4,
        )
        res = run_response_time(cfg)
        assert res.summary.overall.count == 120

    def test_locality_slows_dqvl_reads(self):
        base = dict(protocol="dqvl", write_ratio=0.05, ops_per_client=60,
                    warmup_ops=10, seed=5)
        high = run_response_time(ExperimentConfig(locality=1.0, **base))
        low = run_response_time(ExperimentConfig(locality=0.3, **base))
        assert low.summary.reads.mean > high.summary.reads.mean


class TestRunEndsWithItsWorkload:
    """A run stops at the instant its last client settles: no cold-tail
    renewals or gossip are simulated, or billed to the operations."""

    BASE = dict(write_ratio=0.2, locality=0.9, ops_per_client=20,
                warmup_ops=5, seed=9)

    @pytest.mark.parametrize(
        "protocol", ["dqvl", "majority", "rowa", "primary_backup", "rowa_async"]
    )
    def test_sim_time_is_the_last_operation(self, protocol):
        res = run_response_time(ExperimentConfig(protocol=protocol, **self.BASE))
        ops = res.history.ops + res.warmup_history.ops
        assert res.sim_time_ms == max(op.end for op in ops)
        assert res.sim_time_ms < res.config.time_limit_ms

    @pytest.mark.parametrize("protocol", ["dqvl", "rowa_async"])
    def test_messages_after_the_last_op_are_not_counted(self, protocol):
        whole = run_response_time(ExperimentConfig(protocol=protocol, **self.BASE))
        last = max(op.end for op in whole.history.ops + whole.warmup_history.ops)
        cut = run_response_time(ExperimentConfig(
            protocol=protocol, time_limit_ms=last + 1.0, **self.BASE
        ))
        assert cut.history.ops == whole.history.ops
        assert cut.protocol_messages == whole.protocol_messages

    def test_time_limit_still_reports_unfinished_clients(self):
        with pytest.raises(RuntimeError, match="unfinished"):
            run_response_time(ExperimentConfig(
                protocol="majority", time_limit_ms=500.0, **self.BASE
            ))

    def test_a_failing_client_surfaces_its_own_exception(self, monkeypatch):
        from repro.harness import experiment

        def broken_read(self, key):
            raise ValueError("client bug")
            yield

        monkeypatch.setattr(experiment.RedirectedClient, "read", broken_read)
        with pytest.raises(ValueError, match="client bug"):
            run_response_time(ExperimentConfig(
                protocol="majority", write_ratio=0.0, ops_per_client=5,
                warmup_ops=1, seed=1,
            ))


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"],
            [["dqvl", 12.5], ["rowa", 3.0]],
            title="demo",
        )
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_scientific_for_tiny(self):
        table = format_table(["u"], [[1.2e-9]])
        assert "e-09" in table

    def test_format_series(self):
        out = format_series(
            "w", [0.1, 0.5], [("dqvl", [1.0, 2.0]), ("rowa", [3.0, 4.0])]
        )
        lines = out.splitlines()
        assert lines[0].split() == ["w", "dqvl", "rowa"]
        assert lines[2].split() == ["0.1", "1", "3"]

    def test_log_axis_note(self):
        note = log_axis_note([1e-9, 1e-2])
        assert "1e-9" in note and "1e-2" in note
        assert log_axis_note([]) == "(all values zero)"
