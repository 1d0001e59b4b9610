"""Tests for the repro.mc explorer: runner, strategies, shrinking.

The expensive end-to-end properties (weakened DQVL found within budget,
healthy protocols clean over a large budget) are CI's ``mc-smoke`` job;
here each moving part is exercised at small budgets.
"""

import pytest

from repro.edge.deployments import Deployment
from repro.mc import (
    McRunConfig,
    RecordingController,
    explore,
    run_schedule,
    save_mc_repro,
    shrink_choices,
    walk_policy,
)
from repro.mc import runner as mc_runner
from repro.mc.corpus import load_mc_repro, replay_mc_repro


class TestRecordingController:
    def test_forced_prefix_then_canonical(self):
        ctl = RecordingController([2, 1])
        assert ctl.choose_event(3) == 2
        assert ctl.choose_event(3) == 1
        assert ctl.choose_event(3) == 0  # past the prefix: canonical
        assert [d.chosen for d in ctl.decisions] == [2, 1, 0]

    def test_out_of_range_forced_choice_is_clamped(self):
        ctl = RecordingController([99, -5])
        assert ctl.choose_event(2) == 1
        assert ctl.choose_event(2) == 0
        # the *clamped* value is what gets recorded (replayable as-is)
        assert [d.chosen for d in ctl.decisions] == [1, 0]

    def test_delivery_choice_defers_by_quantum(self):
        ctl = RecordingController([1], defer_ms=100.0, max_defer=2)
        assert ctl.message_delay(None, 8.0) == pytest.approx(108.0)
        assert ctl.message_delay(None, 8.0) == pytest.approx(8.0)
        assert [d.kind for d in ctl.decisions] == ["deliver", "deliver"]
        assert [d.n for d in ctl.decisions] == [3, 3]

    def test_max_defer_zero_records_no_delivery_decisions(self):
        ctl = RecordingController(max_defer=0)
        assert ctl.message_delay(None, 8.0) == 8.0
        assert ctl.decisions == []

    def test_validation(self):
        with pytest.raises(ValueError):
            RecordingController(defer_ms=-1.0)
        with pytest.raises(ValueError):
            RecordingController(max_defer=-1)

    def test_walk_policy_is_seed_deterministic(self):
        a = walk_policy("s:1", 0.5)
        b = walk_policy("s:1", 0.5)
        assert [a("event", 4) for _ in range(50)] == \
               [b("event", 4) for _ in range(50)]
        never = walk_policy("s:2", 0.0)
        assert all(never("event", 4) == 0 for _ in range(20))


class TestRunSchedule:
    def test_replay_is_byte_identical(self):
        config = McRunConfig()
        first = run_schedule(config)
        second = run_schedule(config)
        assert first.trace_text == second.trace_text
        assert not first.violations and first.stats["ops_recorded"] > 0

    def test_forced_choices_change_the_run_but_stay_deterministic(self):
        config = McRunConfig()
        base = run_schedule(config)
        # defer the first few deliveries: different trace, same determinism
        forced = [1] * 5
        deviated = run_schedule(config, forced)
        assert deviated.trace_text != base.trace_text
        assert deviated.trace_text == run_schedule(config, forced).trace_text

    def test_weakened_canonical_run_violates(self):
        """skip_write_invalidation breaks on the canonical schedule —
        the explorer's run 0 already catches it."""
        result = run_schedule(McRunConfig(weaken="skip_write_invalidation"))
        assert {v["type"] for v in result.violations} == {"regular"}

    @pytest.mark.parametrize(
        "protocol", ["majority", "rowa", "primary_backup", "rowa_async", "basic_dq"]
    )
    def test_every_protocol_builds_and_runs_the_canonical_schedule(self, protocol):
        """The pinned 400 / 6,400 ms QRPC schedule is an override only
        the dual-quorum deployments take (``majority`` raised before)."""
        result = run_schedule(McRunConfig(protocol=protocol))
        assert not result.violations, result.violations
        assert result.stats["ops_recorded"] == 12 and result.stats["ops_failed"] == 0

    def test_decisions_read_mid_run_are_the_finalized_ones_without_footprints(
        self, monkeypatch
    ):
        """Decisions are recorded as tuples and built once, at the end;
        reading ``decisions`` before that builds them without footprints."""
        seen = []

        class Snooping(RecordingController):
            def message_delay(self, message, delay):
                seen.append(self.decisions)
                return super().message_delay(message, delay)

        monkeypatch.setattr(mc_runner, "RecordingController", Snooping)
        final = run_schedule(McRunConfig(), footprint_depth=40).decisions
        assert any(d.footprints for d in final)
        stripped = [d._replace(footprints=None) for d in final]
        assert len(seen) > 100 and len(seen[-1]) > 40
        for snapshot in seen:
            assert snapshot == stripped[:len(snapshot)]

    def test_a_client_error_is_raised_not_reported_clean(self, monkeypatch):
        """A client whose own code raised is done, but the run must not
        call that schedule clean: the error reaches the caller, as in a
        chaos run."""
        direct_client = Deployment.direct_client

        def with_broken_reads(deployment, client_index):
            client = direct_client(deployment, client_index)

            def read(key):
                raise RuntimeError("client bug")
                yield  # a generator, like every protocol client's read

            client.read = read
            return client

        monkeypatch.setattr(Deployment, "direct_client", with_broken_reads)
        with pytest.raises(RuntimeError, match="client bug"):
            run_schedule(McRunConfig())

    def test_config_validation_shared_with_chaos(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            McRunConfig(protocol="nope")
        with pytest.raises(ValueError, match="unknown weakener"):
            McRunConfig(weaken="nope")


class TestExplore:
    def test_walk_finds_weakened_violation_and_shrinks(self):
        result = explore(
            McRunConfig(weaken="ignore_volume_expiry"),
            strategy="walk", budget=50,
        )
        assert not result.ok
        assert result.witness is not None
        assert result.shrunk.violations
        # ddmin re-validates by re-execution, so the shrunk choice list
        # must reproduce standalone
        rerun = run_schedule(result.config, result.shrunk.choices)
        assert rerun.violations
        assert result.shrunk.stats["deviations"] <= result.witness.stats["deviations"]

    def test_healthy_walk_budget_is_clean(self):
        result = explore(McRunConfig(), strategy="walk", budget=15)
        assert result.ok and result.runs == 15 and result.shrunk is None

    def test_dfs_probes_canonical_schedule_first(self):
        result = explore(
            McRunConfig(weaken="skip_write_invalidation"),
            strategy="dfs", budget=10,
        )
        assert not result.ok
        assert result.runs == 1  # canonical == the empty prefix
        assert result.shrunk.stats["deviations"] == 0

    def test_dfs_enumerates_distinct_prefixes(self):
        result = explore(
            McRunConfig(), strategy="dfs", budget=12, max_depth=5, shrink=False
        )
        assert result.ok and result.runs == 12

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            explore(McRunConfig(), strategy="bfs")
        with pytest.raises(ValueError, match="budget"):
            explore(McRunConfig(), budget=0)
        with pytest.raises(ValueError, match="max_depth"):
            explore(McRunConfig(), strategy="dfs", max_depth=-1)
        for p_deviate in (-0.1, 3.0, float("nan")):
            with pytest.raises(ValueError, match="p_deviate"):
                explore(McRunConfig(), p_deviate=p_deviate)


class TestShrinkAndCorpus:
    def _witness(self):
        return explore(
            McRunConfig(weaken="ignore_volume_expiry"),
            strategy="walk", budget=50, shrink=False,
        )

    def test_shrink_respects_budget(self):
        result = self._witness()
        shrunk, runs = shrink_choices(result.config, result.witness, max_runs=3)
        # ddmin may finish the probe pair it started plus the final
        # re-validation, but never a whole extra round
        assert runs <= 3 + 3
        assert shrunk.violations

    def test_save_load_roundtrip(self, tmp_path):
        result = self._witness()
        result.shrunk = result.witness
        path = save_mc_repro(result, str(tmp_path))
        assert path.endswith("dqvl_seed0_ignore_volume_expiry.json")
        config, choices, expected = load_mc_repro(path)
        assert config == result.config
        assert expected == result.witness.expected_types
        replay = run_schedule(config, choices)
        assert {v["type"] for v in replay.violations} >= set(expected)

    def test_save_without_witness_rejected(self, tmp_path):
        clean = explore(McRunConfig(), strategy="walk", budget=2)
        with pytest.raises(ValueError, match="no violation"):
            save_mc_repro(clean, str(tmp_path))

    def test_unknown_format_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": 99}')
        with pytest.raises(ValueError, match="unsupported mc repro format"):
            load_mc_repro(str(bad))

    def test_healthy_replay_strips_weakener(self, tmp_path):
        result = self._witness()
        result.shrunk = result.witness
        path = save_mc_repro(result, str(tmp_path))
        healthy = replay_mc_repro(path, healthy=True)
        assert not healthy.violations
