"""Tests for the quorum-shape autotuner (``repro tune``)."""

import pytest

from repro.analysis.availability import dqvl_system_availability
from repro.harness.availability import AvailabilitySimConfig, run_availability_sim
from repro.quorum import QuorumSpec
from repro.tune import (
    LatencyModel,
    TuneConfig,
    candidate_pairs,
    iqs_candidates,
    oqs_candidates,
    pareto_frontier,
    run_tune,
    score_candidate,
    tri_max_mean,
)


def nodes(n):
    return [f"n{i}" for i in range(n)]


class TestTriMax:
    def test_zero_jitter_is_zero(self):
        assert tri_max_mean(3, 0.0) == 0.0
        assert tri_max_mean(0, 5.0) == 0.0

    def test_monotone_in_quorum_size(self):
        values = [tri_max_mean(q, 5.0) for q in range(1, 8)]
        assert values == sorted(values)
        assert all(0.0 < v < 10.0 for v in values)

    def test_single_draw_mean_is_jitter(self):
        # E[triangular(0, 2j)] = j
        assert tri_max_mean(1, 5.0) == pytest.approx(5.0, abs=0.01)


class TestCandidates:
    def test_majority_pairs_all_intersect(self):
        for spec in iqs_candidates(5):
            system = spec.build(nodes(5))
            assert (
                system.read_quorum_size + system.write_quorum_size > 5
                or spec.kind in ("grid", "weighted", "single")
            )

    def test_counts(self):
        # n=5: 15 majority splits + 5 distinct grids (1x5, 2x3, 3x2,
        # 4x2, 5x1) + weighted + rowa + single = 23 IQS shapes; 3 OQS
        assert len(iqs_candidates(5)) == 23
        assert len(oqs_candidates(5)) == 3
        assert len(candidate_pairs(5, 5)) == 23 * 3

    def test_every_candidate_builds(self):
        for iqs, oqs in candidate_pairs(5, 5):
            iqs.build(nodes(5))
            oqs.build(nodes(5))


class TestScoring:
    def test_default_availability_matches_formula(self):
        delays = LatencyModel()
        score = score_candidate(
            QuorumSpec(kind="majority"), QuorumSpec(kind="rowa"),
            5, 5, read_fraction=0.9, p=0.05, delays=delays,
        )
        expected = dqvl_system_availability(
            0.1,
            QuorumSpec(kind="majority").build(nodes(5)),
            QuorumSpec(kind="rowa").build(nodes(5)),
            0.05,
        )
        assert score.availability == pytest.approx(expected)

    def test_smaller_read_quorum_is_faster_and_lighter(self):
        delays = LatencyModel(jitter_ms=5.0)
        small = score_candidate(
            QuorumSpec.parse("majority:r=2,w=4"), QuorumSpec(kind="rowa"),
            5, 5, read_fraction=0.9, p=0.05, delays=delays,
        )
        default = score_candidate(
            QuorumSpec(kind="majority"), QuorumSpec(kind="rowa"),
            5, 5, read_fraction=0.9, p=0.05, delays=delays,
        )
        assert small.latency_ms < default.latency_ms
        assert small.load < default.load
        assert small.availability < default.availability


class TestFrontier:
    def test_frontier_is_non_dominated(self):
        report = run_tune(TuneConfig())
        for a in report.frontier:
            assert not any(
                b.dominates(a) for b in report.frontier if b is not a
            )

    def test_frontier_sorted_and_deterministic(self):
        a = run_tune(TuneConfig())
        b = run_tune(TuneConfig())
        assert a.frontier_json() == b.frontier_json()
        latencies = [s.latency_ms for s in a.frontier]
        assert latencies == sorted(latencies)

    def test_a_candidate_beats_the_default_on_two_axes(self):
        report = run_tune(TuneConfig())
        assert report.dominating, "no candidate beats the paper default"
        best, axes = report.dominating[0]
        assert len(axes) >= 2
        assert report.recommended is best


class TestSimulatorAgreement:
    @pytest.mark.parametrize("iqs_spec", ["majority:r=2,w=4", "grid:3x2"])
    def test_analytic_availability_matches_simulation(self, iqs_spec):
        """The tuner's availability axis agrees with measurement within
        the documented +/- 0.05 tolerance (DESIGN.md §17)."""
        n, p, write_ratio = 5, 0.05, 0.1
        config = AvailabilitySimConfig(
            protocol="dqvl", write_ratio=write_ratio, num_replicas=n,
            p=p, epochs=120, seed=3, max_attempts=4,
            iqs_spec=iqs_spec, oqs_spec="rowa",
        )
        measured = run_availability_sim(config).availability
        analytic = dqvl_system_availability(
            write_ratio,
            QuorumSpec.parse(iqs_spec).build(nodes(n)),
            QuorumSpec.parse("rowa").build(nodes(n)),
            p,
        )
        assert measured == pytest.approx(analytic, abs=0.05)

    def test_validation_path(self):
        # num_clients stays at the default 3: the analytic model charges
        # every client WAN prices, so fewer clients would overweight the
        # one client co-located with a single-node IQS
        config = TuneConfig(validate_top=1, ops_per_client=60, epochs=60)
        report = run_tune(config, workers=1)
        # top-1 plus the default baseline row
        assert len(report.validation) == 2
        assert all(row.ok for row in report.validation)
        payload = report.to_json_obj()
        assert payload["validation"][0]["ok"] is True
