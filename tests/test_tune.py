"""Tests for the quorum-shape autotuner (``repro tune``)."""

import hashlib

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
                system.read.min_size + system.write.min_size > 5
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
        expected = dqvl_system_availability(0.1, "majority", "rowa", 5, 5, 0.05)
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


#: sha256 of ``run_tune(TuneConfig(num_edges=n, p=p, read_fraction=f))
#: .frontier_json()``, recorded before quorum shapes became expressions.
#: With p = 1/20 availabilities are exact decimals that often sit on a
#: 9th-decimal rounding tie, so any reordering of the float arithmetic
#: in the availability table shows here.
FRONTIER_SHA256 = {
    (3, 0.01, 0.5): "d49f9d1482795cd107bb81e78c40ddf3a7887c259ffd7b75ecbd1822beb49a00",
    (3, 0.01, 0.9): "a0fdf957b0b466e41ffe784986c27b671eb459b1002e2626ac2f8b934ad3b851",
    (3, 0.05, 0.5): "7ed3ddcaa563c754bc84f2671df68072a192e9ad86dee177d413c3e838fa5179",
    (3, 0.05, 0.9): "9a30fe024fcb14823f0801df0116a758790005c18eb5d50c48fe5a7bc681276d",
    (4, 0.01, 0.5): "d12c385a92f61819325fecc88cd5cfff30275337e3473c7fc9f01049f063d239",
    (4, 0.01, 0.9): "159f68fe56b12b2f84d3dfb183e8f31039f23e8be180678cd0f4af4b1d8dfec3",
    (4, 0.05, 0.5): "400c7c4221ad2e980ff19282864207a9086dc02ea1b708a29244a525887e43ae",
    (4, 0.05, 0.9): "367517d6be507d9ca87d06648876cbe2084fcc8a8f037fb264ab1ebff14e3187",
    (5, 0.01, 0.5): "9dabb5c0a421f821ec619a20f0c11281422faba844dc800a7c73b5c51051377f",
    (5, 0.01, 0.9): "da2d8dc33a686cb93357db794b4d6cf4deff63a271870b745f61d605664e7fc4",
    (5, 0.05, 0.5): "0f305c4a3a38546235c38c05335b9e8c9bf543f6c9e30a937c641feb24c1c308",
    (5, 0.05, 0.9): "91f8b8c5c3e782b480a9b76d3ce86be79b8bb587acb7ba7b1570d232401b1b3c",
    (6, 0.01, 0.5): "14a7ac06319b3fc1cf7be9f50e8780e7e93bf7c9948f0e1aafe5818ae7df9ac1",
    (6, 0.01, 0.9): "a5e0b1a41567cf42673a9d77f13e91dc2802be633acbca26ad4589019f57231b",
    (6, 0.05, 0.5): "bcb1eb7e2521d1500110b3a4ac55017bff98317381eb4e5b9ffa94f10b2e1c7e",
    (6, 0.05, 0.9): "29c4d5113795f948d8db7c2fb61ed4843a1e7f6b84f11ef49fde6825ed57f986",
    (7, 0.01, 0.5): "41abc8b460a4c1c74cd62d9ec74c06a4fe43ed0c622f12ef1272d4978e66848e",
    (7, 0.01, 0.9): "1053ef5b6b55e4fd6adec8043f4e1b17c05ac5745d5f78a55332ca5af9fdf9da",
    (7, 0.05, 0.5): "3db090ce9e711513010bb60830ecea3783d47b7ff48a97e83183aa3906956b74",
    (7, 0.05, 0.9): "42c8f3f929b88a7d606c81e824989b0cb992885a4bd9e80be14c62bbe2be1ff8",
    (9, 0.01, 0.5): "a0d565ba960523be0cab5d19fdaec3baac100219551b2a4437ba3124d20fe4e5",
    (9, 0.01, 0.9): "886469d26136ef912f7c3bfa312cda90b02fa62f50182a69e6b4bbcf6c12728a",
    (9, 0.05, 0.5): "a1812d95fe3897b8b0ff6a79593c478928fcda8047bbf2c7d6c0149f0ea46fed",
    (9, 0.05, 0.9): "ccab3639c2b8dd04f63c0362b3b483d4905628c7b341a66713da2e275cb2e6fb",
}


@pytest.mark.parametrize("n,p,f", sorted(FRONTIER_SHA256))
def test_analytic_frontier_is_pinned(n, p, f):
    frontier = run_tune(TuneConfig(num_edges=n, p=p, read_fraction=f)).frontier_json()
    assert hashlib.sha256(frontier.encode()).hexdigest() == FRONTIER_SHA256[n, p, f]


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
        analytic = dqvl_system_availability(write_ratio, iqs_spec, "rowa", n, n, p)
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
