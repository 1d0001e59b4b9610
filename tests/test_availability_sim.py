"""Tests for the measured-availability harness (Figure 8 cross-check)."""

import pytest

from repro.analysis import protocol_unavailability
from repro.consistency.regular import check_regular
from repro.harness.availability import (
    AvailabilitySimConfig,
    AvailabilitySimResult,
    run_availability_sim,
)

# A high per-node failure probability so a short simulation produces
# statistically meaningful rejection counts.
P = 0.15
N = 5
W = 0.25


def run(protocol, epochs=120, seed=3, p=P):
    return run_availability_sim(
        AvailabilitySimConfig(
            protocol=protocol,
            write_ratio=W,
            num_replicas=N,
            p=p,
            epochs=epochs,
            seed=seed,
        )
    )


class TestConfigValidation:
    def test_unknown_protocol(self):
        with pytest.raises(KeyError):
            AvailabilitySimConfig(protocol="chain")

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            AvailabilitySimConfig(p=1.5)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            AvailabilitySimConfig(epochs=0)


class TestPerfectConditions:
    @pytest.mark.parametrize("protocol", ["dqvl", "majority", "rowa", "rowa_async"])
    def test_no_failures_means_full_availability(self, protocol):
        result = run(protocol, epochs=10, seed=1, p=0.0)
        assert result.total_requests > 0
        assert result.unavailability == 0.0


class TestMeasuredShapes:
    """The Figure 8 claims, verified on measured (not analytic) numbers."""

    def test_majority_matches_analytic(self):
        result = run("majority")
        analytic = protocol_unavailability("majority", W, N, P)
        assert result.unavailability == pytest.approx(analytic, rel=0.8)

    def test_dqvl_tracks_majority_and_lease_masking(self):
        """DQVL's measured unavailability is close to the majority's —
        and no worse than its own *pessimistic* analytic bound: the paper
        notes valid leases mask failures shorter than the lease."""
        dqvl = run("dqvl")
        majority = run("majority")
        analytic = protocol_unavailability("dqvl", W, N, P)
        assert dqvl.unavailability <= analytic * 1.5
        assert dqvl.unavailability == pytest.approx(
            majority.unavailability, abs=0.03
        )

    def test_rowa_writes_suffer(self):
        """ROWA's unavailability is dominated by its write-all path."""
        rowa = run("rowa")
        majority = run("majority")
        assert rowa.unavailability > 2.0 * majority.unavailability

    def test_primary_backup_pinned_to_primary(self):
        result = run("primary_backup")
        # about p, far above the quorum protocols
        assert 0.5 * P <= result.unavailability <= 1.2 * P

    def test_rowa_async_stale_vs_no_stale(self):
        """Counting stale reads as rejections (the fair comparison)
        costs ROWA-Async a large availability factor."""
        stale_ok = run("rowa_async")
        no_stale = run("rowa_async_no_stale")
        assert no_stale.total_requests == stale_ok.total_requests
        assert no_stale.unavailability > 3.0 * stale_ok.unavailability

    def test_determinism(self):
        a = run("majority", epochs=40)
        b = run("majority", epochs=40)
        assert a.unavailability == b.unavailability
        assert a.total_requests == b.total_requests

    def test_result_accessors(self):
        result = run("rowa_async_no_stale", epochs=30)
        assert isinstance(result, AvailabilitySimResult)
        assert result.rejected + result.stale_rejected >= result.stale_rejected
        assert 0.0 <= result.availability <= 1.0
        assert result.availability == pytest.approx(1 - result.unavailability)


class TestHistoriesAreCheckable:
    """A rejected write may still have reached some replicas, so its
    record keeps the attempted value and a later read of that value is
    explained.  Without it, ROWA's histories at seed 0 read as 604
    regularity violations and majority's at seed 5 as 8."""

    @pytest.mark.parametrize("protocol,seed", [
        ("rowa", 0), ("majority", 0), ("majority", 5),
    ])
    def test_regular(self, protocol, seed):
        result = run_availability_sim(AvailabilitySimConfig(
            protocol=protocol, epochs=40, p=0.15, seed=seed,
        ))
        assert any(op.kind == "write" and not op.ok for op in result.history)
        assert check_regular(result.history) == []
