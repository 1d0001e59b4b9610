"""End-to-end acceptance for the resilience layer: under a crash-storm
nemesis, DQVL with resilience serves strictly more successful reads than
baseline, every degraded read is within its advertised staleness bound,
and same-seed runs are byte-identical.

The campaign parameters here are the decisive ones: a tight client
retry budget (2 attempts) and a 20 s fault horizon make the baseline
actually drop reads during crash windows, so "strictly more" is a real
comparison rather than 0-vs-0.
"""

import math

import pytest

from repro.chaos.campaign import ChaosRunConfig, run_chaos

SEEDS = range(5)


def storm_config(seed, resilience, **overrides):
    kwargs = dict(
        protocol="dqvl",
        seed=seed,
        nemeses=("crash_storm",),
        horizon_ms=20_000.0,
        client_max_attempts=2,
        mode="frontend",
        resilience=resilience,
    )
    kwargs.update(overrides)
    return ChaosRunConfig(**kwargs)


@pytest.fixture(scope="module")
def storm_results():
    """Baseline and resilience runs for every seed (computed once)."""
    out = {}
    for seed in SEEDS:
        out[seed] = (
            run_chaos(storm_config(seed, resilience=False)),
            run_chaos(storm_config(seed, resilience=True)),
        )
    return out


class TestAvailabilityUnderCrashStorm:
    def test_no_violations_in_either_mode(self, storm_results):
        for seed, (base, resil) in storm_results.items():
            assert base.violations == [], f"seed {seed} baseline: {base.violations}"
            assert resil.violations == [], f"seed {seed} resilience: {resil.violations}"

    def test_resilience_serves_strictly_more_successful_reads(self, storm_results):
        for seed, (base, resil) in storm_results.items():
            b = base.stats["availability"]
            r = resil.stats["availability"]
            assert r["reads_successful"] > b["reads_successful"], (
                f"seed {seed}: resilience {r['reads_successful']} <= "
                f"baseline {b['reads_successful']}"
            )

    @pytest.mark.parametrize("seed", [24, 109])
    def test_resilience_never_serves_fewer_reads(self, seed):
        """Seeds where a front end that refused storage attempts after
        recent failures served fewer reads than the baseline; a front
        end that always tries storage first does not."""
        base = run_chaos(storm_config(seed, resilience=False))
        resil = run_chaos(storm_config(seed, resilience=True))
        assert base.violations == [] and resil.violations == []
        b = base.stats["availability"]["reads_successful"]
        r = resil.stats["availability"]["reads_successful"]
        assert r >= b, f"seed {seed}: resilience {r} < baseline {b}"

    def test_degraded_reads_are_counted_separately_and_in_bound(self, storm_results):
        some_degraded = False
        for seed, (base, resil) in storm_results.items():
            b = base.stats["availability"]
            r = resil.stats["availability"]
            assert b["reads_degraded"] == 0  # baseline has no degraded mode
            assert (
                r["reads_successful"]
                == r["reads_healthy"] + r["reads_degraded"]
            )
            stale = r["degraded_staleness_ms"]
            assert stale["count"] == r["reads_degraded"]
            if r["reads_degraded"]:
                some_degraded = True
                assert stale["max"] <= 8_000.0  # the advertised bound
        # The decisive config actually exercises degraded serving
        # somewhere across the seed battery.
        assert some_degraded

    def test_availability_report_structure(self, storm_results):
        base, resil = storm_results[0]
        avail = resil.stats["availability"]
        fe = avail["front_ends"]
        assert fe["requests_served"] > 0
        res = avail["resilience"]
        for key in ("suspicions", "hedges_sent", "adaptive_rounds",
                    "catchups_started"):
            assert res[key] >= 0
        assert avail["timeline"], "one entry per fault window expected"
        for entry in avail["timeline"]:
            assert set(entry) >= {
                "fault", "start", "end", "reads_healthy", "reads_degraded",
                "reads_failed", "writes_ok", "writes_failed",
            }
        # Baseline reports the same shape with the resilience layer off.
        assert base.stats["availability"]["resilience"]["hedges_sent"] == 0


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        a = run_chaos(storm_config(1, resilience=True, trace=True))
        b = run_chaos(storm_config(1, resilience=True, trace=True))
        assert a.trace_jsonl == b.trace_jsonl
        assert a.trace_chrome == b.trace_chrome
        assert a.stats == b.stats
        assert a.violations == b.violations

    def test_resilience_does_not_perturb_the_baseline_stream(self):
        """The layer draws from dedicated streams only: a baseline run
        is byte-identical whether or not the resilience code exists in
        the process (regression guard: compare two baseline runs
        bracketing a resilience run)."""
        a = run_chaos(storm_config(2, resilience=False, trace=True))
        run_chaos(storm_config(2, resilience=True))
        b = run_chaos(storm_config(2, resilience=False, trace=True))
        assert a.trace_jsonl == b.trace_jsonl


class TestConfigValidation:
    def test_mode_must_be_known(self):
        with pytest.raises(ValueError, match="mode"):
            ChaosRunConfig(mode="proxy")

    def test_resilience_requires_a_dq_protocol(self):
        with pytest.raises(ValueError, match="resilience"):
            ChaosRunConfig(protocol="majority", resilience=True)

    def test_qrpc_overrides_require_a_dq_protocol(self):
        with pytest.raises(ValueError, match="qrpc"):
            ChaosRunConfig(protocol="majority", qrpc_initial_timeout_ms=100.0)

    def test_qrpc_cap_not_below_initial(self):
        with pytest.raises(ValueError, match="qrpc_max_timeout_ms"):
            ChaosRunConfig(
                qrpc_initial_timeout_ms=500.0, qrpc_max_timeout_ms=100.0
            )

    @pytest.mark.parametrize("timeout", [math.nan, math.inf])
    def test_qrpc_timeouts_must_be_finite(self, timeout):
        """A NaN first timeout crashed the run, an infinite one hung it,
        and a NaN cap silently removed the backoff cap."""
        with pytest.raises(ValueError, match="qrpc_initial_timeout_ms must be positive and finite"):
            ChaosRunConfig(qrpc_initial_timeout_ms=timeout)
        for initial in (None, 500.0):
            with pytest.raises(ValueError, match="qrpc_max_timeout_ms must be finite"):
                ChaosRunConfig(qrpc_initial_timeout_ms=initial, qrpc_max_timeout_ms=timeout)
