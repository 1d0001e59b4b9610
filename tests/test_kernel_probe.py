"""Regression tests for the kernel depth sampler (repro.obs.probes).

The kernel leaves cancelled timers on its heap as tombstones until they
are popped or swept, and ``Simulator.timer_depth`` deliberately counts
them (it is the heap's occupancy, the right signal for sweep
decisions).  The probe's histogram must NOT count them: a cancel-heavy
keeper workload used to inflate ``kernel.timer_depth`` with dead
entries.  Live depth goes to the histogram; the peak tombstone backlog
is tracked separately in the ``kernel.timer_tombstones`` gauge.  The
probe reads the kernel through ``ready_depth`` / ``timer_depth`` /
``timer_tombstones`` only.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.probes import KernelProbe
from repro.sim import Simulator


def _run_cancel_storm(sim, *, timers=400, horizon_ms=1000.0):
    """Schedule a far-out timer block, then cancel almost all of it in
    one burst shortly before the first probe tick — classic renewal
    keeper churn."""
    handles = [
        sim.schedule(horizon_ms + i * 7.0, lambda: None)
        for i in range(timers)
    ]

    def storm():
        for handle in handles[: timers - 4]:
            handle.cancel()

    sim.schedule(50.0, storm)
    # keep the run alive long enough for several probe samples
    sim.schedule(horizon_ms / 2, lambda: None)


class TestCancelStorm:
    def test_histogram_sees_live_depth_not_tombstones(self):
        sim = Simulator(seed=1)
        metrics = MetricsRegistry()
        probe = KernelProbe(sim, metrics, interval_ms=100.0)
        _run_cancel_storm(sim)
        sim.run()

        assert probe.samples > 3
        hist = metrics.find("kernel.timer_depth")
        # Before the fix the storm inflated the high buckets: samples
        # taken while ~396 tombstones awaited a sweep reported depths in
        # the hundreds.  Live depth after the storm is just the probe's
        # own timer plus the few survivors.
        live_after_storm = hist.quantile(0.5)
        assert live_after_storm <= 16.0, (
            f"median sampled depth {live_after_storm} — tombstones leaked "
            "into the live-depth histogram"
        )
        assert hist.max <= 401 + 4  # pre-storm samples still see real depth

    def test_tombstone_gauge_records_peak_backlog(self):
        sim = Simulator(seed=1)
        metrics = MetricsRegistry()
        KernelProbe(sim, metrics, interval_ms=100.0)
        _run_cancel_storm(sim)
        sim.run()

        gauge = metrics.find("kernel.timer_tombstones")
        assert gauge is not None
        # the storm cancels 396 timers, short of the sweep floor, so the
        # next sample sees every one of them
        assert gauge.value == 396.0

    def test_quiet_workload_reports_zero_tombstones(self):
        sim = Simulator(seed=1)
        metrics = MetricsRegistry()
        probe = KernelProbe(sim, metrics, interval_ms=100.0)
        for i in range(10):
            sim.schedule(100.0 * i + 5.0, lambda: None)
        sim.run()

        assert probe.samples > 0
        assert metrics.find("kernel.timer_tombstones").value == 0.0

    def test_live_depth_is_exact_through_a_sweep(self):
        """A storm big enough to trigger the kernel's tombstone sweep:
        tombstones never exceed occupancy, so every sample after the
        storm reads exactly the survivors plus the probe's own timer."""
        sim = Simulator(seed=1)
        metrics = MetricsRegistry()
        probe = KernelProbe(sim, metrics, interval_ms=100.0)
        _run_cancel_storm(sim, timers=1500)
        seen = []
        sim.schedule(450.0, lambda: seen.append(
            sim.timer_depth - sim.timer_tombstones))
        sim.run()
        # 4 survivors + the next probe tick + the t=500 keep-alive
        assert seen == [4 + 1 + 1]
        hist = metrics.find("kernel.timer_depth")
        assert hist.count == probe.samples
        assert metrics.find("kernel.timer_tombstones").value < 1500 - 4

    def test_probe_still_stops_with_the_simulation(self):
        """The reschedule condition keys off raw heap occupancy, so the
        probe keeps sampling while only tombstones remain (they are
        popped as the clock passes them) but stops once the heap truly
        drains."""
        sim = Simulator(seed=1)
        metrics = MetricsRegistry()
        probe = KernelProbe(sim, metrics, interval_ms=100.0)
        sim.schedule(250.0, lambda: None)
        sim.run()
        final_now = sim.now
        assert probe.samples >= 2
        # no self-perpetuating probe: the sim drained
        assert sim.timer_depth == 0
        assert final_now < 1000.0
