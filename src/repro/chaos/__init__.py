"""Chaos campaign engine: composable nemesis faults, invariant checking,
and failing-schedule shrinking.

The paper's headline claim is that DQVL preserves regular register
semantics *while* nodes crash, links partition, and messages are lost.
This package turns that claim into a permanent correctness harness:

* :mod:`repro.chaos.faults` — a declarative, JSON-serialisable fault
  timeline (:class:`FaultSchedule`) covering crash/restart, overlapping
  partitions, loss/duplication bursts, gray failures (slow nodes,
  degraded links), and bounded clock drift;
* :mod:`repro.chaos.nemesis` — seed-deterministic generators that
  compose random fault timelines from a campaign config;
* :mod:`repro.chaos.invariants` — an online monitor checking protocol
  invariants (no read served on an expired volume/object lease, epoch
  monotonicity, logical-clock monotonicity) *during* the run;
* :mod:`repro.chaos.campaign` — the runner: one randomized chaos run per
  (protocol, seed, nemeses) config, checked with
  :func:`~repro.consistency.regular.check_regular` plus the monitor,
  fanned out via the PR-1 sweep infrastructure;
* :mod:`repro.chaos.weaken` — deliberately broken protocol variants used
  to prove the harness *detects* bugs;
* :mod:`repro.chaos.shrink` — a delta-debugging shrinker minimizing a
  violating schedule to a small replayable repro for
  ``tests/chaos_corpus/``.

Determinism contract: a chaos run is a pure function of its
:class:`~repro.chaos.campaign.ChaosRunConfig` — the same config yields
the same schedule, the same execution, and the same violation report, in
any process (generator seeding uses ``zlib.crc32``, never Python's
per-process-salted ``hash``).
"""

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "faults": ("Fault", "FaultSchedule"),
    "nemesis": ("NEMESES", "build_schedule"),
    "invariants": ("InvariantMonitor", "InvariantViolation"),
    "campaign": (
        "ChaosRunConfig", "ChaosRunResult", "run_chaos", "run_campaign",
    ),
    "weaken": ("WEAKENERS", "apply_weakener"),
    "shrink": ("ShrinkResult", "shrink_schedule", "save_repro", "load_repro"),
})
