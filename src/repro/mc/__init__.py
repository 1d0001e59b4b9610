"""Schedule-space exploration (a mini model checker) for the sim kernel.

Where the chaos engine (:mod:`repro.chaos`) samples *fault schedules*
randomly, this package searches *event schedules* systematically: a
:class:`~repro.sim.kernel.ScheduleController` installed on the kernel
decides which of several same-instant events runs next and how long
each network delivery is deferred, turning every run into a replayable
list of small integers.  Bounded DFS (optionally with partial-order
reduction, :mod:`repro.mc.por`) and seeded random walks search that
choice space under a run budget, a per-schedule oracle stack (invariant
monitor + regular-register history checker + workload liveness +
schedule-aware liveness oracles, :mod:`repro.mc.liveness`) judges each
schedule, and violating schedules are ddmin-minimised and persisted to
``tests/mc_corpus/`` as byte-replayable repros.

Stable facade
-------------
This module is the package's public API; the signatures below are kept
backward-compatible (new parameters arrive keyword-only with defaults):

``run_schedule(config, choices=(), *, fallback=None, footprint_depth=0) -> McRunResult``
    Execute one controlled run; a pure function of ``(config, choices)``.
    ``footprint_depth`` is how many leading decisions carry POR
    footprints (the DFS passes its ``max_depth``); it never changes the run.

``explore(config, *, strategy="walk", budget=500, p_deviate=0.15,
max_depth=40, shrink=True, shrink_budget=200, por=False) -> ExploreResult``
    Bounded search for a violating schedule; ``por=True`` enables
    partial-order reduction for the ``dfs`` strategy.

``explore_sweep_edges(config, edges, *, por=True, **explore_kwargs) -> list[ExploreResult]``
    One exploration per cluster size; early-stops on the first witness.

``crosscheck_por(config, *, max_depth=6, budget=5000) -> dict``
    Exhaustive pruned-vs-full outcome-set equivalence check.

``ExploreResult``
    Carries ``runs``/``pruned``/``witness``/``shrunk``; round-trips via
    ``to_json()``/``from_json()`` (deserialisation re-executes the
    stored choices, so outcomes are always re-validated).

``save_mc_repro / load_mc_repro / replay_mc_repro``
    Corpus persistence (format :data:`MC_REPRO_FORMAT`).

Entry points: ``repro explore`` (CLI), DESIGN.md §12–§13 (design notes).
"""

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "controller": ("Decision", "RecordingController", "walk_policy"),
    "runner": ("McRunConfig", "McRunResult", "run_schedule"),
    "explore": (
        "STRATEGIES", "ExploreResult", "explore", "explore_sweep_edges",
        "crosscheck_por", "shrink_choices",
    ),
    "por": ("Footprint", "UNIVERSAL", "footprint_of", "independent"),
    "liveness": ("LivenessMonitor",),
    "corpus": (
        "MC_REPRO_FORMAT", "save_mc_repro", "load_mc_repro", "replay_mc_repro",
    ),
})
