"""Parallel execution of experiment sweeps.

Every figure and ablation is a *sweep*: dozens of independent
:class:`~repro.harness.experiment.ExperimentConfig` (or availability,
chaos, CDN) points whose results are pure functions of the config.
:func:`run_sweep` is an ordered parallel map over them: it fans the
points across a ``concurrent.futures.ProcessPoolExecutor`` (the
simulator is single-threaded CPU-bound Python, so processes, not
threads) and returns one point per config, in config order.  The worker
count comes from the ``REPRO_SWEEP_WORKERS`` environment variable,
defaulting to ``os.cpu_count()``; it changes wall-clock time only, never
a result.

There is deliberately no result cache: a point costs 0.1–0.7 s, the
largest sweep in the tree a few seconds, and a second result path has to
be kept equal to the first (DESIGN.md §10).

Points are what crosses the process boundary, and a point is the
runner's own result without its world: an experiment or CDN result
without its history, deployment and observability context, an
availability result without its history, a chaos result as it is.
Anything a bench needs from that world must be read in the worker by
the ``collect`` callback, which receives the full result and returns a
dict exposed as ``point.extras``.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import pickle
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Union

from .experiment import ExperimentConfig, ExperimentResult, run_response_time

if TYPE_CHECKING:  # each kind's runner loads only when a sweep runs that kind
    from ..chaos.campaign import ChaosRunConfig, ChaosRunResult
    from ..edge.cdn import CdnResult, CdnScenarioConfig
    from .availability import AvailabilitySimConfig, AvailabilitySimResult

__all__ = ["run_sweep", "sweep_workers"]

logger = logging.getLogger("repro.harness.sweeps")

Collect = Optional[Callable[[Any], Dict[str, Any]]]

SweepPoint = Union[
    ExperimentResult, "CdnResult", "AvailabilitySimResult", "ChaosRunResult"
]


def sweep_workers() -> int:
    """Worker-process count (``REPRO_SWEEP_WORKERS`` overrides)."""
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            logger.warning(
                "ignoring non-numeric REPRO_SWEEP_WORKERS=%r", env
            )
    return os.cpu_count() or 1


# -- point computation (runs in worker processes) -----------------------------

def _without_world(result: Any, collect: Collect, **world: None) -> Any:
    """*result* without its history, deployment and observability
    context (and any other *world* field), plus what *collect* read off
    them."""
    return dataclasses.replace(
        result, history=None, deployment=None, obs=None, **world,
        extras=collect(result) if collect is not None else {},
    )


def _response_point(config: ExperimentConfig, collect: Collect) -> ExperimentResult:
    return _without_world(run_response_time(config), collect, warmup_history=None)


def _cdn_point(config: CdnScenarioConfig, collect: Collect) -> CdnResult:
    from ..edge.cdn import run_cdn

    return _without_world(run_cdn(config), collect)


def _availability_point(
    config: AvailabilitySimConfig, collect: Collect
) -> AvailabilitySimResult:
    from .availability import run_availability_sim

    # callers read the counters; the history (every operation of the
    # run) stays in the worker
    return dataclasses.replace(run_availability_sim(config), history=None)


def _chaos_point(config: ChaosRunConfig, collect: Collect) -> ChaosRunResult:
    from ..chaos.campaign import run_chaos

    return run_chaos(config)


def _runner(config: Any) -> Callable[[Any, Collect], SweepPoint]:
    """The function that runs *config*'s kind of point — the one place
    that knows which kinds a sweep takes."""
    if isinstance(config, ExperimentConfig):
        return _response_point
    from ..chaos.campaign import ChaosRunConfig
    from ..edge.cdn import CdnScenarioConfig
    from .availability import AvailabilitySimConfig

    for config_type, runner in (
        (CdnScenarioConfig, _cdn_point),
        (AvailabilitySimConfig, _availability_point),
        (ChaosRunConfig, _chaos_point),
    ):
        if isinstance(config, config_type):
            return runner
    raise TypeError(
        f"run_sweep takes ExperimentConfig, AvailabilitySimConfig, "
        f"ChaosRunConfig or CdnScenarioConfig, got {type(config).__name__}"
    )


def _run_point(config: Any, collect: Collect) -> SweepPoint:
    return _runner(config)(config, collect)


def _picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:  # noqa: BLE001 - any pickling failure means "no"
        return False


# -- the runner ----------------------------------------------------------------

def run_sweep(
    configs: Sequence[Any],
    *,
    collect: Collect = None,
    workers: Optional[int] = None,
) -> List[SweepPoint]:
    """Run every config point, in parallel; one point per config, in
    config order.  The four config kinds may be mixed freely — each
    point dispatches on its config type, and a foreign config is a
    ``TypeError`` before anything runs.

    Parameters
    ----------
    collect:
        Optional ``fn(full_result) -> dict`` evaluated in the worker,
        for bench-specific counters a response or CDN point leaves
        behind with its world (e.g. write-suppression counts).  Must be a
        module-level function to cross the process boundary; otherwise
        the sweep silently falls back to in-process execution.
    workers:
        Process count; default :func:`sweep_workers`.  ``1`` runs
        everything inline (no pool, no pickling).
    """
    configs = list(configs)
    for config in configs:
        _runner(config)  # validate types up front
    n_workers = min(
        workers if workers is not None else sweep_workers(), len(configs)
    )
    if n_workers > 1 and _picklable((collect, configs)):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            points = list(
                pool.map(_run_point, configs, [collect] * len(configs))
            )
    else:
        n_workers = 1
        points = [_run_point(config, collect) for config in configs]
    logger.info("sweep: %d points (%d workers)", len(configs), n_workers)
    return points
