"""Bounded schedule-space exploration strategies.

Two strategies over the choice tree defined by
:mod:`repro.mc.controller`, both budgeted in *runs* (full re-executions
— the explorer is stateless, in the stateless-model-checking tradition:
no snapshotting, every schedule is re-run from the initial state; a
default run costs ~4 ms of host time, ~245 schedules/s with the whole
oracle stack — 13 ms and ~75/s before the footprint horizon, rows in
DESIGN.md §12):

``dfs``
    Depth-first enumeration of choice prefixes.  Each completed run
    records the decision sequence it actually took; every decision made
    *beyond* the forced prefix spawns sibling prefixes (same choices up
    to that point, one alternative flipped) up to ``max_depth`` decision
    points deep.  Exhaustive for small depths, systematic always; with
    the canonical order as choice 0 the first run is exactly the
    untouched schedule.

``walk``
    Seeded random walks: each run deviates from the canonical choice
    with probability ``p_deviate`` at every decision point.  Covers deep
    decision points that DFS's frontier cannot reach within budget —
    for lease-boundary bugs (many delivery deferrals needed across the
    run) this is usually the strategy that finds the witness.

A violating run's choice list is then minimised with the chaos engine's
generic :func:`~repro.chaos.shrink.ddmin` over its *non-canonical*
choices: each probe re-runs the schedule with only a subset of the
deviations kept (everything else forced canonical), so the shrunk
witness is always re-validated by execution, never assumed.

Partial-order reduction
-----------------------
With ``por=True`` the DFS records per-alternative footprints
(:mod:`repro.mc.por`) and skips the sibling branch for any alternative
``k`` that provably commutes with every slot member before it: the
canonical continuation executes the remaining slot members
consecutively in offer order (new same-instant work appends *behind*
them), so branching to ``k`` first differs from the canonical run by
exactly the adjacent swaps ``k`` commutes across — and the entry is
still offered (and branched to) at the very next decision of the
canonical subtree, so only redundant orderings are dropped (sleep-set
style).  :func:`crosscheck_por` verifies pruned-vs-full outcome-set
equality by exhaustive enumeration on small configs.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..bounds import require
from ..chaos.shrink import ddmin
from .controller import Decision, walk_policy
from .por import independent
from .runner import McRunConfig, McRunResult, run_schedule

__all__ = [
    "ExploreResult",
    "explore",
    "explore_sweep_edges",
    "crosscheck_por",
    "shrink_choices",
]

STRATEGIES = ("dfs", "walk")


@dataclass
class ExploreResult:
    """Outcome of one exploration: a witness, or a clean budget."""

    config: McRunConfig
    strategy: str
    #: runs actually executed (<= budget)
    runs: int
    #: first violating run, or None if the budget stayed clean
    witness: Optional[McRunResult] = None
    #: witness after ddmin over its deviations (== witness when clean)
    shrunk: Optional[McRunResult] = None
    #: extra runs spent shrinking
    shrink_runs: int = 0
    #: sibling branches skipped by partial-order reduction (dfs+por only)
    pruned: int = 0

    @property
    def ok(self) -> bool:
        return self.witness is None

    # -- serialisation -----------------------------------------------------
    #
    # A run is a pure function of (config, choices), so an ExploreResult
    # serialises as config + choice lists: re-executing the choices with
    # ``run_schedule`` rebuilds the full McRunResults and re-validates
    # the witness (never trust stored outcomes).

    def to_json_obj(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "config": dataclasses.asdict(self.config),
            "strategy": self.strategy,
            "runs": self.runs,
            "shrink_runs": self.shrink_runs,
            "pruned": self.pruned,
            "witness": None,
            "shrunk": None,
        }
        for name in ("witness", "shrunk"):
            result = getattr(self, name)
            if result is not None:
                choices = result.choices
                while choices and choices[-1] == 0:
                    choices.pop()
                obj[name] = {
                    "choices": choices,
                    "expected_types": result.expected_types,
                }
        return obj


def _por_prunable(decision: Decision, alt: int) -> bool:
    """May the DFS skip branching to *alt* at this (canonical) decision?

    Only ``event`` decisions taken canonically and carrying footprints
    qualify; *alt* is skipped iff it commutes with every slot member
    offered before it (see the module docstring for why that is the
    exact set of redundant siblings).
    """
    fps = decision.footprints
    if (
        decision.kind != "event"
        or fps is None
        or decision.chosen != 0
        or not 0 < alt < len(fps)
    ):
        return False
    fp = fps[alt]
    return all(independent(fp, fps[j]) for j in range(alt))


@dataclass
class _Dfs:
    """The one DFS frontier loop: iterating yields each executed run.

    Each run is yielded *before* its siblings are pushed, so a consumer
    that stops at a result (``explore`` at the first violation) leaves
    ``runs``/``pruned`` exactly as they stood when that run completed.
    With *por* the runs record footprints down to *max_depth* — the
    deepest decision the loop below ever reads (DESIGN.md §13,
    "Footprint horizon").
    """

    config: McRunConfig
    max_depth: int
    budget: int
    por: bool
    runs: int = 0
    pruned: int = 0
    #: the frontier emptied within *budget*
    exhausted: bool = False

    def __iter__(self) -> Iterator[McRunResult]:
        max_depth, por = self.max_depth, self.por
        footprint_depth = max_depth if por else 0
        stack: List[List[int]] = [[]]
        seen: set = set()
        while stack and self.runs < self.budget:
            prefix = stack.pop()
            key = tuple(prefix)
            if key in seen:
                continue
            seen.add(key)
            self.runs += 1
            result = run_schedule(
                self.config, prefix, footprint_depth=footprint_depth
            )
            yield result
            # Branch on every decision taken canonically beyond the
            # forced prefix, shallowest last so it is popped first
            # (depth-first in schedule order).
            decisions = result.decisions
            upper = min(len(decisions), max_depth)
            for i in range(upper - 1, len(prefix) - 1, -1):
                base = [d.chosen for d in decisions[:i]]
                for alt in range(decisions[i].n - 1, -1, -1):
                    if alt == decisions[i].chosen:
                        continue
                    if por and _por_prunable(decisions[i], alt):
                        self.pruned += 1
                        continue
                    stack.append(base + [alt])
        self.exhausted = not stack


def explore(
    config: McRunConfig,
    *,
    strategy: str = "walk",
    budget: int = 500,
    p_deviate: float = 0.15,
    max_depth: int = 40,
    shrink: bool = True,
    shrink_budget: int = 200,
    por: bool = False,
) -> ExploreResult:
    """Search for a violating schedule under a run budget.

    Stops at the first violation (one witness is all the corpus needs);
    *shrink* then minimises it with :func:`shrink_choices`.  *max_depth*
    bounds how deep into the decision sequence DFS branches — beyond it
    runs continue canonically, keeping the frontier (and memory) small.
    *por* enables partial-order reduction for the ``dfs`` strategy
    (module docstring); the ``walk`` strategy ignores it.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
        )
    require("budget", budget, 1)
    require("max_depth", max_depth, 0)
    require("p_deviate", p_deviate, 0, 1)

    runs = 0
    pruned = 0
    witness: Optional[McRunResult] = None

    if strategy == "walk":
        for index in range(budget):
            runs += 1
            # Run 0 deviates nowhere: the canonical schedule is always
            # probed first, so choice-free bugs cost exactly one run.
            fallback = (
                None if index == 0 else
                walk_policy(f"mc-walk:{config.seed}:{index}", p_deviate)
            )
            result = run_schedule(config, (), fallback=fallback)
            if result.violations:
                witness = result
                break
    else:  # dfs
        dfs = _Dfs(config, max_depth=max_depth, budget=budget, por=por)
        witness = next((r for r in dfs if r.violations), None)
        runs, pruned = dfs.runs, dfs.pruned

    shrunk = witness
    shrink_runs = 0
    if witness is not None and shrink:
        shrunk, shrink_runs = shrink_choices(
            config, witness, max_runs=shrink_budget
        )
    return ExploreResult(
        config=config,
        strategy=strategy,
        runs=runs,
        witness=witness,
        shrunk=shrunk,
        shrink_runs=shrink_runs,
        pruned=pruned,
    )


def explore_sweep_edges(
    config: McRunConfig,
    edges: Sequence[int],
    *,
    por: bool = True,
    **explore_kwargs: Any,
) -> List[ExploreResult]:
    """Run :func:`explore` once per cluster size in *edges*.

    The scaling entry point behind ``repro explore --sweep-edges A:B``:
    decision-point counts grow superlinearly with ``num_edges``, so the
    sweep defaults to ``por=True`` to keep 3–5-edge DQVL within smoke
    budgets.  Stops early at the first size that yields a witness (a
    bug found small is a bug found).
    """
    results: List[ExploreResult] = []
    for num_edges in edges:
        sized = dataclasses.replace(config, num_edges=num_edges)
        result = explore(sized, por=por, **explore_kwargs)
        results.append(result)
        if not result.ok:
            break
    return results


def _outcome_signature(result: McRunResult) -> Tuple:
    """Order-insensitive digest of a run's observable outcome.

    Commuting two same-instant events preserves every op record and
    violation but may flip the order two clients' completions were
    *appended* to the history, so ops and violations are compared as
    sorted multisets.  Ops sort by their ``repr``: a value, hit flag or
    server may be ``None`` in one op and set in another, which tuples
    do not order.
    """
    ops = tuple(sorted((
        (
            op.kind, op.key, op.value,
            (op.lc.counter, op.lc.node_id),
            op.start, op.end, op.client, op.ok, op.hit, op.server,
        )
        for op in result.ops
    ), key=repr))
    violations = tuple(sorted(
        json.dumps(v, sort_keys=True) for v in result.violations
    ))
    return (ops, violations)


def _dfs_outcomes(
    config: McRunConfig,
    *,
    max_depth: int,
    budget: int,
    por: bool,
) -> Tuple[Set[Tuple], int, int, bool]:
    """Exhaustively enumerate DFS outcomes (no stop at violations).

    Returns ``(signatures, runs, pruned, exhausted)``; *exhausted* is
    False when the budget cut the frontier, which voids a comparison.
    """
    dfs = _Dfs(config, max_depth=max_depth, budget=budget, por=por)
    signatures = {_outcome_signature(result) for result in dfs}
    return signatures, dfs.runs, dfs.pruned, dfs.exhausted


def crosscheck_por(
    config: McRunConfig,
    *,
    max_depth: int = 6,
    budget: int = 5_000,
) -> Dict[str, Any]:
    """Exhaustively verify pruned-vs-full equivalence on a small config.

    Enumerates the full DFS and the POR DFS to exhaustion at the same
    depth and compares the *sets* of outcome signatures — POR is sound
    iff every outcome the full search can reach survives the pruning.
    Returns a report dict; ``report["equivalent"]`` is the verdict.
    Raises if the budget did not cover either search (an inconclusive
    cross-check must not pass silently).
    """
    full, full_runs, _p, full_done = _dfs_outcomes(
        config, max_depth=max_depth, budget=budget, por=False
    )
    reduced, por_runs, pruned, por_done = _dfs_outcomes(
        config, max_depth=max_depth, budget=budget, por=True
    )
    if not (full_done and por_done):
        raise ValueError(
            f"crosscheck budget {budget} too small to exhaust depth "
            f"{max_depth} (full done: {full_done}, por done: {por_done})"
        )
    return {
        "equivalent": full == reduced,
        "full_runs": full_runs,
        "por_runs": por_runs,
        "pruned": pruned,
        "outcomes": len(full),
        "missing": len(full - reduced),
        "extra": len(reduced - full),
    }


def shrink_choices(
    config: McRunConfig,
    witness: McRunResult,
    *,
    max_runs: int = 200,
) -> Tuple[McRunResult, int]:
    """Minimise a violating run's deviations with ddmin.

    The items are the indices of the witness's non-canonical choices;
    a probe keeps only a subset of them (all other decisions forced to
    canonical ``0``) and re-runs.  Because flipping an early choice can
    shift every later decision point, positional replay of a subset is
    only a *guess* — which is exactly why each probe is judged by
    re-execution.  Returns the minimised (re-validated) result and the
    number of probe runs spent.
    """
    choices = witness.choices
    deviations = [i for i, c in enumerate(choices) if c != 0]
    runs = 0
    memo: Dict[Tuple[int, ...], McRunResult] = {}

    def rerun(kept: Sequence[int]) -> McRunResult:
        nonlocal runs
        key = tuple(sorted(kept))
        if key not in memo:
            runs += 1
            kept_set = set(key)
            forced = [
                c if i in kept_set else 0 for i, c in enumerate(choices)
            ]
            # Trim trailing canonical choices — they are the default.
            while forced and forced[-1] == 0:
                forced.pop()
            memo[key] = run_schedule(config, forced)
        return memo[key]

    if not deviations:
        return witness, 0

    kept = ddmin(
        deviations,
        lambda subset: bool(rerun(subset).violations),
        should_continue=lambda: runs < max_runs,
    )
    result = rerun(kept)
    if not result.violations:  # pragma: no cover - ddmin guarantees this
        return witness, runs
    return result, runs
