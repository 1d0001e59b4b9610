"""The ``repro tune`` autotuner: enumerate, score, rank, validate.

:func:`run_tune` scores every candidate (IQS, OQS) shape pair from
:mod:`repro.tune.candidates` with the analytic model in
:mod:`repro.tune.model`, keeps the Pareto frontier over
(latency, load, availability), compares every candidate against the
paper's default pair, and — optionally — validates the top frontier
entries through the real simulator (a response-time experiment for the
latency axis, a measured-availability run for the availability axis),
reporting analytic-vs-simulated deltas against documented tolerances
(DESIGN.md §17).

Everything analytic is pure deterministic float arithmetic and the
validation runs are seeded, so the emitted report — and in particular
:meth:`TuneReport.frontier_json` — is byte-identical across runs of the
same code and config.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..edge.topology import EdgeTopologyConfig
from ..harness.availability import AvailabilitySimConfig
from ..harness.experiment import ExperimentConfig
from ..quorum.spec import DEFAULT_IQS_SPEC, DEFAULT_OQS_SPEC
from .candidates import candidate_pairs
from .model import CandidateScore, LatencyModel, score_candidate

__all__ = [
    "TuneConfig",
    "TuneReport",
    "ValidationRow",
    "canonical_json",
    "pareto_frontier",
    "run_tune",
]


#: response-time validation clients: the analytic model charges every
#: client WAN prices, so fewer would overweight the one client co-located
#: with a single-node IQS
NUM_CLIENTS = 3
#: documented cross-check tolerances (DESIGN.md §17): analytic vs
#: simulated mean latency, relative; analytic vs measured availability,
#: absolute
LATENCY_REL_TOL = 0.35
AVAILABILITY_ABS_TOL = 0.05


def canonical_json(obj: Any) -> str:
    """Byte-stable JSON: sorted keys, fixed indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class TuneConfig:
    """Parameters of one autotuning run."""

    #: edge-server count: IQS and OQS each span this many nodes, as in
    #: the paper's co-located deployment
    num_edges: int = 5
    #: workload read fraction f (write ratio is 1 - f)
    read_fraction: float = 0.9
    #: per-node unavailability for the availability axis
    p: float = 0.05
    #: per-message uniform jitter; must be > 0 for quorum *size* to
    #: affect fault-free latency (see DESIGN.md §17)
    jitter_ms: float = 5.0
    seed: int = 0
    #: validate this many frontier entries (plus the default pair)
    #: through the simulator; 0 skips validation
    validate_top: int = 0
    #: response-time validation workload size (per client)
    ops_per_client: int = 150
    #: availability validation length (per-epoch Bernoulli outages)
    epochs: int = 150

    def __post_init__(self) -> None:
        if self.num_edges < 1:
            raise ValueError("num_edges must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if not 0.0 <= self.jitter_ms < math.inf:
            raise ValueError("jitter_ms must be non-negative and finite")
        if self.validate_top < 0:
            raise ValueError("validate_top must be >= 0")


@dataclass(frozen=True)
class ValidationRow:
    """Analytic-vs-simulated cross-check for one candidate."""

    iqs: str
    oqs: str
    analytic_latency_ms: float
    simulated_latency_ms: float
    latency_rel_error: float
    latency_within_tol: bool
    analytic_availability: float
    simulated_availability: float
    availability_abs_error: float
    availability_within_tol: bool

    @property
    def ok(self) -> bool:
        return self.latency_within_tol and self.availability_within_tol

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "iqs": self.iqs,
            "oqs": self.oqs,
            "analytic_latency_ms": round(self.analytic_latency_ms, 6),
            "simulated_latency_ms": round(self.simulated_latency_ms, 6),
            "latency_rel_error": round(self.latency_rel_error, 6),
            "latency_within_tol": self.latency_within_tol,
            "analytic_availability": round(self.analytic_availability, 9),
            "simulated_availability": round(self.simulated_availability, 9),
            "availability_abs_error": round(self.availability_abs_error, 9),
            "availability_within_tol": self.availability_within_tol,
            "ok": self.ok,
        }


@dataclass
class TuneReport:
    """Everything ``repro tune`` found, JSON-serialisable."""

    config: TuneConfig
    num_candidates: int
    default: CandidateScore
    frontier: List[CandidateScore]
    #: candidates strictly better than the default on >= 2 of 3 axes
    dominating: List[Tuple[CandidateScore, List[str]]]
    validation: List[ValidationRow] = field(default_factory=list)

    @property
    def recommended(self) -> Optional[CandidateScore]:
        """The frontier's best default-beater, if any (the dominating
        list is already ranked: most axes won, then the least
        availability given up, then lowest latency)."""
        return self.dominating[0][0] if self.dominating else None

    def frontier_json_obj(self) -> Dict[str, Any]:
        """The byte-comparable frontier artifact (CI diffs this)."""
        return {
            "config": asdict(self.config),
            "num_candidates": self.num_candidates,
            "default": self.default.to_json_obj(),
            "frontier": [s.to_json_obj() for s in self.frontier],
        }

    def frontier_json(self) -> str:
        return canonical_json(self.frontier_json_obj())

    def to_json_obj(self) -> Dict[str, Any]:
        obj = self.frontier_json_obj()
        obj["dominating"] = [
            {**score.to_json_obj(), "axes_better": axes}
            for score, axes in self.dominating
        ]
        recommended = self.recommended
        obj["recommended"] = recommended.to_json_obj() if recommended else None
        obj["validation"] = [row.to_json_obj() for row in self.validation]
        return obj


def pareto_frontier(scores: Sequence[CandidateScore]) -> List[CandidateScore]:
    """Non-dominated scores in canonical order: ascending latency, then
    load, then descending availability, with the spec strings as the
    final tie-break so the frontier is a total order."""
    frontier = [
        s for s in scores if not any(other.dominates(s) for other in scores)
    ]
    frontier.sort(
        key=lambda s: (s.latency_ms, s.load, -s.availability, s.iqs, s.oqs)
    )
    # identical scores from different specs survive dominance filtering
    # together; keep one per score point, first spec pair in order
    deduped: List[CandidateScore] = []
    for s in frontier:
        if deduped and (
            s.latency_ms,
            s.load,
            s.availability,
        ) == (
            deduped[-1].latency_ms,
            deduped[-1].load,
            deduped[-1].availability,
        ):
            continue
        deduped.append(s)
    return deduped


def _validation_configs(
    config: TuneConfig, pairs: Sequence[Tuple[str, str]]
) -> List[Any]:
    """One latency and one availability config per candidate pair."""
    write_ratio = 1.0 - config.read_fraction
    sweep_configs: List[Any] = []
    for iqs, oqs in pairs:
        sweep_configs.append(
            ExperimentConfig(
                protocol="dqvl",
                write_ratio=write_ratio,
                locality=1.0,
                num_edges=config.num_edges,
                num_clients=NUM_CLIENTS,
                ops_per_client=config.ops_per_client,
                seed=config.seed,
                iqs_spec=iqs,
                oqs_spec=oqs,
                topology=EdgeTopologyConfig(jitter_ms=config.jitter_ms),
            )
        )
        sweep_configs.append(
            AvailabilitySimConfig(
                protocol="dqvl",
                write_ratio=write_ratio,
                num_replicas=config.num_edges,
                p=config.p,
                epochs=config.epochs,
                seed=config.seed,
                iqs_spec=iqs,
                oqs_spec=oqs,
            )
        )
    return sweep_configs


def _validate(
    config: TuneConfig,
    candidates: Sequence[CandidateScore],
    workers: Optional[int],
) -> List[ValidationRow]:
    from ..harness.sweeps import run_sweep

    pairs = [(s.iqs, s.oqs) for s in candidates]
    points = run_sweep(_validation_configs(config, pairs), workers=workers)
    rows: List[ValidationRow] = []
    for i, score in enumerate(candidates):
        response, availability = points[2 * i], points[2 * i + 1]
        simulated_ms = response.summary.overall.mean
        rel_error = (
            abs(simulated_ms - score.latency_ms) / score.latency_ms
            if score.latency_ms
            else 0.0
        )
        measured_av = availability.availability
        av_error = measured_av - score.availability
        rows.append(
            ValidationRow(
                iqs=score.iqs,
                oqs=score.oqs,
                analytic_latency_ms=score.latency_ms,
                simulated_latency_ms=simulated_ms,
                latency_rel_error=rel_error,
                latency_within_tol=rel_error <= LATENCY_REL_TOL,
                analytic_availability=score.availability,
                simulated_availability=measured_av,
                availability_abs_error=av_error,
                availability_within_tol=abs(av_error) <= AVAILABILITY_ABS_TOL,
            )
        )
    return rows


def run_tune(
    config: Optional[TuneConfig] = None,
    *,
    workers: Optional[int] = None,
) -> TuneReport:
    """Score every candidate shape pair and assemble the report."""
    config = config or TuneConfig()
    n = config.num_edges
    delays = LatencyModel(jitter_ms=config.jitter_ms)

    scores = [
        score_candidate(
            iqs, oqs, n, n, config.read_fraction, config.p, delays
        )
        for iqs, oqs in candidate_pairs(n, n)
    ]
    default = score_candidate(
        DEFAULT_IQS_SPEC,
        DEFAULT_OQS_SPEC,
        n,
        n,
        config.read_fraction,
        config.p,
        delays,
    )

    frontier = pareto_frontier(scores)
    dominating = sorted(
        (
            (s, s.axes_better_than(default))
            for s in frontier
            if len(s.axes_better_than(default)) >= 2
        ),
        key=lambda item: (
            -len(item[1]),
            -item[0].availability,
            item[0].latency_ms,
            item[0].iqs,
        ),
    )

    validation: List[ValidationRow] = []
    if config.validate_top > 0:
        top = frontier[: config.validate_top]
        # always cross-check the default pair too, as the baseline row
        if not any(
            s.iqs == default.iqs and s.oqs == default.oqs for s in top
        ):
            top = list(top) + [default]
        validation = _validate(config, top, workers)

    return TuneReport(
        config=config,
        num_candidates=len(scores),
        default=default,
        frontier=frontier,
        dominating=dominating,
        validation=validation,
    )
