"""Quorum-shape autotuning (``repro tune``).

Enumerates (IQS, OQS) candidate shapes over the declarative
:class:`repro.quorum.QuorumSpec` API, scores each analytically on
expected latency, per-node load, and availability, emits the Pareto
frontier as a byte-stable JSON artifact, and optionally validates the
winners through the real simulator.  See DESIGN.md §17 for the scoring
model and tolerances.
"""

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "model": (
        "CandidateScore", "LatencyModel", "score_candidate", "tri_max_mean",
    ),
    "runner": (
        "TuneConfig", "TuneReport", "ValidationRow", "canonical_json",
        "pareto_frontier", "run_tune",
    ),
    "candidates": ("candidate_pairs", "iqs_candidates", "oqs_candidates"),
})
