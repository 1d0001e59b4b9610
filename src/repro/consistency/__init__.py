"""Consistency validation: histories, semantics checkers, staleness.

Used by integration tests to verify that DQVL (and the strong
baselines) provide regular semantics, and to demonstrate — and
quantify — ROWA-Async's violations.
"""

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "history": ("History",),
    "regular": (
        "Violation", "check_regular", "check_atomic", "staleness_report",
        "StalenessReport",
    ),
    "sessions": (
        "SessionViolation", "check_read_your_writes", "check_monotonic_reads",
        "check_session_guarantees",
    ),
})
