"""Experiment harness: configs, runner, sweeps, metrics, reporting."""

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "availability": (
        "AvailabilitySimConfig", "AvailabilitySimResult", "run_availability_sim",
    ),
    "experiment": (
        "ExperimentConfig", "ExperimentResult", "run_response_time",
    ),
    "metrics": ("LatencyStats", "HistorySummary", "summarize"),
    "report": ("format_table", "format_series", "log_axis_note"),
    "sweeps": ("run_sweep",),
})
