"""Experiment harness: configs, runner, sweeps, metrics, reporting."""

from .availability import (
    AvailabilitySimConfig,
    AvailabilitySimResult,
    run_availability_sim,
)
from .experiment import ExperimentConfig, ExperimentResult, run_response_time
from .metrics import HistorySummary, LatencyStats, summarize
from .report import format_series, format_table, log_axis_note
from .sweeps import ResponsePoint, run_sweep

__all__ = [
    "AvailabilitySimConfig",
    "AvailabilitySimResult",
    "run_availability_sim",
    "ExperimentConfig",
    "ExperimentResult",
    "run_response_time",
    "LatencyStats",
    "HistorySummary",
    "summarize",
    "format_table",
    "format_series",
    "log_axis_note",
    "run_sweep",
    "ResponsePoint",
]
