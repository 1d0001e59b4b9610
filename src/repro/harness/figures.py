"""One-call generators for every figure's data (used by the CLI).

Each function returns ``(x_label, x_values, {series_name: [y ...]})`` —
the exact series the corresponding paper figure plots.  The benchmark
suite under ``benchmarks/`` runs the same experiments with assertions;
these functions exist so the command line (``python -m repro``) can
regenerate any figure at arbitrary scale.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from ..analysis.availability import protocol_unavailability
from ..analysis.overhead import protocol_messages_per_request
from .experiment import ExperimentConfig
from .metrics import HistorySummary
from .sweeps import run_sweep

__all__ = ["FIGURES", "generate_figure"]

RESPONSE_PROTOCOLS = ["dqvl", "majority", "primary_backup", "rowa", "rowa_async"]
#: extra Figure 6/7 series: DQVL with a non-default IQS shape surfaced
#: by ``repro tune`` — a 3x3 grid over the 9 edges (reads and writes
#: touch 3 and 5 IQS nodes instead of 5 and 5); every other deployment
#: field keeps the deployers' rule
TUNED_SERIES = "dqvl_tuned"
TUNED_IQS_SPEC = "grid:3x3"
AVAILABILITY_PROTOCOLS = [
    "dqvl", "majority", "grid", "rowa",
    "rowa_async", "rowa_async_no_stale", "primary_backup",
]
OVERHEAD_PROTOCOLS = ["dqvl", "majority", "grid", "rowa", "rowa_async", "primary_backup"]

FigureData = Tuple[str, Sequence, Dict[str, List[float]]]


def _response_config(
    config_for, label: str, ops: int, seed: int, *x
) -> ExperimentConfig:
    """Build one series point; the tuned series is dqvl + a grid IQS.

    The run's size and seed go through ``dataclasses.replace``, so the
    config's own validation sees them (``--ops 0`` is refused).
    """
    fields = {"ops_per_client": ops, "seed": seed}
    if label == TUNED_SERIES:
        label = "dqvl"
        fields["iqs_spec"] = TUNED_IQS_SPEC
    return dataclasses.replace(config_for(label, *x), **fields)


def _response_series(
    x_label: str,
    x_values: Sequence[float],
    config_for,
    ops: int,
    seed: int,
) -> FigureData:
    """One parallel sweep over the protocol × x-value grid."""
    labels = RESPONSE_PROTOCOLS + [TUNED_SERIES]
    configs = [
        _response_config(config_for, label, ops, seed, x)
        for label in labels
        for x in x_values
    ]
    points = iter(run_sweep(configs))
    series: Dict[str, List[float]] = {
        label: [next(points).summary.overall.mean for _ in x_values]
        for label in labels
    }
    return (x_label, x_values, series)


def _per_protocol_panel(config_for, ops: int, seed: int) -> FigureData:
    """The Figure 6(a)/7(a) shape: one bar group per protocol."""
    labels = RESPONSE_PROTOCOLS + [TUNED_SERIES]
    configs = [_response_config(config_for, label, ops, seed) for label in labels]
    series: Dict[str, List[float]] = {}
    for label, point in zip(labels, run_sweep(configs)):
        series[label] = point.summary.row()
    return ("metric", list(HistorySummary.ROW_COLUMNS), series)


def fig6a(ops: int = 150, seed: int = 2005) -> FigureData:
    """Per-protocol response time at the 5 % write rate (bar chart)."""
    return _per_protocol_panel(
        lambda protocol: ExperimentConfig(protocol=protocol, write_ratio=0.05),
        ops,
        seed,
    )


def fig6b(ops: int = 150, seed: int = 2005) -> FigureData:
    ratios = [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]
    return _response_series(
        "write_ratio",
        ratios,
        lambda protocol, w: ExperimentConfig(protocol=protocol, write_ratio=w),
        ops,
        seed,
    )


def fig7a(ops: int = 150, seed: int = 77) -> FigureData:
    return _per_protocol_panel(
        lambda protocol: ExperimentConfig(
            protocol=protocol, write_ratio=0.05, locality=0.9
        ),
        ops,
        seed,
    )


def fig7b(ops: int = 150, seed: int = 77) -> FigureData:
    localities = [0.0, 0.25, 0.5, 0.7, 0.9, 1.0]
    return _response_series(
        "locality",
        localities,
        lambda protocol, l: ExperimentConfig(
            protocol=protocol, write_ratio=0.05, locality=l
        ),
        ops,
        seed,
    )


def fig8a(n: int = 15, p: float = 0.01, **_: object) -> FigureData:
    ratios = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    series = {
        protocol: [protocol_unavailability(protocol, w, n, p) for w in ratios]
        for protocol in AVAILABILITY_PROTOCOLS
    }
    return ("write_ratio", ratios, series)


def fig8b(w: float = 0.25, p: float = 0.01, **_: object) -> FigureData:
    sizes = [3, 5, 7, 9, 11, 15, 19, 21]
    series = {
        protocol: [protocol_unavailability(protocol, w, n, p) for n in sizes]
        for protocol in AVAILABILITY_PROTOCOLS
    }
    return ("replicas", sizes, series)


def fig9a(n: int = 9, **_: object) -> FigureData:
    ratios = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    series = {
        protocol: [protocol_messages_per_request(protocol, w, n) for w in ratios]
        for protocol in OVERHEAD_PROTOCOLS
    }
    return ("write_ratio", ratios, series)


def fig9b(n_iqs: int = 5, w: float = 0.5, **_: object) -> FigureData:
    sizes = [5, 9, 15, 21, 27]
    series = {
        "dqvl_fixed_iqs": [
            protocol_messages_per_request("dqvl", w, n, n_iqs=n_iqs, n_oqs=n)
            for n in sizes
        ],
        "majority": [
            protocol_messages_per_request("majority", w, n) for n in sizes
        ],
        "rowa": [protocol_messages_per_request("rowa", w, n) for n in sizes],
    }
    return ("n_oqs", sizes, series)


FIGURES = {
    "fig6a": fig6a,
    "fig6b": fig6b,
    "fig7a": fig7a,
    "fig7b": fig7b,
    "fig8a": fig8a,
    "fig8b": fig8b,
    "fig9a": fig9a,
    "fig9b": fig9b,
}


def generate_figure(name: str, **kwargs) -> FigureData:
    """Generate the named figure's series (see :data:`FIGURES`)."""
    if name not in FIGURES:
        raise KeyError(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
    return FIGURES[name](**kwargs)
