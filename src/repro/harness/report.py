"""Reporting: plain-text tables/series and the one-shot markdown report.

The formatting half renders the rows/series each paper figure plots —
consistent, readable output for pytest, EXPERIMENTS.md and the CLI.
The report half (``python -m repro report``) regenerates all eight
figure panels (and, optionally, the measured-availability cross-check),
renders each as a table plus an ASCII chart, and writes a
self-contained markdown report — the quickest way to re-derive
EXPERIMENTS.md's numbers on a new machine or after a protocol change.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence

__all__ = [
    "format_table",
    "format_series",
    "log_axis_note",
    "generate_report",
]


# -- tables and series ---------------------------------------------------------

def _format_cell(value, width: int) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e6):
            text = f"{value:.3e}"
        else:
            text = f"{value:.3f}".rstrip("0").rstrip(".")
            if text in ("", "-"):
                text = "0"
    else:
        text = str(value)
    return text.rjust(width)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render an ASCII table with right-aligned numeric columns."""
    rows = [list(r) for r in rows]
    widths = [len(h) for h in headers]
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for i, cell in enumerate(row):
            text = _format_cell(cell, 0).strip()
            widths[i] = max(widths[i], len(text))
            rendered.append(text)
        rendered_rows.append(rendered)
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for rendered in rendered_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(rendered, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence,
    series: Sequence[tuple],
    title: Optional[str] = None,
) -> str:
    """Render named series against an x axis (one column per series).

    ``series`` is a list of ``(name, [y values])`` pairs.
    """
    headers = [x_label] + [name for name, _ in series]
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [ys[i] for _, ys in series])
    return format_table(headers, rows, title=title)


def log_axis_note(values: Iterable[float]) -> str:
    """A one-line reminder of the log-scale span (for unavailability)."""
    values = [v for v in values if v > 0]
    if not values:
        return "(all values zero)"
    import math

    low = min(values)
    high = max(values)
    return f"(log scale: spans 1e{math.floor(math.log10(low))} .. 1e{math.ceil(math.log10(high))})"


# -- the one-shot markdown report ---------------------------------------------

_DESCRIPTIONS = {
    "fig6a": "Response time per protocol at the 5% write rate (ms).",
    "fig6b": "Overall response time vs write ratio (ms).",
    "fig7a": "Response time per protocol at 90% access locality (ms).",
    "fig7b": "Overall response time vs access locality (ms).",
    "fig8a": "Unavailability vs write ratio (n=15, p=0.01; analytic).",
    "fig8b": "Unavailability vs replica count (w=0.25, p=0.01; analytic).",
    "fig9a": "Messages per request vs write ratio (n=9; analytic).",
    "fig9b": "Messages per request vs OQS size, IQS fixed at 5 (analytic).",
}

_SIMULATED = ("fig6a", "fig6b", "fig7a", "fig7b")


def _render_figure(name: str, ops: int, charts: bool) -> str:
    from .charts import ascii_chart
    from .figures import generate_figure

    kwargs = {"ops": ops} if name in _SIMULATED else {}
    x_label, x_values, series = generate_figure(name, **kwargs)
    parts: List[str] = [f"## {name}", "", _DESCRIPTIONS.get(name, ""), ""]
    parts.append("```")
    parts.append(format_series(x_label, x_values, sorted(series.items())))
    parts.append("```")
    if charts:
        numeric = all(isinstance(x, (int, float)) for x in x_values)
        xs = list(x_values) if numeric else list(range(len(x_values)))
        parts.append("")
        parts.append("```")
        parts.append(
            ascii_chart(
                xs, series,
                log_y=name.startswith("fig8"),
                x_label=x_label,
                y_label="unavail" if name.startswith("fig8") else "y",
            )
        )
        parts.append("```")
    parts.append("")
    return "\n".join(parts)


def generate_report(
    out_path: str = "results/REPORT.md",
    ops: int = 150,
    charts: bool = True,
    figures: Optional[List[str]] = None,
    measured_availability: bool = False,
) -> str:
    """Write the full evaluation report; returns the output path.

    The simulated panels run through :mod:`repro.harness.figures`, which
    executes each protocol/parameter grid via the parallel sweep runner
    (:mod:`repro.harness.sweeps`).
    """
    from .figures import FIGURES

    chosen = figures or sorted(FIGURES)
    unknown = [f for f in chosen if f not in FIGURES]
    if unknown:
        raise KeyError(f"unknown figures: {unknown}")

    sections = [
        "# Dual-Quorum Replication — regenerated evaluation",
        "",
        f"Figures: {', '.join(chosen)}.  Simulated panels use "
        f"{ops} operations per client on the paper's 9-edge topology; "
        "analytic panels are exact.  See EXPERIMENTS.md for the claims "
        "each figure is checked against.",
        "",
    ]
    for name in chosen:
        sections.append(_render_figure(name, ops, charts))

    if measured_availability:
        from ..analysis.availability import protocol_unavailability
        from .availability import AvailabilitySimConfig
        from .sweeps import run_sweep

        protocols = ["dqvl", "majority", "rowa", "primary_backup",
                     "rowa_async", "rowa_async_no_stale"]
        points = run_sweep([
            AvailabilitySimConfig(
                protocol=protocol, write_ratio=0.25, num_replicas=5,
                p=0.15, epochs=200, seed=3,
            )
            for protocol in protocols
        ])
        rows = [
            [protocol, point.unavailability,
             protocol_unavailability(protocol, 0.25, 5, 0.15)]
            for protocol, point in zip(protocols, points)
        ]
        sections.append("## measured availability (simulation)\n")
        sections.append("```")
        sections.append(
            format_table(
                ["protocol", "measured unavail", "analytic unavail"], rows
            )
        )
        sections.append("```\n")

    out_dir = os.path.dirname(out_path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write("\n".join(sections) + "\n")
    return out_path
