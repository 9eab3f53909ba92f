"""Markdown report writer: run every Table 1 row, write the results file.

``write_report(path)`` executes the full experiment suite and renders a
self-contained markdown report (claim vs measured per row, with notes and
environment stamps) — the programmatic counterpart of EXPERIMENTS.md, so a
user can regenerate the evidence on their machine with one call:

    python -c "from repro.analysis.report import write_report; \
               write_report('my_run.md')"
"""

from __future__ import annotations

import platform
import sys
import time
from pathlib import Path

from repro.analysis.table1 import ALL_ROWS, RowReport, run_row
from repro.runtime import shared_cache

__all__ = ["build_report", "write_report"]


def _render_row(report: RowReport) -> str:
    claimed = "—" if report.claimed is None else f"{report.claimed:.3f}"
    return (
        f"| {report.row_id} | {report.description} | {report.paper_bound} "
        f"| {report.metric} | {claimed} | {report.measured:.3f} "
        f"| {report.note} |"
    )


def build_report(quick: bool = True, seed: int = 0,
                 workers: int | None = None) -> str:
    """Run all rows and render the markdown report text.

    ``workers`` fans the sweep-backed rows out over a process pool (see
    :mod:`repro.runtime`); one memory-only instance cache is shared
    across rows, as in :func:`~repro.analysis.table1.generate_table1`.
    Each row runs through :func:`~repro.analysis.table1.run_row`, so a
    traced report has one ``row`` span per row.
    """
    started = time.time()
    rows: list[tuple[RowReport, float]] = []
    with shared_cache(workers) as cache:
        for row_fn in ALL_ROWS:
            t0 = time.time()
            rows.append((
                run_row(row_fn, quick=quick, seed=seed, workers=workers,
                        cache=cache),
                time.time() - t0,
            ))
    total = time.time() - started
    lines = [
        "# Table 1 reproduction report",
        "",
        f"- mode: {'quick' if quick else 'full'}, seed {seed}, "
        f"workers {workers if workers is not None else 'serial/env'}",
        f"- python {sys.version.split()[0]} on {platform.platform()}",
        f"- total runtime: {total:.1f}s",
        "",
        "| row | experiment | paper bound | metric | claimed | measured "
        "| notes |",
        "|---|---|---|---|---|---|---|",
    ]
    lines.extend(_render_row(report) for report, _ in rows)
    lines.extend([
        "",
        "## Runtimes",
        "",
        "| row | seconds |",
        "|---|---|",
    ])
    lines.extend(
        f"| {report.row_id} | {elapsed:.1f} |" for report, elapsed in rows
    )
    lines.append("")
    return "\n".join(lines)


def write_report(path: str | Path, quick: bool = True, seed: int = 0,
                 workers: int | None = None) -> Path:
    """Run the suite and write the report; returns the written path."""
    target = Path(path)
    target.write_text(build_report(quick=quick, seed=seed, workers=workers))
    return target
