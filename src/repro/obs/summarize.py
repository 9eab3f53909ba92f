"""Render a human-readable run report from a recorded trace.

``python -m repro.obs summarize <trace.jsonl | dir>`` loads one trace
file — or every ``*.jsonl`` in a directory, stitching the per-worker
sibling files a forked run leaves behind — and prints:

- the run's wall clock (duration of the root span),
- a per-phase breakdown by span name using **self time** (a span's
  duration minus its children's), which partitions the root span
  exactly, so the table always sums to the run's wall clock up to
  clock-read jitter,
- the duration of each Table 1 ``row`` span, when the run had any,
- event counts (log warnings by level, ...),
- cache effectiveness and the trial count, read from the end-of-run
  ``metrics`` snapshot event when one was recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .trace import TRACE_MAGIC

__all__ = ["load_trace", "summarize", "main"]


def load_trace(path: str | Path) -> list[dict]:
    """Parse a trace file, or every ``*.jsonl`` in a directory.

    Unparseable lines (a torn tail from a killed process) are skipped.
    Raises ``ValueError`` if no file carries the trace header.
    """
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    if not files:
        raise ValueError(f"no *.jsonl trace files under {path}")
    records: list[dict] = []
    saw_header = False
    for file in files:
        with open(file, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if record.get("trace") == TRACE_MAGIC:
                    saw_header = True
                    continue
                if record.get("type") in ("span", "event"):
                    records.append(record)
    if not saw_header:
        raise ValueError(f"{path} is not a repro trace (missing header)")
    return records


def _phase_rows(spans: list[dict]) -> tuple[list[tuple], float, float]:
    """Aggregate spans by name; returns (rows, root_dur, covered).

    ``rows`` are ``(name, count, total_dur, self_dur)`` sorted by self
    time; ``root_dur`` sums the durations of parentless spans;
    ``covered`` sums self time over spans reachable from a root, which
    equals ``root_dur`` when every span closed cleanly.
    """
    child_dur: dict[str, float] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is not None:
            child_dur[parent] = child_dur.get(parent, 0.0) + record["dur"]
    by_name: dict[str, list[float]] = {}
    root_dur = 0.0
    covered = 0.0
    for record in spans:
        self_dur = max(0.0, record["dur"] - child_dur.get(record["id"], 0.0))
        entry = by_name.setdefault(record["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += record["dur"]
        entry[2] += self_dur
        covered += self_dur
        if record.get("parent") is None:
            root_dur += record["dur"]
    rows = sorted(
        ((name, count, total, self_dur)
         for name, (count, total, self_dur) in by_name.items()),
        key=lambda row: -row[3],
    )
    return rows, root_dur, covered


def summarize(records: list[dict]) -> str:
    spans = [r for r in records if r["type"] == "span"]
    events = [r for r in records if r["type"] == "event"]
    pids = sorted({r["pid"] for r in records})
    lines: list[str] = []

    rows, root_dur, covered = _phase_rows(spans)
    lines.append(
        f"Trace summary: {len(spans)} spans, {len(events)} events, "
        f"{len(pids)} process(es)"
    )
    if root_dur > 0:
        lines.append(
            f"Run wall clock: {root_dur:.3f}s "
            f"(phase self-times cover {100 * covered / root_dur:.1f}%)"
        )
    lines.append("")
    lines.append("Phase breakdown (self time):")
    header = f"  {'phase':<22} {'count':>7} {'total s':>10} {'self s':>10} {'% run':>7}"
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for name, count, total, self_dur in rows:
        pct = 100 * self_dur / root_dur if root_dur > 0 else 0.0
        lines.append(
            f"  {name:<22} {count:>7} {total:>10.3f} {self_dur:>10.3f} {pct:>6.1f}%"
        )
    row_spans = [r for r in spans if r["name"] == "row"]
    if row_spans:
        lines.append("")
        lines.append("Rows:")
        lines.append(f"  {'row':<8} {'s':>10}")
        for record in row_spans:
            row_id = (record.get("attrs") or {}).get("row", "?")
            lines.append(f"  {row_id:<8} {record['dur']:>10.3f}")

    event_counts: dict[str, int] = {}
    for record in events:
        name = record["name"]
        if name == "log":
            level = (record.get("attrs") or {}).get("level", "?")
            name = f"log[{level}]"
        if name != "metrics":
            event_counts[name] = event_counts.get(name, 0) + 1
    if event_counts:
        lines.append("")
        lines.append("Events:")
        lines.append("  " + "  ".join(
            f"{name}={count}" for name, count in sorted(event_counts.items())
        ))

    # The driver stamps a final "metrics" event carrying the merged
    # registry snapshot; mine it for the effectiveness sections.
    snapshot = None
    for record in events:
        if record["name"] == "metrics":
            snapshot = (record.get("attrs") or {}).get("snapshot")
    if snapshot:
        counters = snapshot.get("counters", {})
        hits = counters.get("cache.hit", 0)
        misses = counters.get("cache.miss", 0)
        lines.append("")
        lines.append("Cache effectiveness:")
        if hits or misses:
            rate = 100 * hits / (hits + misses)
            lines.append(
                f"  hits={hits:g}  misses={misses:g}  hit_rate={rate:.1f}%  "
                f"builds={counters.get('cache.build', 0):g}  "
                f"build_s={counters.get('cache.build_seconds', 0):.3f}"
            )
        else:
            lines.append("  (no cache activity recorded)")
        trials = counters.get("trial.ok", 0)
        if trials:
            lines.append("")
            lines.append(f"Trials: ok={trials:g}")
    else:
        lines.append("")
        lines.append("(no metrics snapshot in trace — run with metrics enabled"
                     " for the cache section)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: python -m repro.obs summarize <trace.jsonl | trace-dir>")
        return 0 if argv else 2
    if argv[0] == "summarize":
        argv = argv[1:]
    if len(argv) != 1:
        print("usage: python -m repro.obs summarize <trace.jsonl | trace-dir>",
              file=sys.stderr)
        return 2
    try:
        records = load_trace(argv[0])
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summarize(records))
    return 0
