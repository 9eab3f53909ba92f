"""Command-line Table 1 regeneration: ``python -m repro.analysis``.

Options:
  --full       run the larger sweeps (slower, tighter fits)
  --seed N     base seed (default 0)
  --row ID     run a single row by id (e.g. T1-R2a, X-1, L4.5)
  --workers N  process-pool width for sweeps (0 = all cores; default:
               the REPRO_WORKERS env var, else serial)
  --trace-dir DIR  record a structured span/event trace of the whole
               run to DIR/trace.jsonl (fork workers add sibling files);
               render it with `python -m repro.obs summarize DIR`
  --metrics-out FILE  write the run's merged metrics registry (counters
               and gauges) to FILE as JSON

Tracing and metrics never touch any RNG: the emitted tables are
byte-identical with or without them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro.analysis import table1
from repro.analysis.table1 import generate_table1
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.runtime import resolve_workers

ROWS_BY_ID = {
    row_id.upper(): row_fn for row_fn, row_id in table1.ROW_IDS.items()
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Regenerate the paper's Table 1 as measured quantities.",
    )
    parser.add_argument("--full", action="store_true",
                        help="larger sweeps (slower, tighter fits)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--row", type=str, default=None,
                        help="run one row by id, e.g. "
                             + ", ".join(ROWS_BY_ID))
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width for sweeps "
                             "(0 = all cores; default REPRO_WORKERS)")
    parser.add_argument("--trace-dir", type=str, default=None,
                        help="record a span/event trace of the run to "
                             "DIR/trace.jsonl (see python -m repro.obs)")
    parser.add_argument("--metrics-out", type=str, default=None,
                        help="write the run's merged metrics registry "
                             "(counters and gauges) to this file as JSON")
    args = parser.parse_args(argv)

    try:  # surface a bad --workers/REPRO_WORKERS before any sweep runs
        resolve_workers(args.workers)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    row_fn = None
    if args.row is not None:
        row_fn = ROWS_BY_ID.get(args.row.upper())
        if row_fn is None:
            print(f"unknown row id {args.row!r}; known: "
                  + ", ".join(ROWS_BY_ID), file=sys.stderr)
            return 2

    quick = not args.full
    # Observability is installed process-globally around the whole run:
    # every sweep inside it (any row, any layer) lands in one trace and
    # one registry without threading arguments through the row functions.
    registry = MetricsRegistry() if args.metrics_out is not None else None
    recorder = None
    if args.trace_dir is not None:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        recorder = TraceRecorder(trace_dir / "trace.jsonl")
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            stack.callback(recorder.close)
            stack.enter_context(obs_trace.use_recorder(recorder))
        if registry is not None:
            stack.enter_context(obs_metrics.use_metrics(registry))
        with obs_trace.span("table1", row=args.row, quick=quick,
                            seed=args.seed):
            if row_fn is None:
                print(generate_table1(quick=quick, seed=args.seed,
                                      workers=args.workers))
            else:
                print(table1.run_row(row_fn, quick=quick, seed=args.seed,
                                     workers=args.workers).formatted())
        if registry is not None:
            obs_trace.event("metrics", snapshot=registry.snapshot())
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(registry.snapshot(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
