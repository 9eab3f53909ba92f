"""Run one Table 1 workload once, in this (fresh) process.

``run.py`` starts this script once per repetition, from the repository
root with ``src`` on ``PYTHONPATH``, and reads the JSON it writes to
``--out``::

    python3 perfbench/workload.py --workload table1_quick --seed 3 --out r.json
    python3 perfbench/workload.py --setup-only --out probe.json

The process first sets up exactly what a ``python -m repro.analysis``
invocation needs before its first row (imports, numpy, the kernel
registry) and records the monotonic time it became ready.  It then runs
the workload's rows with one shared, initially empty ``InstanceCache``,
as ``generate_table1`` does.  With ``--trace-dir`` the per-layer
wrappers (``layers.py``), a buffered trace recorder and a metrics
registry are installed first, and the per-layer metrics are computed
after the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import resource
import time
from collections import Counter
from pathlib import Path

#: name -> (quick, skip T1-R1, workers, minimum repetitions per run).
#: The short full_rest repetitions (about 8 s) need the most of them for
#: a steady median; one quick repetition already takes about 22 s.
WORKLOADS = {
    "table1_quick": (True, False, 1, 1),
    "table1_full_rest": (False, True, 1, 4),
    "table1_quick_w2": (True, False, 2, 2),
}

#: Row function -> the id its RowReport carries, known before the call.
ROW_IDS = {
    "row_unrestricted_upper": "T1-R1",
    "row_sim_low_upper": "T1-R2a",
    "row_sim_high_upper": "T1-R2b",
    "row_oblivious": "T1-R2c",
    "row_exact_baseline": "X-1",
    "row_subgraph_patterns": "X-2",
    "row_oneway_streaming_lower": "T1-R3",
    "row_sim_covered_lower": "T1-R4",
    "row_symmetrization": "T1-R5",
    "row_bm_lower": "T1-R6",
    "row_mu_farness": "L4.5",
}

#: The row whose triangle-free controls must never report a triangle.
ONE_SIDED_ROW = "T1-R1"


def set_up():
    """Everything a Table 1 invocation loads before its first row."""
    import numpy  # noqa: F401

    from repro.analysis import table1
    from repro.graphs.kernels import kernel_names

    kernel_names()  # registers the numpy-backed kernels
    return table1


class TrialLog:
    """Records every trial's status and T1-R1's ``found`` flags.

    Wraps ``run_trials`` (about 40 calls per Table 1), so it stays
    installed in untraced runs too.
    """

    def __init__(self) -> None:
        self.row = ""
        self.statuses: Counter[str] = Counter()
        self.one_sided_trials = 0
        self.one_sided_found = 0

    def install(self) -> list:
        from layers import patch_references
        from repro.runtime import executor

        original = executor.run_trials

        @functools.wraps(original)
        def run_trials(*args, **kwargs):
            results = original(*args, **kwargs)
            for result in results:
                self.statuses[result.status] += 1
                if self.row == ONE_SIDED_ROW:
                    self.one_sided_trials += 1
                    self.one_sided_found += bool(result.found)
            return results

        return patch_references(original, run_trials)


def smoke_grids(table1) -> list:
    """Cut every sweep to its first two grid points (self-test runs)."""
    original = table1.run_sweep

    @functools.wraps(original)
    def run_sweep(protocol, instance_fn, grid, *args, **kwargs):
        return original(protocol, instance_fn, list(grid)[:2], *args,
                        **kwargs)

    table1.run_sweep = run_sweep
    return [(table1, "run_sweep", original)]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is KiB on Linux


def run_workload(table1, name: str, seed: int, trace_dir: Path | None,
                 smoke: bool) -> dict:
    import layers
    from layers import restore
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.runtime import shared_cache

    quick, skip_first, workers, _ = WORKLOADS[name]
    rows = table1.ALL_ROWS[1:] if skip_first else table1.ALL_ROWS
    log = TrialLog()
    sites = log.install()
    if smoke:
        sites += smoke_grids(table1)
    probe = registry = recorder = None
    if trace_dir is not None:
        registry = obs_metrics.MetricsRegistry()
        recorder = layers.BufferedRecorder(trace_dir / "trace.jsonl")
        probe = layers.Layers(registry, recorder)
        probe.install()
    reports, row_seconds = [], {}
    instance_bytes = 0
    try:
        with contextlib.ExitStack() as stack:
            if probe is not None:
                stack.enter_context(obs_metrics.use_metrics(registry))
                stack.enter_context(obs_trace.use_recorder(recorder))
            with shared_cache(workers) as cache:
                first = time.perf_counter()
                for row_fn in rows:
                    row_id = ROW_IDS[row_fn.__name__]
                    log.row = row_id
                    started = time.perf_counter()
                    with obs_trace.span("row", row=row_id):
                        kwargs = dict(quick=quick, seed=seed, workers=workers,
                                      cache=cache)
                        if probe is None:
                            report = row_fn(**kwargs)
                        else:
                            probe.row = row_id
                            report = probe.run_row(row_fn, **kwargs)
                    row_seconds[row_id] = time.perf_counter() - started
                    reports.append(dataclasses.asdict(report))
                wall_s = time.perf_counter() - first
                if probe is not None:
                    instance_bytes = cache.stats()["instance_bytes"]
    finally:
        if probe is not None:
            probe.fold()
            probe.uninstall()
            recorder.close()
        restore(sites)
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "reports": reports,
        "row_seconds": row_seconds,
        "statuses": dict(log.statuses),
        "one_sided_trials": log.one_sided_trials,
        "one_sided_found": log.one_sided_found,
    }
    if probe is not None:
        from costs import layer_metrics

        metrics, table, ledger_by_row = layer_metrics(
            registry.snapshot(), trace_dir, wall_s=wall_s, workers=workers,
            row_seconds=row_seconds, row_ids=list(ROW_IDS.values()),
            trials=sum(log.statuses.values()), instance_bytes=instance_bytes,
        )
        result.update(layers=metrics, batches=table,
                      ledger_by_row=ledger_by_row)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="first two grid points of every sweep only")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    table1 = set_up()
    result = {"ready": time.monotonic()}
    if not args.setup_only:
        if args.workload is None:
            parser.error("--workload is required")
        result.update(run_workload(table1, args.workload, args.seed,
                                   args.trace_dir, args.smoke))
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
