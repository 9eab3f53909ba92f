"""Batched trial engine vs the per-trial reference (PR 7).

The workload is the repo's bread-and-butter experiment: estimating a
protocol's detection probability at one grid point by running many
seeded trials against one instance.  The per-trial reference
(``TrialTask.__call__`` on every spec) pays the full cost per trial —
rebuild the instance, rebuild the players, reseed the coins.
``run_trials`` on shared-instance specs builds the instance once per
grid point, reuses the players' packed adjacency rows across the
repetition axis, and constructs all trial coin streams in one pass.

Every row asserts the acceptance bar before any speedup is reported:

* batched records == per-trial records, byte for byte (same specs, both
  executors) — the engine is a pure throughput change;
* serial-batched == parallel-batched — sharding by grid point preserves
  the record stream.

The gate is >= 5x on the sim-low detection-probability estimate for
n in 2000-4000.  Results go to ``BENCH_trial_batching.json`` (or
``--json PATH``).

Usage::

    python benchmarks/bench_trial_batching.py            # full grid
    python benchmarks/bench_trial_batching.py --quick    # CI smoke grid

Also collected by ``pytest benchmarks/`` as a correctness+speedup test
on the quick grid.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

from baseline import check_baseline
from timing_helpers import quiet_generator_shortfall

from repro.analysis.experiments import DefaultInstanceBuilder
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.runtime import (
    ParallelExecutor,
    SerialExecutor,
    TrialTask,
    build_specs,
    run_trials,
)

FULL_NS = [2000, 3000, 4000]
QUICK_NS = [2000, 4000]

SPEEDUP_FLOOR = 5.0
D = 8.0
K = 3
TRIALS = 16
SWEEP_SEED = 7

PARAMS = SimLowParams(epsilon=0.2, delta=0.2)


def sim_low_protocol(partition, seed, *, shared=None):
    return find_triangle_sim_low(partition, PARAMS, seed=seed, shared=shared)


def _trial(n: int) -> dict:
    """One detection-probability estimate, per-trial vs batched."""
    import time

    builder = DefaultInstanceBuilder(epsilon=0.2, k=K)
    specs = build_specs([(n, D, K)], TRIALS, SWEEP_SEED,
                        shared_instances=True)

    start = time.perf_counter()
    task = TrialTask(builder, sim_low_protocol)
    per_trial = [task(spec) for spec in specs]
    per_trial_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = run_trials(sim_low_protocol, builder, specs,
                         executor=SerialExecutor())
    batched_s = time.perf_counter() - start

    parallel = run_trials(sim_low_protocol, builder, specs,
                          executor=ParallelExecutor(workers=2))

    detection_rate = sum(1 for r in batched if r.found) / TRIALS
    return {
        "per_trial_s": per_trial_s,
        "batched_s": batched_s,
        "identical": batched == per_trial,
        "parallel_identical": parallel == batched,
        "detection_rate": detection_rate,
        "trials": TRIALS,
    }


def run_grid(ns: list[int]) -> list[dict]:
    rows = []
    with quiet_generator_shortfall():
        for n in ns:
            row = _trial(n)
            # Mismatches are recorded, not raised: the JSON must reflect
            # the failing run (written before the gate fires).
            rows.append({
                "n": n,
                "speedup": row["per_trial_s"] / max(row["batched_s"], 1e-12),
                **row,
            })
    return rows


def print_table(rows) -> None:
    header = (
        f"{'n':>6} {'trials':>7} {'per-trial':>10} {'batched':>9} {'x':>7}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>6} {row['trials']:>7} "
            f"{row['per_trial_s'] * 1e3:>8.1f}ms "
            f"{row['batched_s'] * 1e3:>7.1f}ms "
            f"{row['speedup']:>6.1f}x"
        )


def check_floor(rows) -> list[str]:
    """The acceptance bar: identical records, speedup >= the floor."""
    failures = [
        f"n={row['n']}: batched and per-trial records differ"
        for row in rows if not row["identical"]
    ]
    failures.extend(
        f"n={row['n']}: serial and parallel batched records differ"
        for row in rows if not row["parallel_identical"]
    )
    failures.extend(
        f"n={row['n']}: {row['speedup']:.1f}x < {SPEEDUP_FLOOR}x"
        for row in rows if row["speedup"] < SPEEDUP_FLOOR
    )
    return failures


def write_json(rows, path: Path) -> None:
    path.write_text(json.dumps({
        "bench": "trial_batching",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "speedup_floor": SPEEDUP_FLOOR,
        "rows": rows,
    }, indent=2) + "\n")


def test_trial_batching_speedup_and_identical_records(benchmark, print_row):
    """pytest entry: quick grid, records identical, floor respected."""
    rows = benchmark.pedantic(
        lambda: run_grid(QUICK_NS), rounds=1, iterations=1
    )
    for row in rows:
        print_row(
            f"batching n={row['n']}: {row['speedup']:.1f}x "
            f"(detection {row['detection_rate']:.2f})"
        )
    benchmark.extra_info["speedups"] = {
        str(r["n"]): round(r["speedup"], 2) for r in rows
    }
    assert not check_floor(rows)


def main(argv: list[str]) -> int:
    ns = QUICK_NS if "--quick" in argv else FULL_NS
    json_path = Path(__file__).with_name("BENCH_trial_batching.json")
    if "--json" in argv:
        operand = argv.index("--json") + 1
        if operand >= len(argv):
            print("usage: bench_trial_batching.py [--quick] "
                  "[--check-baseline] [--json PATH]")
            return 2
        json_path = Path(argv[operand])
    rows = run_grid(ns)
    print_table(rows)
    failures = check_floor(rows)
    if "--check-baseline" in argv:
        # Compare before write_json overwrites the committed copy.
        baseline_failures = check_baseline(
            rows, Path(__file__).with_name("BENCH_trial_batching.json"),
            key_fields=("n",),
        )
        failures.extend(baseline_failures)
        if not baseline_failures:
            print("baseline check: within tolerance of committed results")
    write_json(rows, json_path)
    print(f"wrote {json_path}")
    if failures:
        print("ACCEPTANCE BAR MISSED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"ok: batched >= {SPEEDUP_FLOOR}x per-trial, "
        "records identical across paths and executors"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
