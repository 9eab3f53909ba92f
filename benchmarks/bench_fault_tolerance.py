"""Fault-tolerant sweep runtime: what supervision and journaling cost.

Supervision (retry/timeout bookkeeping, the durable trial journal,
crash-safe resume) runs in the same batched loop as a plain, fail-fast
run, and it must stay cheap: fault tolerance that taxes every healthy
sweep would be paid for constantly and used rarely.

The workload is the standard detection-probability estimate (sim-low
protocol, one grid point, seeded trials).  Each row measures, against
a plain serial run:

* ``supervised`` — retry policy engaged, no faults, no journal;
* ``journal`` — every completed trial fsync'd to a JSONL journal;
* ``journal_nofsync`` — the same with ``fsync=False`` (close-time
  durability only), isolating the fsync cost;
* ``resume`` — re-running the sweep against its complete journal, i.e.
  the pure replay path.

The acceptance bar, asserted before any number is reported:

* every variant's records are byte-identical to the plain run's
  (``pickle.dumps`` equality — the repo's record-stream invariant);
* supervision + journaling cost <= ``OVERHEAD_CEILING`` (2x) on this
  real workload;
* resume replays >= ``RESUME_FLOOR`` (5x) faster than recomputing.

Results go to ``BENCH_fault_tolerance.json`` (or ``--json PATH``).

Usage::

    python benchmarks/bench_fault_tolerance.py            # full grid
    python benchmarks/bench_fault_tolerance.py --quick    # CI smoke grid

Also collected by ``pytest benchmarks/`` on the quick grid.
"""

from __future__ import annotations

import json
import pickle
import platform
import sys
import tempfile
import time
from pathlib import Path

from baseline import check_baseline
from timing_helpers import quiet_generator_shortfall

from repro.analysis.experiments import DefaultInstanceBuilder
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.runtime import RetryPolicy, SerialExecutor, build_specs, run_trials

FULL_NS = [1000, 2000]
QUICK_NS = [1000]

OVERHEAD_CEILING = 2.0
RESUME_FLOOR = 5.0
D = 8.0
K = 3
TRIALS = 8
SWEEP_SEED = 7

PARAMS = SimLowParams(epsilon=0.2, delta=0.2)


def sim_low_protocol(partition, seed, *, shared=None):
    return find_triangle_sim_low(partition, PARAMS, seed=seed, shared=shared)


def _timed(fn):
    start = time.perf_counter()
    records = fn()
    return records, time.perf_counter() - start


def _trial(n: int) -> dict:
    builder = DefaultInstanceBuilder(epsilon=0.2, k=K)
    specs = build_specs([(n, D, K)], TRIALS, SWEEP_SEED)
    retry = RetryPolicy(max_attempts=3, backoff_base=0.0)

    plain, plain_s = _timed(lambda: run_trials(
        sim_low_protocol, builder, specs, executor=SerialExecutor()))

    supervised, supervised_s = _timed(lambda: run_trials(
        sim_low_protocol, builder, specs, executor=SerialExecutor(),
        retry=retry))

    with tempfile.TemporaryDirectory() as tmp:
        from repro.runtime import RunJournal

        fsync_path = str(Path(tmp) / "fsync.jsonl")
        journaled, journal_s = _timed(lambda: run_trials(
            sim_low_protocol, builder, specs, executor=SerialExecutor(),
            journal=fsync_path))

        nofsync_path = Path(tmp) / "nofsync.jsonl"
        with RunJournal(nofsync_path, fsync=False) as journal:
            nofsync, nofsync_s = _timed(lambda: run_trials(
                sim_low_protocol, builder, specs, executor=SerialExecutor(),
                journal=journal))

        resumed, resume_s = _timed(lambda: run_trials(
            sim_low_protocol, builder, specs, executor=SerialExecutor(),
            journal=fsync_path, resume=True))

    baseline = pickle.dumps(plain)
    return {
        "plain_s": plain_s,
        "supervised_s": supervised_s,
        "journal_s": journal_s,
        "journal_nofsync_s": nofsync_s,
        "resume_s": resume_s,
        "supervised_identical": pickle.dumps(supervised) == baseline,
        "journal_identical": pickle.dumps(journaled) == baseline,
        "nofsync_identical": pickle.dumps(nofsync) == baseline,
        "resume_identical": pickle.dumps(resumed) == baseline,
        "trials": TRIALS,
    }


def run_grid(ns: list[int]) -> list[dict]:
    rows = []
    with quiet_generator_shortfall():
        for n in ns:
            row = _trial(n)
            rows.append({
                "n": n,
                "supervised_overhead":
                    row["supervised_s"] / max(row["plain_s"], 1e-12),
                "journal_overhead":
                    row["journal_s"] / max(row["plain_s"], 1e-12),
                "resume_speedup":
                    row["plain_s"] / max(row["resume_s"], 1e-12),
                **row,
            })
    return rows


def print_table(rows) -> None:
    header = (
        f"{'n':>6} {'plain':>8} {'superv':>8} {'journal':>8} "
        f"{'resume':>8} {'ovh':>6} {'replay':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>6} "
            f"{row['plain_s'] * 1e3:>6.1f}ms "
            f"{row['supervised_s'] * 1e3:>6.1f}ms "
            f"{row['journal_s'] * 1e3:>6.1f}ms "
            f"{row['resume_s'] * 1e3:>6.1f}ms "
            f"{row['journal_overhead']:>5.2f}x "
            f"{row['resume_speedup']:>7.1f}x"
        )


def check_floor(rows) -> list[str]:
    """The acceptance bar: identical records, bounded cost, fast replay."""
    failures = []
    for row in rows:
        for variant in ("supervised", "journal", "nofsync", "resume"):
            if not row[f"{variant}_identical"]:
                failures.append(
                    f"n={row['n']}: {variant} records differ from plain"
                )
        for overhead in ("supervised_overhead", "journal_overhead"):
            if row[overhead] > OVERHEAD_CEILING:
                failures.append(
                    f"n={row['n']}: {overhead} {row[overhead]:.2f}x "
                    f"> {OVERHEAD_CEILING}x"
                )
        if row["resume_speedup"] < RESUME_FLOOR:
            failures.append(
                f"n={row['n']}: resume replay {row['resume_speedup']:.1f}x "
                f"< {RESUME_FLOOR}x"
            )
    return failures


def write_json(rows, path: Path) -> None:
    path.write_text(json.dumps({
        "bench": "fault_tolerance",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "overhead_ceiling": OVERHEAD_CEILING,
        "resume_floor": RESUME_FLOOR,
        "rows": rows,
    }, indent=2) + "\n")


def test_fault_tolerance_overhead_and_identical_records(benchmark, print_row):
    """pytest entry: quick grid, identical records, bounded overhead."""
    rows = benchmark.pedantic(
        lambda: run_grid(QUICK_NS), rounds=1, iterations=1
    )
    for row in rows:
        print_row(
            f"fault-tolerance n={row['n']}: journal "
            f"{row['journal_overhead']:.2f}x, replay "
            f"{row['resume_speedup']:.1f}x"
        )
    benchmark.extra_info["journal_overheads"] = {
        str(r["n"]): round(r["journal_overhead"], 3) for r in rows
    }
    assert not check_floor(rows)


def main(argv: list[str]) -> int:
    ns = QUICK_NS if "--quick" in argv else FULL_NS
    json_path = Path(__file__).with_name("BENCH_fault_tolerance.json")
    if "--json" in argv:
        operand = argv.index("--json") + 1
        if operand >= len(argv):
            print("usage: bench_fault_tolerance.py [--quick] "
                  "[--check-baseline] [--json PATH]")
            return 2
        json_path = Path(argv[operand])
    rows = run_grid(ns)
    print_table(rows)
    failures = check_floor(rows)
    if "--check-baseline" in argv:
        # Compare before write_json overwrites the committed copy.  The
        # gated quantity is replay speed: journal/supervision overheads
        # hover near 1.0x and have their own absolute ceiling above.
        baseline_failures = check_baseline(
            rows, Path(__file__).with_name("BENCH_fault_tolerance.json"),
            key_fields=("n",), value_field="resume_speedup",
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
        f"ok: supervision + journal <= {OVERHEAD_CEILING}x plain, "
        f"resume replay >= {RESUME_FLOOR}x, records identical throughout"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
