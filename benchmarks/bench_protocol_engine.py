"""Mask-native protocol engine vs the set-based reference players.

PR 2 made the *graph* layer word-wide; this driver measures the protocol
*execution* layer that PR 3 rebuilt on the same kernel: whole-protocol
trials of the simultaneous testers (sim-low, sim-high, oblivious) on the
canonical epsilon-far disjoint partition, run once with the mask-native
:class:`~repro.comm.players.Player` (players memoized on the
partition, key-array mask harvests, O(1) ledger) and once with the preserved
:class:`~oracles.comm.SetPlayer` (per-trial frozenset shredding,
per-edge Python set harvests).  Both execute the identical protocol code
(:func:`oracles.comm.set_players` swaps the protocol modules'
``make_players``), and every ``DetectionResult`` —
triangle, witness edges, cost summary, details — is asserted equal
before a speedup is reported.

The engine PR's acceptance bar: >= 3x on every protocol at n in
2000-4000, byte-identical outputs.  Results are also written to
``BENCH_protocol_engine.json`` next to this file (or ``--json PATH``) so
the perf trajectory has machine-readable data points.

Usage::

    python benchmarks/bench_protocol_engine.py            # full grid
    python benchmarks/bench_protocol_engine.py --quick    # CI smoke grid

Also collected by ``pytest benchmarks/`` as a correctness+speedup test
on the quick grid.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

from baseline import check_baseline
from timing_helpers import best_of

from repro.analysis.table1 import far_disjoint_instance
from repro.core import oblivious, simultaneous_high, simultaneous_low
from repro.core.oblivious import ObliviousParams, find_triangle_sim_oblivious
from repro.core.simultaneous_high import SimHighParams, find_triangle_sim_high
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low

from oracles.comm import set_players

#: (n, d) on the canonical far instance (epsilon=0.2, k=3, seed 7).
FULL_GRID = [(2000, 8.0), (3000, 8.0), (4000, 8.0)]
QUICK_GRID = [(2000, 8.0)]

SPEEDUP_FLOOR = 3.0
TRIAL_SEED = 1
K = 3

#: (name, protocol module, run on a partition).
PROTOCOLS = [
    (
        "sim-low", simultaneous_low,
        lambda part: find_triangle_sim_low(
            part, SimLowParams(epsilon=0.2, delta=0.2), seed=TRIAL_SEED,
        ),
    ),
    (
        "sim-high", simultaneous_high,
        lambda part: find_triangle_sim_high(
            part, SimHighParams(epsilon=0.2, delta=0.2, c=2.0),
            seed=TRIAL_SEED,
        ),
    ),
    (
        "oblivious", oblivious,
        lambda part: find_triangle_sim_oblivious(
            part, ObliviousParams(epsilon=0.2, delta=0.2), seed=TRIAL_SEED,
        ),
    ),
]


def run_grid(grid, repeats: int = 5) -> list[dict]:
    build = far_disjoint_instance(epsilon=0.2, k=K)
    rows = []
    for n, d in grid:
        partition = build(n, d, 7)
        for name, module, protocol in PROTOCOLS:
            mask_s, mask_out = best_of(repeats, lambda: protocol(partition))
            with set_players(module):
                set_s, set_out = best_of(
                    repeats, lambda: protocol(partition)
                )
            # Mismatches are recorded, not raised: the JSON must reflect
            # the failing run (it is written before the gate fires).
            rows.append({
                "n": n, "d": d, "protocol": name,
                "mask_s": mask_s, "set_s": set_s,
                "speedup": set_s / max(mask_s, 1e-12),
                "identical": mask_out == set_out,
                "found": mask_out.found,
                "total_bits": mask_out.cost.total_bits,
            })
    return rows


def print_table(rows) -> None:
    header = (
        f"{'n':>6} {'d':>5} {'protocol':<12} {'set':>9} {'mask':>9} {'x':>7}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>6} {row['d']:>5.1f} {row['protocol']:<12} "
            f"{row['set_s'] * 1e3:>7.1f}ms {row['mask_s'] * 1e3:>7.1f}ms "
            f"{row['speedup']:>6.1f}x"
        )


def check_floor(rows) -> list[str]:
    """The acceptance bar: identical outputs, every trial >= the floor."""
    failures = [
        f"{row['protocol']} at n={row['n']}: DetectionResult mismatch "
        "between mask and reference players"
        for row in rows if not row["identical"]
    ]
    failures.extend(
        f"{row['protocol']} at n={row['n']}: "
        f"{row['speedup']:.1f}x < {SPEEDUP_FLOOR}x"
        for row in rows
        if row["n"] >= 2000 and row["speedup"] < SPEEDUP_FLOOR
    )
    return failures


def write_json(rows, path: Path) -> None:
    path.write_text(json.dumps({
        "bench": "protocol_engine",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "speedup_floor": SPEEDUP_FLOOR,
        "rows": rows,
    }, indent=2) + "\n")


def test_protocol_engine_speedup_and_identical_results(benchmark, print_row):
    """pytest entry: quick grid, results identical, floor respected."""
    rows = benchmark.pedantic(
        lambda: run_grid(QUICK_GRID, repeats=3), rounds=1, iterations=1
    )
    for row in rows:
        print_row(
            f"engine {row['protocol']} n={row['n']}: {row['speedup']:.1f}x"
        )
    benchmark.extra_info["speedups"] = {
        f"{r['protocol']}@{r['n']}": round(r["speedup"], 2) for r in rows
    }
    assert not check_floor(rows)


def main(argv: list[str]) -> int:
    grid = QUICK_GRID if "--quick" in argv else FULL_GRID
    json_path = Path(__file__).with_name("BENCH_protocol_engine.json")
    if "--json" in argv:
        operand = argv.index("--json") + 1
        if operand >= len(argv):
            print("usage: bench_protocol_engine.py [--quick] "
                  "[--check-baseline] [--json PATH]")
            return 2
        json_path = Path(argv[operand])
    rows = run_grid(grid)
    print_table(rows)
    failures = check_floor(rows)
    if "--check-baseline" in argv:
        # Compare before write_json overwrites the committed copy.
        baseline_failures = check_baseline(
            rows, Path(__file__).with_name("BENCH_protocol_engine.json"),
            key_fields=("protocol", "n"),
        )
        failures.extend(baseline_failures)
        if not baseline_failures:
            print("baseline check: within tolerance of committed results")
    write_json(rows, json_path)
    print(f"wrote {json_path}")
    if failures:
        print("SPEEDUP FLOOR MISSED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"ok: all protocols >= {SPEEDUP_FLOOR}x, DetectionResults identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
