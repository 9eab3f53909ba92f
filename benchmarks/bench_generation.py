"""Generator benchmark, plus the n = 10^6 keys-first check.

* **Array-path generation** (the ≥ 3x bar): ``gnd`` and
  ``powerlaw_host`` (numpy edge-array replays of their seeded streams)
  vs the scalar oracle loops they replay (``oracles.instances``) at
  n = 10^5, produced graphs asserted identical — the replay draws the
  loops' exact uniforms, so the speedup is pure implementation.

``--scale-check`` runs the end-to-end large-n demonstration: a
full-disclosure sweep (every player ships its view, the referee
answers :func:`~repro.core.referee.key_union_triangle_referee` on the
union of the shipped keys) on a sparse planted epsilon-far host at
**n = 10^6**.  Hosts are keys-first and the referee scans sorted edge
keys, so no n-bit row per vertex (125 GB at this n) is ever built.
The point runs in a subprocess so its peak RSS is measured in
isolation and gated against ``MILLION_MEMORY_BUDGET``.

``--check-baseline`` compares the fresh speedups against the committed
``BENCH_generation.json`` (see :mod:`baseline`) before overwriting it.

Usage::

    python benchmarks/bench_generation.py                  # two repeats
    python benchmarks/bench_generation.py --quick          # CI smoke
    python benchmarks/bench_generation.py --scale-check    # + n=1e6 sweep
    python benchmarks/bench_generation.py --check-baseline # vs committed
    python benchmarks/bench_generation.py --json PATH      # artifact path

Run as a script, it needs ``tests`` on ``PYTHONPATH`` for the oracles.
Also collected by ``pytest benchmarks/`` as a correctness+speedup test.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from baseline import check_baseline
from timing_helpers import best_of

from repro.analysis.experiments import run_sweep
from repro.comm.encoding import edge_bits
from repro.comm.ledger import CostSummary
from repro.core.referee import key_union_triangle_referee
from repro.core.results import DetectionResult
from repro.graphs.generators import (
    gnd,
    planted_disjoint_triangles,
    powerlaw_host,
)
from repro.graphs.partition import EdgePartition, partition_disjoint

from oracles.instances import gnd_reference, powerlaw_host_reference

#: (n, d) for the generation gate.  The bar holds from n = 10^5 up; the
#: scalar loop is the expensive side, so one point keeps the bench fast.
GEN_GRID = [(100_000, 8.0)]
GEN_SPEEDUP_FLOOR = 3.0
GEN_GATED = ("gnd_generation", "powerlaw_generation")

MILLION_N = 1_000_000
#: Peak-RSS budget for the whole n = 10^6 sweep subprocess (instance
#: generation + partition + referee), far above what the keys path
#: needs and still 30x under an n²/8-byte bitmap.
MILLION_MEMORY_BUDGET = 4 << 30


# ----------------------------------------------------------------------
# The full-disclosure sweep protocol (picklable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SparseFarBuilder:
    """``(n, d, seed) -> EdgePartition``: sparse planted far instance.

    ``n // 100`` vertex-disjoint planted triangles over a G(n, d)
    background, disjointly partitioned — the constant-degree host whose
    edge count (≈ n(d + 0.06)/2) stays O(n) at every scale.
    """

    k: int

    def __call__(self, n: int, d: float, seed: int) -> EdgePartition:
        instance = planted_disjoint_triangles(
            n, max(1, n // 100), seed=seed, background_degree=d
        )
        return partition_disjoint(instance.graph, k=self.k, seed=seed + 1)


@dataclass(frozen=True)
class FullDisclosureReferee:
    """Every player ships its whole view; the referee answers exactly.

    The cost model is the trivial upper bound the paper's protocols
    beat — |E_j| edges at ``edge_bits(n)`` each.  Detection is the
    simultaneous referee on the union of the players' key arrays, so
    the sweep runs generator → partition → referee on edge keys alone
    at any n.
    """

    def __call__(self, partition: EdgePartition,
                 seed: int) -> DetectionResult:
        n = partition.graph.n
        per_edge = edge_bits(n)
        shipped = sum(int(keys.size) for keys in partition.view_keys)
        triangle = key_union_triangle_referee(partition.view_keys, n)
        cost = CostSummary(
            total_bits=shipped * per_edge,
            upstream_bits=shipped * per_edge,
            downstream_bits=0,
            rounds=1,
            messages=partition.k,
        )
        witness = ()
        if triangle is not None:
            a, b, c = triangle
            witness = ((a, b), (a, c), (b, c))
        return DetectionResult(
            found=triangle is not None, triangle=triangle,
            cost=cost, witness_edges=witness,
        )


def _graph_nbytes_metric(spec, instance, outcome) -> dict:
    return {"graph_nbytes": instance.graph.nbytes}


# ----------------------------------------------------------------------
# Generation: array path vs scalar oracle
# ----------------------------------------------------------------------
def run_generation_grid(grid, repeats: int = 2) -> list[dict]:
    rows = []
    for n, d in grid:
        cases = [
            ("gnd_generation",
             lambda: gnd(n, d, seed=3),
             lambda: gnd_reference(n, d, seed=3)),
            ("powerlaw_generation",
             lambda: powerlaw_host(n, d, seed=3),
             lambda: powerlaw_host_reference(n, d, seed=3)),
        ]
        for name, build, reference in cases:
            vector_time, vector_graph = best_of(repeats, build)
            scalar_time, scalar_graph = best_of(repeats, reference)
            assert scalar_graph == vector_graph, (
                f"{name} edge sets differ at n={n}, d={d}"
            )
            rows.append({
                "n": n, "d": d, "case": name,
                "scalar_s": scalar_time, "vector_s": vector_time,
                "speedup": scalar_time / max(vector_time, 1e-12),
                "edges": scalar_graph.num_edges,
            })
    return rows


def check_generation_floor(rows) -> list[str]:
    failures = []
    for row in rows:
        if (
            row["case"] in GEN_GATED
            and row["n"] >= 100_000
            and row["speedup"] < GEN_SPEEDUP_FLOOR
        ):
            failures.append(
                f"{row['case']} at n={row['n']}: "
                f"{row['speedup']:.1f}x < {GEN_SPEEDUP_FLOOR}x"
            )
    return failures


# ----------------------------------------------------------------------
# Scale check
# ----------------------------------------------------------------------
def run_million_point() -> dict:
    """The n = 10^6 sweep point, run in *this* process (child mode)."""
    start = time.perf_counter()
    result = run_sweep(
        FullDisclosureReferee(), SparseFarBuilder(k=3),
        [(MILLION_N, 3.0, 3)], trials=1, seed=0,
        metrics=_graph_nbytes_metric,
    )
    elapsed = time.perf_counter() - start
    record = result.records[0]
    point = result.points[0]
    return {
        "n": MILLION_N,
        "found": record.found,
        "bits": record.bits,
        "graph_nbytes": record.extras["graph_nbytes"],
        "detection_rate": point.detection_rate,
        "seconds": round(elapsed, 2),
        "peak_rss_bytes": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss * 1024,
    }


def run_scale_check() -> tuple[list[str], dict]:
    """The n = 10^6 point, isolated in a subprocess."""
    failures = []
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--million-child"],
        capture_output=True, text=True, env=os.environ.copy(),
    )
    if child.returncode != 0:
        failures.append(
            f"n={MILLION_N} child failed "
            f"(rc={child.returncode}): {child.stderr.strip()[-500:]}"
        )
        return failures, {}
    summary = json.loads(child.stdout.strip().splitlines()[-1])
    if not summary["found"]:
        failures.append(
            f"n={MILLION_N}: full disclosure missed the planted triangles"
        )
    if summary["peak_rss_bytes"] > MILLION_MEMORY_BUDGET:
        failures.append(
            f"n={MILLION_N}: peak RSS "
            f"{summary['peak_rss_bytes'] / 2**30:.2f} GiB exceeds the "
            f"{MILLION_MEMORY_BUDGET / 2**30:.0f} GiB budget"
        )
    print(
        f"scale-check n={MILLION_N}: keys-first sweep ok in "
        f"{summary['seconds']}s — bits={summary['bits']}, "
        f"graph={summary['graph_nbytes'] / 2**20:.1f} MiB, "
        f"peak RSS={summary['peak_rss_bytes'] / 2**20:.0f} MiB "
        f"(budget {MILLION_MEMORY_BUDGET / 2**30:.0f} GiB)"
    )
    return failures, summary


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_generation_table(rows) -> None:
    header = (
        f"{'n':>7} {'d':>5} {'case':<20} {'scalar':>10} {'vector':>10} "
        f"{'x':>7}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>7} {row['d']:>5.1f} {row['case']:<20} "
            f"{row['scalar_s'] * 1e3:>8.1f}ms "
            f"{row['vector_s'] * 1e3:>8.1f}ms {row['speedup']:>6.1f}x"
        )


def write_json(rows, path: Path, scale_check=None) -> None:
    payload = {
        "bench": "generation",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "generation_floor": GEN_SPEEDUP_FLOOR,
        "gated_cases": list(GEN_GATED),
        "rows": rows,
    }
    if scale_check is not None:
        payload["scale_check"] = scale_check
    path.write_text(json.dumps(payload, indent=2) + "\n")


# ----------------------------------------------------------------------
# pytest entry
# ----------------------------------------------------------------------
def test_vectorized_generation_speedup(benchmark, print_row):
    """pytest entry: generation gate at n = 10^5, identical edge sets."""
    rows = benchmark.pedantic(
        lambda: run_generation_grid(GEN_GRID, repeats=1),
        rounds=1, iterations=1,
    )
    for row in rows:
        print_row(f"{row['case']} n={row['n']}: {row['speedup']:.1f}x")
    benchmark.extra_info["speedups"] = {
        f"{r['case']}@{r['n']}": round(r["speedup"], 2) for r in rows
    }
    assert not check_generation_floor(rows)


# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    if "--million-child" in argv:
        print(json.dumps(run_million_point()))
        return 0

    quick = "--quick" in argv
    json_path = Path(__file__).with_name("BENCH_generation.json")
    if "--json" in argv:
        operand = argv.index("--json") + 1
        if operand >= len(argv):
            print(
                "usage: bench_generation.py [--quick] [--scale-check] "
                "[--check-baseline] [--json PATH]"
            )
            return 2
        json_path = Path(argv[operand])

    failures: list[str] = []
    scale_check = None
    if "--scale-check" in argv:
        # First, while this process is small: a forked child's peak RSS
        # starts from its parent's resident size at the fork, and the
        # scalar reference graphs below hold about 1 GiB.
        scale_failures, summary = run_scale_check()
        failures.extend(scale_failures)
        scale_check = {"ok": not scale_failures, **summary}

    rows = run_generation_grid(GEN_GRID, repeats=1 if quick else 2)
    print_generation_table(rows)
    failures.extend(check_generation_floor(rows))

    if "--check-baseline" in argv:
        # Compare before write_json overwrites the committed copy.
        baseline_failures = check_baseline(
            rows, Path(__file__).with_name("BENCH_generation.json")
        )
        failures.extend(baseline_failures)
        if not baseline_failures:
            print("baseline check: within tolerance of committed results")

    write_json(rows, json_path, scale_check)
    print(f"wrote {json_path}")

    if failures:
        print("SPEEDUP FLOOR MISSED / BUDGET EXCEEDED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"ok: generation >= {GEN_SPEEDUP_FLOOR}x over the scalar oracle, "
        f"edge sets identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
