"""Pattern engine vs the networkx VF2 path it replaced.

Three trial families per (n, pattern), each timing the H-copy search
exactly as :func:`repro.core.subgraph_detection.find_subgraph_simultaneous`'s
referee performs it — mask path
(:func:`repro.core.referee.rows_union_subgraph_referee`, rows union +
canonical-first engine) vs the historical ``set[Edge]`` union + networkx
VF2 (:func:`oracles.core.set_union_subgraph_referee`) — on the
protocol's real per-round messages:

* **referee-miss** — messages from a certifiably H-free control
  (triangle-free bipartite for K4/C5 — no triangles, no odd cycles —
  and the girth-6 projective-plane incidence graph for C4), so every
  round's search is exhaustive.  This is the regime that dominates the
  one-sided tester's cost (it pays full search exactly when nothing is
  found) and the gated comparison: the acceptance bar is >= 3x at
  n=2000-4000.
* **referee-hit** — messages from a planted ε-far instance; the loop
  stops at the winning round.  Reported ungated: when the union is
  copy-rich both searches return in ~1ms and the ratio mostly measures
  how lucky VF2's first branch got.
* **matcher** — whole-host search: the rows engine
  (:func:`repro.patterns.matcher.find_copy`) vs VF2 on the same planted
  graph, reported ungated (same direction, larger hosts).

Outputs are asserted identical before any speedup is reported: both
referees must agree on found/not-found *and* the winning round, and
every reported copy is validated as a genuine monomorphism image of its
round's union via :func:`repro.patterns.matcher.is_copy_in_rows` (VF2's
copy may legitimately differ from the canonical-first one, so images are
certified, not compared bit for bit).  Results go to
``BENCH_patterns.json`` (or ``--json PATH``).

Requires networkx (the optional ``reference`` extra) for the VF2 side.

Usage::

    python benchmarks/bench_patterns.py            # full grid
    python benchmarks/bench_patterns.py --quick    # CI smoke grid

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

from repro.comm.players import make_players
from repro.comm.randomness import SharedRandomness
from repro.core.referee import rows_union_subgraph_referee, union_rows
from repro.core.subgraph_detection import SubgraphParams
from repro.graphs.generators import bipartite_triangle_free
from repro.graphs.partition import partition_disjoint
from repro.patterns.catalog import FIVE_CYCLE, FOUR_CLIQUE, FOUR_CYCLE
from repro.patterns.matcher import find_copy, is_copy_in_rows
from repro.patterns.plant import (
    incidence_c4_free,
    planted_disjoint_subgraphs,
)

from oracles.core import set_union_subgraph_referee
from oracles.patterns import find_copy_among_reference

FULL_NS = [2000, 3000, 4000]
QUICK_NS = [2000]

PATTERNS = (FOUR_CLIQUE, FOUR_CYCLE, FIVE_CYCLE)
SPEEDUP_FLOOR = 3.0
GATED = ("referee-miss",)
D = 8.0
K = 3
PARAMS = SubgraphParams(epsilon=0.2, c=1.5, rounds=3)

#: Primes q with 2(q^2+q+1) nearest each grid n: the C4-free control's
#: size is quantized by the projective plane's order.
C4_FREE_ORDER = {2000: 31, 3000: 37, 4000: 43}


def _instance(n: int, pattern, seed: int):
    copies = max(5, int(0.15 * n / 8))
    instance = planted_disjoint_subgraphs(
        n, pattern, copies, seed=seed, background_degree=D
    )
    return instance, partition_disjoint(instance.graph, k=K, seed=seed + 1)


def _referee_messages(partition, pattern, seed: int):
    """The protocol's real per-player per-round messages, precomputed."""
    players = make_players(partition)
    n = partition.graph.n
    shared = SharedRandomness(seed)
    p = PARAMS.sample_probability(
        n, partition.graph.average_degree(), pattern
    )
    samples = [
        shared.bernoulli_subset_mask(n, p, tag=100 + r)
        for r in range(PARAMS.rounds)
    ]
    return [
        [player.edges_within_mask(sample) for sample in samples]
        for player in players
    ]


def _control_partition(n: int, pattern):
    """A certifiably H-free control: every referee round misses."""
    if pattern.name == "C4":
        control = incidence_c4_free(C4_FREE_ORDER[n])
    else:
        # Bipartite => triangle-free => K4-free, and no odd cycles => C5-free.
        control = bipartite_triangle_free(n, D, seed=7)
    return partition_disjoint(control, k=K, seed=8)


def _referee_miss_trial(n: int, pattern, repeats: int) -> dict:
    partition = _control_partition(n, pattern)
    # VF2's exhaustive miss search runs seconds per call and the margin
    # is ~10x the floor: best-of-2 keeps the CI grid inside a minute.
    row = _time_referees(partition, pattern, min(repeats, 2))
    # On an H-free control a found copy would be a matcher bug: fold the
    # must-miss check into the identity flag.
    row["identical"] &= not row["found"]
    return row


def _referee_hit_trial(n: int, pattern, repeats: int) -> dict:
    _, partition = _instance(n, pattern, seed=7)
    return _time_referees(partition, pattern, repeats)


def _time_referees(partition, pattern, repeats: int) -> dict:
    n = partition.graph.n
    messages = _referee_messages(partition, pattern, seed=1)
    rounds = PARAMS.rounds

    def mask_referee():
        for round_index in range(rounds):
            copy = rows_union_subgraph_referee(
                (message[round_index] for message in messages), n, pattern
            )
            if copy is not None:
                return copy, round_index
        return None, None

    def vf2_referee():
        for round_index in range(rounds):
            copy = set_union_subgraph_referee(
                (message[round_index] for message in messages), pattern
            )
            if copy is not None:
                return copy, round_index
        return None, None

    mask_s, (mask_copy, mask_round) = best_of(repeats, mask_referee)
    set_s, (set_copy, set_round) = best_of(repeats, vf2_referee)
    identical = (mask_copy is None) == (set_copy is None) and \
        mask_round == set_round
    for copy, round_index in ((mask_copy, mask_round),
                              (set_copy, set_round)):
        if copy is not None:
            round_rows = union_rows(
                (message[round_index] for message in messages), n
            )
            identical &= is_copy_in_rows(round_rows, pattern, copy)
    return {
        "mask_s": mask_s, "set_s": set_s, "identical": identical,
        "found": mask_copy is not None, "winning_round": mask_round,
    }


def _matcher_trial(n: int, pattern, repeats: int) -> dict:
    instance, _ = _instance(n, pattern, seed=7)
    graph = instance.graph
    edges = sorted(graph.edges())

    mask_s, mask_copy = best_of(repeats, lambda: find_copy(graph, pattern))
    set_s, vf2_copy = best_of(
        repeats, lambda: find_copy_among_reference(edges, pattern)
    )
    rows = graph.adjacency_rows()
    identical = (
        mask_copy is not None and vf2_copy is not None
        and is_copy_in_rows(rows, pattern, mask_copy)
        and is_copy_in_rows(rows, pattern, vf2_copy)
    )
    return {
        "mask_s": mask_s, "set_s": set_s, "identical": identical,
        "found": mask_copy is not None, "winning_round": None,
    }


TRIALS = [
    ("referee-miss", _referee_miss_trial),
    ("referee-hit", _referee_hit_trial),
    ("matcher", _matcher_trial),
]


def run_grid(ns: list[int], repeats: int = 5) -> list[dict]:
    rows = []
    for n in ns:
        for pattern in PATTERNS:
            for name, trial in TRIALS:
                row = trial(n, pattern, repeats)
                # Mismatches are recorded, not raised: the JSON must
                # reflect the failing run (written before the gate fires).
                rows.append({
                    "n": n, "pattern": pattern.name, "family": name,
                    "speedup": row["set_s"] / max(row["mask_s"], 1e-12),
                    **row,
                })
    return rows


def print_table(rows) -> None:
    header = (
        f"{'n':>6} {'pattern':<8} {'family':<13} "
        f"{'vf2':>9} {'mask':>9} {'x':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>6} {row['pattern']:<8} {row['family']:<13} "
            f"{row['set_s'] * 1e3:>7.2f}ms {row['mask_s'] * 1e3:>7.2f}ms "
            f"{row['speedup']:>7.1f}x"
        )


def check_floor(rows) -> list[str]:
    """The acceptance bar: identical outputs, gated families >= floor."""
    failures = [
        f"{row['family']}/{row['pattern']} at n={row['n']}: "
        "mask and reference outputs differ"
        for row in rows if not row["identical"]
    ]
    failures.extend(
        f"{row['family']}/{row['pattern']} at n={row['n']}: "
        f"{row['speedup']:.1f}x < {SPEEDUP_FLOOR}x"
        for row in rows
        if row["family"] in GATED and row["speedup"] < SPEEDUP_FLOOR
    )
    return failures


def write_json(rows, path: Path) -> None:
    path.write_text(json.dumps({
        "bench": "patterns",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "speedup_floor": SPEEDUP_FLOOR,
        "gated_families": list(GATED),
        "rows": rows,
    }, indent=2) + "\n")


def test_pattern_engine_speedup_and_identical_results(benchmark, print_row):
    """pytest entry: quick grid, outputs identical, floors respected."""
    import pytest

    pytest.importorskip("networkx")
    rows = benchmark.pedantic(
        lambda: run_grid(QUICK_NS, repeats=3), rounds=1, iterations=1
    )
    for row in rows:
        print_row(
            f"patterns {row['family']}/{row['pattern']} n={row['n']}: "
            f"{row['speedup']:.1f}x"
        )
    benchmark.extra_info["speedups"] = {
        f"{r['family']}/{r['pattern']}@{r['n']}": round(r["speedup"], 2)
        for r in rows
    }
    assert not check_floor(rows)


def main(argv: list[str]) -> int:
    ns = QUICK_NS if "--quick" in argv else FULL_NS
    json_path = Path(__file__).with_name("BENCH_patterns.json")
    if "--json" in argv:
        operand = argv.index("--json") + 1
        if operand >= len(argv):
            print("usage: bench_patterns.py [--quick] "
                  "[--check-baseline] [--json PATH]")
            return 2
        json_path = Path(argv[operand])
    rows = run_grid(ns)
    print_table(rows)
    failures = check_floor(rows)
    if "--check-baseline" in argv:
        # Compare before write_json overwrites the committed copy; only
        # the gated family — hit-path and matcher micro rows finish too
        # fast for their ratios to be stable.
        gated_rows = [r for r in rows if r["family"] in GATED]
        baseline_failures = check_baseline(
            gated_rows, Path(__file__).with_name("BENCH_patterns.json"),
            key_fields=("family", "pattern", "n"),
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
        f"ok: miss-path referee H-copy search >= {SPEEDUP_FLOOR}x, "
        "all outputs identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
