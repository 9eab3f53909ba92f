"""Mask-native migration of the last set-based layers vs their references.

PR 2 made the graph kernel word-wide and PR 3 the simultaneous protocol
engine; this driver measures the three layers PR 4 migrated:

* **chain-reduction** — the streaming → one-way chain
  (:func:`repro.streaming.reduction.streaming_to_oneway`, row-batched
  feed + rows-serialized states) vs the preserved per-edge pipeline
  (:func:`oracles.streaming.streaming_to_oneway_reference` with
  the ``set[Edge]``-state exact finder);
* **oneway-curve** — the sample-and-intersect one-way protocol on µ
  (partition-adjacency-row messages, per-U-vertex mask intersection) vs
  :func:`oracles.lowerbounds.oneway_triangle_edge_protocol_reference`;
* **blackboard** — deduplicating edge-posting rounds on the posted-rows
  board (:meth:`~repro.comm.blackboard.BlackboardRuntime.post_rows_in_turns`)
  vs the set-of-tuples loop preserved in
  :func:`oracles.comm.post_edges_in_turns_reference`, on an
  all-to-all duplicated input (the Theorem 3.23 regime).

Every trial asserts the mask and reference paths produce identical
outputs — chain outputs, per-hop charges, and forwarded edge sets;
one-way transcripts byte for byte; posted payloads, board, and ledger
summaries — before a speedup is reported.  The acceptance bar gates
chain-reduction and blackboard at >= 2x for n in 2000-4000 (the one-way
speedup is reported ungated; it runs well above the floor).  Results are
written to ``BENCH_mask_migration.json`` (or ``--json PATH``).

Usage::

    python benchmarks/bench_mask_migration.py            # full grid
    python benchmarks/bench_mask_migration.py --quick    # CI smoke grid

Also collected by ``pytest benchmarks/`` as a correctness+speedup test
on the quick grid.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

from baseline import check_baseline
from timing_helpers import best_of, quiet_generator_shortfall

from repro.analysis.table1 import far_disjoint_instance
from repro.comm.blackboard import BlackboardRuntime
from repro.comm.encoding import edge_bits
from repro.comm.players import make_players
from repro.comm.randomness import SharedRandomness
from repro.graphs.generators import gnd
from repro.graphs.partition import partition_all_to_all
from repro.lowerbounds.distributions import MuDistribution
from repro.lowerbounds.oneway_protocols import oneway_triangle_edge_protocol
from repro.streaming.reduction import streaming_to_oneway
from repro.streaming.triangle_stream import CountingExactFinder

from oracles.comm import post_edges_in_turns_reference
from oracles.lowerbounds import oneway_triangle_edge_protocol_reference
from oracles.streaming import (
    CountingExactFinderReference,
    state_edges,
    streaming_to_oneway_reference,
)

FULL_NS = [2000, 3000, 4000]
QUICK_NS = [2000]

SPEEDUP_FLOOR = 2.0
GATED = ("chain-reduction", "blackboard")
D = 8.0
#: Theorem 3.23's saving is a factor of the duplication: every player
#: past the first is pure stale-harvest dedup work, which the board does
#: as one mask scan per player and the set reference does per edge.
K_BLACKBOARD = 6
ONEWAY_BUDGET = 256


def _chain_trial(n: int, repeats: int) -> dict:
    partition = far_disjoint_instance(epsilon=0.2, k=3)(n, D, 7)
    mask_s, mask_run = best_of(
        repeats,
        lambda: streaming_to_oneway(
            partition, lambda: CountingExactFinder(n)
        ),
    )
    set_s, set_run = best_of(
        repeats,
        lambda: streaming_to_oneway_reference(
            partition, lambda: CountingExactFinderReference(n)
        ),
    )
    identical = (
        mask_run.output == set_run.output
        and mask_run.total_bits == set_run.total_bits
        and [m[2] for m in mask_run.transcript.messages]
        == [m[2] for m in set_run.transcript.messages]
        and [state_edges(m[1]) for m in mask_run.transcript.messages]
        == [state_edges(m[1]) for m in set_run.transcript.messages]
    )
    return {
        "mask_s": mask_s, "set_s": set_s, "identical": identical,
        "total_bits": mask_run.total_bits,
    }


def _oneway_trial(n: int, repeats: int) -> dict:
    mu = MuDistribution(part_size=n // 3, gamma=1.0)
    sample = mu.sample_far(seed=7)
    mask_s, mask_run = best_of(
        repeats,
        lambda: oneway_triangle_edge_protocol(sample, ONEWAY_BUDGET, seed=1),
    )
    set_s, set_run = best_of(
        repeats,
        lambda: oneway_triangle_edge_protocol_reference(
            sample, ONEWAY_BUDGET, seed=1
        ),
    )
    identical = (
        mask_run.output == set_run.output
        and mask_run.total_bits == set_run.total_bits
        and mask_run.transcript.messages == set_run.transcript.messages
    )
    return {
        "mask_s": mask_s, "set_s": set_s, "identical": identical,
        "total_bits": mask_run.total_bits,
    }


def _blackboard_trial(n: int, repeats: int) -> dict:
    graph = gnd(n, D, seed=5)
    partition = partition_all_to_all(graph, K_BLACKBOARD)
    players = make_players(partition)

    def mask_post():
        rt = BlackboardRuntime(players, SharedRandomness(2))
        posted = rt.post_rows_in_turns(
            lambda p: p.adjacency_rows(), edge_bits(n)
        )
        return rt, posted

    def set_post():
        rt = BlackboardRuntime(players, SharedRandomness(2))
        posted = post_edges_in_turns_reference(
            rt, lambda p: p.sorted_edges(), edge_bits(n)
        )
        return rt, posted

    mask_s, (mask_rt, mask_posted) = best_of(repeats, mask_post)
    set_s, (set_rt, set_posted) = best_of(repeats, set_post)
    identical = (
        set(mask_posted) == set_posted
        and mask_rt.board == set_rt.board
        and mask_rt.ledger.summary() == set_rt.ledger.summary()
    )
    return {
        "mask_s": mask_s, "set_s": set_s, "identical": identical,
        "total_bits": mask_rt.ledger.total_bits,
    }


TRIALS = [
    ("chain-reduction", _chain_trial),
    ("oneway-curve", _oneway_trial),
    ("blackboard", _blackboard_trial),
]


def run_grid(ns: list[int], repeats: int = 5) -> list[dict]:
    rows = []
    with quiet_generator_shortfall():
        for n in ns:
            for name, trial in TRIALS:
                row = trial(n, repeats)
                # Mismatches are recorded, not raised: the JSON must
                # reflect the failing run (written before the gate fires).
                rows.append({
                    "n": n, "layer": name,
                    "speedup": row["set_s"] / max(row["mask_s"], 1e-12),
                    **row,
                })
    return rows


def print_table(rows) -> None:
    header = (
        f"{'n':>6} {'layer':<16} {'set':>9} {'mask':>9} {'x':>7}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>6} {row['layer']:<16} "
            f"{row['set_s'] * 1e3:>7.1f}ms {row['mask_s'] * 1e3:>7.1f}ms "
            f"{row['speedup']:>6.1f}x"
        )


def check_floor(rows) -> list[str]:
    """The acceptance bar: identical outputs, gated layers >= the floor."""
    failures = [
        f"{row['layer']} at n={row['n']}: mask and reference outputs differ"
        for row in rows if not row["identical"]
    ]
    failures.extend(
        f"{row['layer']} at n={row['n']}: "
        f"{row['speedup']:.1f}x < {SPEEDUP_FLOOR}x"
        for row in rows
        if row["layer"] in GATED and row["speedup"] < SPEEDUP_FLOOR
    )
    return failures


def write_json(rows, path: Path) -> None:
    path.write_text(json.dumps({
        "bench": "mask_migration",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "speedup_floor": SPEEDUP_FLOOR,
        "gated_layers": list(GATED),
        "rows": rows,
    }, indent=2) + "\n")


def test_mask_migration_speedup_and_identical_results(benchmark, print_row):
    """pytest entry: quick grid, outputs identical, floors respected."""
    rows = benchmark.pedantic(
        lambda: run_grid(QUICK_NS, repeats=3), rounds=1, iterations=1
    )
    for row in rows:
        print_row(
            f"migration {row['layer']} n={row['n']}: {row['speedup']:.1f}x"
        )
    benchmark.extra_info["speedups"] = {
        f"{r['layer']}@{r['n']}": round(r["speedup"], 2) for r in rows
    }
    assert not check_floor(rows)


def main(argv: list[str]) -> int:
    ns = QUICK_NS if "--quick" in argv else FULL_NS
    json_path = Path(__file__).with_name("BENCH_mask_migration.json")
    if "--json" in argv:
        operand = argv.index("--json") + 1
        if operand >= len(argv):
            print("usage: bench_mask_migration.py [--quick] "
                  "[--check-baseline] [--json PATH]")
            return 2
        json_path = Path(argv[operand])
    rows = run_grid(ns)
    print_table(rows)
    failures = check_floor(rows)
    if "--check-baseline" in argv:
        # Compare before write_json overwrites the committed copy; only
        # the gated layers — oneway-curve finishes in microseconds, so
        # its ratio is all noise.
        gated_rows = [r for r in rows if r["layer"] in GATED]
        baseline_failures = check_baseline(
            gated_rows, Path(__file__).with_name("BENCH_mask_migration.json"),
            key_fields=("layer", "n"),
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
        f"ok: chain-reduction and blackboard >= {SPEEDUP_FLOOR}x, "
        "all outputs identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
