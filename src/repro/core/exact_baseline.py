"""Exact triangle detection baselines (the [38] regime the paper beats).

Woodruff and Zhang showed that deciding *exactly* whether the distributed
input contains a triangle requires Ω(k·nd) bits — essentially every player
must ship its whole input.  The trivial matching upper bound is implemented
here as the comparison baseline: each player sends all of its edges and the
coordinator answers with certainty.  A blackboard variant posts each edge
once (saving duplication), which is the best the exact problem allows.

The paper's Section 5 headline — property testing is *dramatically* cheaper
than exact detection, even for simultaneous protocols — is reproduced by
benchmarking these baselines against the Section 3 testers
(``benchmarks/bench_exact_vs_testing.py``).
"""

from __future__ import annotations

import numpy as np

from repro.comm.encoding import edge_bits
from repro.comm.players import make_players
from repro.comm.simultaneous import run_simultaneous
from repro.core.referee import key_union_triangle_referee
from repro.core.results import DetectionResult
from repro.graphs.partition import EdgePartition
from repro.graphs.triangles import find_triangle_in_rows

__all__ = ["exact_triangle_detection", "exact_triangle_detection_blackboard"]


def exact_triangle_detection(partition: EdgePartition, *,
                             record_messages: bool = False) -> DetectionResult:
    """Deterministic exact detection: everyone sends everything.

    Simultaneous, zero-error.  Communication Θ(Σ_j |E_j| · log n) —
    the Ω(k·nd) regime when edges are duplicated.  Each message is the
    player's sorted key array (:meth:`~repro.comm.players.Player.edge_keys`)
    and the key-union referee searches it without rows, so no player
    rows or edge tuples are built.  ``record_messages`` retains the
    per-message transcript in ``details["transcript"]``.
    """
    players = make_players(partition)
    n = partition.graph.n

    def referee_fn(messages: list[np.ndarray], _):
        return key_union_triangle_referee(messages, n)

    run = run_simultaneous(
        players,
        message_fn=lambda player, _: player.edge_keys(),
        message_bits=lambda edges: max(1, len(edges) * edge_bits(n)),
        referee_fn=referee_fn,
        label="exact-baseline",
        record_messages=record_messages,
    )
    triangle = run.output
    return DetectionResult(
        found=triangle is not None,
        triangle=triangle,
        witness_edges=(
            ()
            if triangle is None
            else (
                (triangle[0], triangle[1]),
                (triangle[0], triangle[2]),
                (triangle[1], triangle[2]),
            )
        ),
        cost=run.ledger.summary(),
        details={
            "exact": True,
            **(
                {"transcript": run.ledger.records}
                if record_messages else {}
            ),
        },
    )


def exact_triangle_detection_blackboard(
    partition: EdgePartition, *,
    record_messages: bool = False,
) -> DetectionResult:
    """Exact detection on a blackboard: each distinct edge posted once.

    Communication Θ(|E| · log n) — duplication no longer hurts, but the
    linear-in-|E| cost remains, which is what testing escapes.
    ``record_messages`` retains the transcript in
    ``details["transcript"]``.
    """
    from repro.comm.blackboard import BlackboardRuntime
    from repro.comm.ledger import CommunicationLedger

    players = make_players(partition)
    n = partition.graph.n
    rt = BlackboardRuntime(
        players,
        ledger=CommunicationLedger(record_messages=record_messages),
    )
    # Row harvests: each player's whole view is its adjacency rows, so
    # fresh-edge computation and the final search are both word-wide.
    rt.post_rows_in_turns(
        harvest_rows=lambda player: player.adjacency_rows(),
        per_edge_bits=edge_bits(n),
        label="exact-blackboard",
    )
    triangle = find_triangle_in_rows(rt.board_rows)
    return DetectionResult(
        found=triangle is not None,
        triangle=triangle,
        witness_edges=(
            ()
            if triangle is None
            else (
                (triangle[0], triangle[1]),
                (triangle[0], triangle[2]),
                (triangle[1], triangle[2]),
            )
        ),
        cost=rt.ledger.summary(),
        details={
            "exact": True,
            "blackboard": True,
            **(
                {"transcript": rt.ledger.records}
                if record_messages else {}
            ),
        },
    )
