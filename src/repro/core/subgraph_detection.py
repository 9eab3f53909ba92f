"""H-freeness testing — the paper's stated future-work direction.

Section 5 suggests "generalizing our techniques for detecting a wider
class of subgraphs".  The induced-sample simultaneous tester (Algorithm 9)
generalizes directly: if the input is ε-far from H-free it contains
Ω(ε·n·d / e_H) edge-disjoint copies of H (each removal kills at most one
disjoint copy), a public Bernoulli(p) vertex sample catches a fixed copy
with probability p^{h}, and players send only the edges of their inputs
inside the sample — the same existing-edges-only pricing that makes the
triangle version cheaper than its query-model ancestor.

Choosing ``p = c · (2 e_H / (ε n d))^{1/h}`` makes the expected number of
caught disjoint copies c^h = Θ(1); the referee searches the unioned sample
for a monomorphic copy of H.  For H = K₃ this specializes to Algorithm 9's
parameters up to constants.

This is an *extension*, not a paper result: no optimality is claimed, and
the variance analysis that Theorem 3.26 does for triangles is replaced by
repetition (the ``rounds`` parameter runs independent samples and ORs the
one-sided outcomes).

The pattern machinery lives in :mod:`repro.patterns` — the connected
pattern catalog, the mask-native monomorphism engine, and the planted
scenario generators are re-exported here for compatibility.  The referee
is rows-native: per-round messages fold into per-vertex adjacency masks
(:func:`repro.core.referee.union_rows`) and
:func:`repro.patterns.matcher.find_copy_in_rows` walks them, so the
reported copy is canonical-first — a deterministic function of the union
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.encoding import edge_bits
from repro.comm.players import Player, make_players
from repro.comm.randomness import SharedRandomness
from repro.comm.simultaneous import run_simultaneous
from repro.core.referee import union_rows
from repro.graphs.graph import Edge
from repro.graphs.partition import EdgePartition
from repro.patterns.catalog import (
    FIVE_CYCLE,
    FOUR_CLIQUE,
    FOUR_CYCLE,
    TRIANGLE,
    SubgraphPattern,
)
from repro.patterns.matcher import find_copy_among, find_copy_in_rows
from repro.patterns.plant import (
    PlantedSubgraphInstance,
    planted_disjoint_subgraphs,
)

__all__ = [
    "SubgraphPattern",
    "TRIANGLE",
    "FOUR_CLIQUE",
    "FOUR_CYCLE",
    "FIVE_CYCLE",
    "SubgraphParams",
    "find_copy_among",
    "find_subgraph_simultaneous",
    "SubgraphDetectionResult",
    "planted_disjoint_subgraphs",
    "PlantedSubgraphInstance",
]


@dataclass(frozen=True)
class SubgraphParams:
    """Knobs of the generalized induced-sample tester."""

    epsilon: float = 0.2
    c: float = 1.5
    rounds: int = 3
    """Independent sample repetitions (ORed; still one simultaneous shot —
    all rounds ride in the same single message per player)."""
    known_average_degree: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0,1], got {self.epsilon}")
        if self.c <= 0 or self.rounds < 1:
            raise ValueError("c must be positive and rounds >= 1")

    def sample_probability(self, n: int, d: float,
                           pattern: SubgraphPattern) -> float:
        """p = c (2 e_H / (ε n d))^{1/h}: Θ(1) disjoint copies expected."""
        if n == 0 or d <= 0:
            return 1.0
        base = 2.0 * pattern.num_edges / (self.epsilon * n * d)
        return min(1.0, self.c * base ** (1.0 / pattern.num_vertices))


@dataclass(frozen=True)
class SubgraphDetectionResult:
    """Outcome of one H-detection run (one-sided, like DetectionResult)."""

    found: bool
    copy: tuple[int, ...] | None
    """Image of H's vertices (pattern order), or None."""
    witness_edges: tuple[Edge, ...]
    cost: object
    details: dict

    @property
    def total_bits(self) -> int:
        return self.cost.total_bits

    def verdict_h_free(self) -> bool:
        return not self.found


def find_subgraph_simultaneous(
    partition: EdgePartition,
    pattern: SubgraphPattern,
    params: SubgraphParams | None = None,
    seed: int = 0,
    *,
    shared: SharedRandomness | None = None,
    record_messages: bool = False,
) -> SubgraphDetectionResult:
    """One-shot simultaneous H-detection with one-sided error.

    ``shared`` injects a pre-built coin stream (the batched engine passes
    one draw-identical to ``SharedRandomness(seed)``); ``record_messages``
    retains the per-message transcript in ``details["transcript"]``.
    """
    params = params or SubgraphParams()
    players = make_players(partition)
    n = partition.graph.n
    d = (
        params.known_average_degree
        if params.known_average_degree is not None
        else partition.graph.average_degree()
    )
    shared = shared if shared is not None else SharedRandomness(seed)
    p = params.sample_probability(n, d, pattern)
    samples = [
        shared.bernoulli_subset_mask(n, p, tag=100 + r)
        for r in range(params.rounds)
    ]

    def message_fn(player: Player, _: SharedRandomness
                   ) -> list[list[Edge]]:
        return [player.edges_within_mask(sample) for sample in samples]

    def message_bits(message: list[list[Edge]]) -> int:
        return max(
            1,
            sum(len(edges) * edge_bits(n) for edges in message),
        )

    def referee_fn(messages: list[list[list[Edge]]],
                   _: SharedRandomness):
        for round_index in range(params.rounds):
            rows = union_rows(
                (message[round_index] for message in messages), n
            )
            copy = find_copy_in_rows(rows, pattern)
            if copy is not None:
                return copy, round_index
        return None, None

    run = run_simultaneous(
        players, message_fn=message_fn, message_bits=message_bits,
        referee_fn=referee_fn, shared=shared,
        label=f"sim-{pattern.name}",
        record_messages=record_messages,
    )
    copy, winning_round = run.output
    found = copy is not None
    return SubgraphDetectionResult(
        found=found,
        copy=copy,
        witness_edges=(
            tuple(
                tuple(sorted((copy[u], copy[v]))) for u, v in pattern.edges
            )
            if found
            else ()
        ),
        cost=run.ledger.summary(),
        details={
            "pattern": pattern.name,
            "sample_probability": p,
            "rounds": params.rounds,
            "winning_round": winning_round,
            **(
                {"transcript": run.ledger.records}
                if record_messages else {}
            ),
        },
    )
