"""Simultaneous protocol for high degrees d = Ω(sqrt(n)) (Algorithms 7, 9).

The [3] dense tester, implemented where it is *cheaper* than in the query
model: the referee needs the subgraph induced by a public random vertex set
``S`` of size ``Θ((n²/(εd))^{1/3})``, and instead of probing all |S|² pairs,
each player simply sends the edges of its input inside S — paying only for
edges that exist.  If the input is ε-far from triangle-free, the induced
subgraph contains a triangle with constant probability, and the expected
number of edges inside S² is small enough that a per-player cap of
``l = (|S|²/n²)·(4/δ)·nd`` edges (Theorem 3.24's Markov argument) is
exceeded only with probability δ/2.

Two sampling variants, both provided:

* Algorithm 7 — ``S`` is a uniform ``|S|``-subset, players cap at ``l``;
* Algorithm 9 (the degree-oblivious building block) — each vertex enters
  ``S`` independently with probability ``|S|/n`` and the cap is removed.

Communication O(k (nd)^{1/3} log n); with no duplication the total is
O((nd)^{1/3} log n) with probability 1-δ (Corollary 3.25).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.comm.encoding import edge_bits
from repro.comm.players import Player, make_players
from repro.comm.randomness import SharedRandomness
from repro.comm.simultaneous import run_simultaneous
from repro.core.referee import rows_union_triangle_referee
from repro.core.results import DetectionResult
from repro.graphs.graph import Edge
from repro.graphs.partition import EdgePartition

__all__ = ["SimHighParams", "find_triangle_sim_high"]


@dataclass(frozen=True)
class SimHighParams:
    """Knobs of Algorithm 7/9.

    ``c`` is the paper's "sufficiently large" constant scaling |S|;
    ``capped=False`` selects the Algorithm 9 variant (Bernoulli sampling,
    no per-player cap), which the degree-oblivious protocol builds on.
    """

    epsilon: float = 0.1
    delta: float = 0.1
    c: float = 2.0
    capped: bool = True
    bernoulli_sampling: bool = False
    known_average_degree: float | None = None
    """The model gives d to the players (Theorem 3.24); None means "take
    the true average degree of the input", mimicking that promise."""

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0,1], got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")

    def sample_size(self, n: int, d: float) -> int:
        """|S| = c · (n² / (ε d))^{1/3}, clamped to n."""
        if d <= 0:
            return 0
        raw = self.c * (n * n / (self.epsilon * d)) ** (1.0 / 3.0)
        return min(n, max(1, int(math.ceil(raw))))

    def edge_cap(self, n: int, d: float, sample_size: int) -> int:
        """l = (|S|²/n²) · (4/δ) · nd, Theorem 3.24's Markov cap."""
        if n == 0:
            return 1
        cap = (sample_size ** 2 / n ** 2) * (4.0 / self.delta) * n * d
        return max(1, int(math.ceil(cap)))


def find_triangle_sim_high(
    partition: EdgePartition,
    params: SimHighParams | None = None,
    seed: int = 0,
    *,
    shared: SharedRandomness | None = None,
    record_messages: bool = False,
) -> DetectionResult:
    """Run the high-degree simultaneous tester on a partitioned input.

    ``shared`` injects a pre-built coin stream (the batched engine passes
    one draw-identical to ``SharedRandomness(seed)``); ``record_messages``
    retains the per-message transcript in ``details["transcript"]``.
    """
    params = params or SimHighParams()
    players = make_players(partition)
    n = partition.graph.n
    d = (
        params.known_average_degree
        if params.known_average_degree is not None
        else partition.graph.average_degree()
    )
    shared = shared if shared is not None else SharedRandomness(seed)
    size = params.sample_size(n, d)
    if params.bernoulli_sampling:
        sample = shared.bernoulli_subset_mask(
            n, min(1.0, size / max(1, n)), tag=1
        )
    else:
        sample = shared.sample_without_replacement_mask(n, size, tag=1)
    cap = params.edge_cap(n, d, size) if params.capped else None

    def message_fn(player: Player, _: SharedRandomness) -> list[Edge]:
        # Induced-subgraph harvest as mask intersections, ascending.
        harvest = player.edges_within_mask(sample)
        if cap is not None:
            harvest = harvest[:cap]
        return harvest

    def referee_fn(messages: list[list[Edge]], _: SharedRandomness):
        # Rows-union referee: deterministic in the union, not in any
        # message or hash iteration order.
        return rows_union_triangle_referee(messages, n)

    run = run_simultaneous(
        players,
        message_fn=message_fn,
        message_bits=lambda edges: max(1, len(edges) * edge_bits(n)),
        referee_fn=referee_fn,
        shared=shared,
        label="sim-high",
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
            "sample_size": size,
            "edge_cap": cap,
            "average_degree_used": d,
            **(
                {"transcript": run.ledger.records}
                if record_messages else {}
            ),
        },
    )
