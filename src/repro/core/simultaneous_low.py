"""Simultaneous protocol for low degrees d = O(sqrt(n)) (Algorithms 8, 10).

For sparse graphs the induced-sample approach has too much variance: a few
high-degree vertices may source every triangle, and hitting one of them
needs a Θ(n/d)-vertex sample whose induced subgraph is too big to learn in
the query model — but not in ours.  The protocol publicly samples

* ``S``: every vertex independently with probability ``p1 = min(c/d, 1)``
  (big enough to catch a high-degree triangle source), and
* ``R``: every vertex independently with probability ``p2 = c/sqrt(n)``
  (a birthday-paradox set),

and each player sends the edges of its input with one endpoint in R and the
other in R ∪ S.  If the triangles are concentrated on high-degree vertices,
some source lands in S and two of its triangle partners in R; if they are
spread out, R × R alone catches one (Theorem 3.26's variance computation).
Expected message load is O(sqrt(n) + d) edges, capped per player at
``q = 2c²(sqrt(n)+d)·(2/δ)``.

Communication O(k sqrt(n) log n); without duplication the total is
O(sqrt(n) log n) w.h.p. (Corollary 3.27).  Algorithm 10 (the oblivious
building block) is the same protocol with the cap removed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.comm.encoding import edge_bits
from repro.comm.players import Player, make_players
from repro.comm.randomness import SharedRandomness
from repro.comm.simultaneous import run_simultaneous
from repro.core.referee import key_union_triangle_referee
from repro.core.results import DetectionResult
from repro.graphs.partition import EdgePartition

__all__ = ["SimLowParams", "find_triangle_sim_low"]


@dataclass(frozen=True)
class SimLowParams:
    """Knobs of Algorithm 8/10.

    The paper sets ``c = 8/(9δ)`` in the Chebyshev step; that is the
    default.  ``capped=False`` gives the Algorithm 10 variant.
    """

    epsilon: float = 0.1
    delta: float = 0.1
    c: float | None = None
    capped: bool = True
    known_average_degree: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0,1], got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        if self.c is not None and self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")

    @property
    def effective_c(self) -> float:
        return self.c if self.c is not None else 8.0 / (9.0 * self.delta)

    def p_dense_catcher(self, d: float) -> float:
        """p1 = min(c/d, 1): the S-sample probability."""
        if d <= 0:
            return 1.0
        return min(1.0, self.effective_c / d)

    def p_birthday(self, n: int) -> float:
        """p2 = c / sqrt(n): the R-sample probability."""
        if n == 0:
            return 0.0
        return min(1.0, self.effective_c / math.sqrt(n))

    def edge_cap(self, n: int, d: float) -> int:
        """q = 2 c² (sqrt(n) + d) · (2/δ)."""
        cap = 2.0 * self.effective_c ** 2 * (math.sqrt(n) + d) * (
            2.0 / self.delta
        )
        return max(1, int(math.ceil(cap)))


def find_triangle_sim_low(
    partition: EdgePartition,
    params: SimLowParams | None = None,
    seed: int = 0,
    *,
    shared: SharedRandomness | None = None,
    record_messages: bool = False,
) -> DetectionResult:
    """Run the low-degree simultaneous tester on a partitioned input.

    ``shared`` injects a pre-built coin stream (the batched engine passes
    one draw-identical to ``SharedRandomness(seed)``); ``record_messages``
    retains the per-message transcript in ``details["transcript"]`` —
    left off, nothing beyond aggregate counters is ever materialized.
    """
    params = params or SimLowParams()
    players = make_players(partition)
    n = partition.graph.n
    d = (
        params.known_average_degree
        if params.known_average_degree is not None
        else partition.graph.average_degree()
    )
    shared = shared if shared is not None else SharedRandomness(seed)
    dense_catcher = shared.bernoulli_subset_mask(
        n, params.p_dense_catcher(d), tag=1
    )
    birthday = shared.bernoulli_subset_mask(n, params.p_birthday(n), tag=2)
    both = birthday | dense_catcher
    cap = params.edge_cap(n, d) if params.capped else None

    def message_fn(player: Player, _: SharedRandomness) -> np.ndarray:
        # Mask harvest over the player's edge keys, emitted ascending —
        # the same order the set-based code sorted into.
        harvest = player.edges_touching_both_mask(birthday, both)
        if cap is not None:
            harvest = harvest[:cap]
        return harvest

    def referee_fn(messages: list[np.ndarray], _: SharedRandomness):
        # Key-union referee: the first ascending triangle of the union
        # is reported — a deterministic function of the union,
        # independent of message or hash order.
        return key_union_triangle_referee(messages, n)

    run = run_simultaneous(
        players,
        message_fn=message_fn,
        message_bits=lambda edges: max(1, len(edges) * edge_bits(n)),
        referee_fn=referee_fn,
        shared=shared,
        label="sim-low",
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
            "p_dense_catcher": params.p_dense_catcher(d),
            "p_birthday": params.p_birthday(n),
            "sample_sizes": (dense_catcher.bit_count(), birthday.bit_count()),
            "edge_cap": cap,
            "average_degree_used": d,
            **(
                {"transcript": run.ledger.records}
                if record_messages else {}
            ),
        },
    )
