"""The hard input distribution µ of Section 4.2.1, and its 3-player split.

µ samples a tripartite graph on parts U, V1, V2 with every cross-part edge
present independently with probability γ/sqrt(n).  The canonical 3-player
split gives Alice the U×V1 edges (E1), Bob the U×V2 edges (E2), and Charlie
the V1×V2 edges (E3) — Charlie must output one of *his* edges that closes a
triangle with a U-vertex, which is exactly the triangle-edge-finding task
``T^ε_{n,d}`` of Theorem 4.1.

Lemma 4.5 — for small γ, a µ-sample is Ω(1)-far from triangle-free with
probability at least 1/2 — is made checkable by
:func:`estimate_far_probability`, which certifies farness with the greedy
edge-disjoint triangle packing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.graphs.generators import TripartiteParts, tripartite_mu
from repro.graphs.graph import Edge, Graph
from repro.graphs.partition import EdgePartition
from repro.graphs.triangles import greedy_triangle_packing

__all__ = [
    "MuDistribution",
    "MuSample",
    "split_three_players",
    "estimate_far_probability",
    "conditioned_error_bound",
]


def conditioned_error_bound(error_on_mu: float,
                            probability_of_condition: float) -> float:
    """Observation 4.4: error on µ|Y is at most error(µ) / Pr[Y].

    A protocol with error δ on µ has error at most δ / Pr[Y] on µ
    conditioned on any event Y — how hardness on µ transfers to the
    far-conditioned distribution µ' (with Pr[far] >= 1/2 by Lemma 4.5,
    the bound only doubles).
    """
    if not 0.0 <= error_on_mu <= 1.0:
        raise ValueError(f"error must be in [0,1], got {error_on_mu}")
    if not 0.0 < probability_of_condition <= 1.0:
        raise ValueError(
            "condition probability must be in (0,1], got "
            f"{probability_of_condition}"
        )
    return min(1.0, error_on_mu / probability_of_condition)


@dataclass(frozen=True)
class MuSample:
    """One draw from µ with its part structure and 3-player split."""

    graph: Graph
    parts: TripartiteParts
    partition: EdgePartition
    """Three players: E1 = U×V1, E2 = U×V2, E3 = V1×V2."""

    @property
    def alice_edges(self) -> frozenset[Edge]:
        return self.partition.views[0]

    @property
    def bob_edges(self) -> frozenset[Edge]:
        return self.partition.views[1]

    @property
    def charlie_edges(self) -> frozenset[Edge]:
        return self.partition.views[2]


@dataclass(frozen=True)
class MuDistribution:
    """µ with fixed part size and γ; ``sample(seed)`` draws instances."""

    part_size: int
    gamma: float = 0.5

    def __post_init__(self) -> None:
        if self.part_size < 1:
            raise ValueError(
                f"part_size must be positive, got {self.part_size}"
            )
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @property
    def n(self) -> int:
        return 3 * self.part_size

    @property
    def edge_probability(self) -> float:
        return min(1.0, self.gamma / math.sqrt(self.n))

    def expected_average_degree(self) -> float:
        """Θ(γ sqrt(n)): each vertex sees 2·part_size potential partners."""
        return 2.0 * self.part_size * self.edge_probability

    def expected_triangles(self) -> float:
        """part_size³ · p³ — the E[|T|] of Lemma 4.5 (up to its constants)."""
        return self.part_size ** 3 * self.edge_probability ** 3

    def sample(self, seed: int = 0) -> MuSample:
        graph, parts = tripartite_mu(self.part_size, self.gamma, seed=seed)
        return MuSample(
            graph=graph,
            parts=parts,
            partition=split_three_players(graph, parts),
        )

    def sample_far(self, seed: int = 0, min_packing: int = 1,
                   max_tries: int = 200) -> MuSample:
        """µ conditioned on farness (µ' in the paper's notation).

        Rejection-samples until the greedy packing certifies at least
        ``min_packing`` edge-disjoint triangles — the distribution
        Observation 4.4 transfers hardness to.  Raises ``RuntimeError``
        when the condition looks unreachable (e.g. γ far too small).
        """
        for attempt in range(max_tries):
            sample = self.sample(seed=seed + attempt)
            if len(greedy_triangle_packing(sample.graph)) >= min_packing:
                return sample
        raise RuntimeError(
            f"no µ sample met packing >= {min_packing} in "
            f"{max_tries} tries (gamma={self.gamma}, n={self.n})"
        )


def split_three_players(graph: Graph, parts: TripartiteParts
                        ) -> EdgePartition:
    """The Section 4.2 split: (U×V1, U×V2, V1×V2) to (Alice, Bob, Charlie).

    The parts are disjoint, as :func:`~repro.graphs.generators.mu_parts`
    lays them out.  Both endpoints of every edge key are looked up in a
    vertex → part array; an edge goes to the player of its pair of
    parts, and keys stay sorted within each player.
    """
    import numpy as np

    n = graph.n
    part = np.full(n, -1, dtype=np.int64)
    for index, members in enumerate(
        (parts.u_part, parts.v1_part, parts.v2_part)
    ):
        members = np.asarray(members, dtype=np.int64)
        part[members[(members >= 0) & (members < n)]] = index
    keys = graph.edge_keys()
    low, high = part[keys // n], part[keys % n]
    bad = (low < 0) | (high < 0) | (low == high)
    if bad.any():
        key = int(keys[bad.argmax()])
        raise ValueError(
            f"edge {(key // n, key % n)} is not cross-part; not a µ graph"
        )
    # The unordered part pair as a bit set: U×V1 = 3, U×V2 = 5,
    # V1×V2 = 6.
    pair = (1 << low) | (1 << high)
    return EdgePartition.from_keys(
        graph, (keys[pair == 3], keys[pair == 5], keys[pair == 6])
    )


def estimate_far_probability(distribution: MuDistribution, trials: int,
                             farness_constant: float = 1.0 / 48.0,
                             seed: int = 0) -> float:
    """Empirical Pr[µ-sample has >= c·γ³·n^{3/2} disjoint triangles].

    Lemma 4.5's quantitative claim: with c₁ = γ³/48 (the paper's constant),
    the packing exceeds c₁ n^{3/2} with probability at least a constant;
    the packing certifies Ω(1)-farness because |E| = Θ(γ n^{3/2}) too.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    threshold = (
        farness_constant * distribution.gamma ** 3
        * distribution.n ** 1.5
    )
    hits = 0
    for trial in range(trials):
        sample = distribution.sample(seed=seed + trial)
        packing = greedy_triangle_packing(sample.graph)
        if len(packing) >= threshold:
            hits += 1
    return hits / trials
