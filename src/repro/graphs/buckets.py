"""Degree bucketing and the Section 3.2 input-analysis toolkit, executable.

The unrestricted protocol's correctness rests on a chain of combinatorial
facts about epsilon-far graphs (Lemmas 3.4-3.12).  This module makes every
definition in that chain computable, so tests can check the lemmas on real
instances and the protocol can be instrumented:

* ``bucket_index`` / ``buckets`` — the partition
  ``B_i = {v : 3^(i-1) <= deg(v) < 3^i}`` with ``B_0`` the isolated vertices
  (Section 3.2).
* ``disjoint_vee_count(v)`` — size of a maximum set of edge-disjoint
  triangle-vees sourced at v, computed as a maximum matching in the graph
  induced on N(v) (each vee uses two distinct incident edges; the closing
  edge identifies a neighbour pair).
* ``is_full_vertex`` (Definition 5), ``full_vertices_in_bucket`` (F(B_i)).
* ``bucket_vee_count`` and ``is_full_bucket`` (Definition 4) — vees from
  different sources need not be edge-disjoint, so the per-source matchings
  simply add up.
* ``neighborhood`` N(B_i) and ``r_neighborhood`` N_r(B_i) (Definition 6).
* ``player_suspected_bucket`` — the player-side set
  ``B~_i^j = {v : 3^i / k <= d_j(v) <= 3^(i+1)}`` from Section 3.3, with
  its degree bounds in ``suspected_degree_bounds``.
* ``degree_thresholds`` — d_l = eps*d / (2 log n) and d_h = sqrt(n*d/eps)
  (Definitions 7 and 8), the bucket range the protocol iterates over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.graphs.graph import Edge, Graph, iter_bits

__all__ = [
    "log2n",
    "bucket_index",
    "bucket_bounds",
    "buckets",
    "num_buckets",
    "disjoint_vee_count",
    "is_full_vertex",
    "full_vertices",
    "full_vertices_in_bucket",
    "bucket_vee_count",
    "is_full_bucket",
    "full_buckets",
    "min_full_bucket",
    "neighborhood",
    "r_neighborhood_indices",
    "player_suspected_bucket",
    "suspected_degree_bounds",
    "DegreeThresholds",
    "degree_thresholds",
]


def log2n(n: int) -> float:
    """The ``log n`` of the paper's formulas, floored at 1 for tiny n."""
    return max(1.0, math.log2(max(2, n)))


def bucket_index(degree: int) -> int:
    """Index i such that 3^(i-1) <= degree < 3^i; isolated vertices get 0."""
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    if degree == 0:
        return 0
    index = int(math.floor(math.log(degree, 3))) + 1
    # Float log is off by one ulp at exact powers of 3; correct in
    # integers so the invariant 3^(i-1) <= degree < 3^i always holds.
    while 3 ** index <= degree:
        index += 1
    while 3 ** (index - 1) > degree:
        index -= 1
    return index


def bucket_bounds(index: int) -> tuple[int, int]:
    """(d-, d+) = (3^(i-1), 3^i) for bucket i >= 1; (0, 0) for bucket 0."""
    if index < 0:
        raise ValueError(f"bucket index must be non-negative, got {index}")
    if index == 0:
        return (0, 0)
    return (3 ** (index - 1), 3 ** index)


def num_buckets(n: int) -> int:
    """Number of possible non-empty bucket indices for an n-vertex graph."""
    if n <= 1:
        return 1
    return bucket_index(n - 1) + 1


def buckets(graph: Graph) -> dict[int, list[int]]:
    """The full bucket partition; only non-empty buckets appear."""
    result: dict[int, list[int]] = {}
    for v in range(graph.n):
        result.setdefault(bucket_index(graph.degree(v)), []).append(v)
    return result


# ----------------------------------------------------------------------
# Vee counting (maximum matching on the neighbourhood graph)
# ----------------------------------------------------------------------
def disjoint_vee_count(graph: Graph, source: int, exact: bool = True) -> int:
    """Max number of edge-disjoint triangle-vees sourced at ``source``.

    A vee at v is a pair of incident edges {v,u}, {v,w} with {u,w} in E;
    edge-disjoint vees at the same source use disjoint neighbour pairs,
    i.e. they form a matching in the graph induced on N(v).  With
    ``exact=True`` a maximum matching is computed (via networkx for
    non-trivial neighbourhoods); otherwise a greedy maximal matching gives
    a certified lower bound at half the cost.
    """
    nmask = graph.neighbor_mask(source)
    if nmask.bit_count() < 2:
        return 0
    # Closing edges = edges of the graph induced on N(source): one mask
    # intersection per neighbour instead of a has_edge per pair.
    closing: list[Edge] = []
    for u in iter_bits(nmask):
        partners = (graph.neighbor_mask(u) & nmask) >> (u + 1)
        while partners:
            low = partners & -partners
            closing.append((u, u + low.bit_length()))
            partners ^= low
    if not closing:
        return 0
    if not exact:
        used: set[int] = set()
        count = 0
        for u, w in closing:
            if u in used or w in used:
                continue
            used.add(u)
            used.add(w)
            count += 1
        return count
    try:
        import networkx as nx
    except ImportError as exc:
        raise ImportError(
            "disjoint_vee_count(exact=True) needs networkx (the optional "
            "`reference` extra: pip install -e '.[reference]'); pass "
            "exact=False for the dependency-free greedy lower bound"
        ) from exc

    nx_graph = nx.Graph(closing)
    matching = nx.max_weight_matching(nx_graph, maxcardinality=True)
    return len(matching)


def is_full_vertex(graph: Graph, v: int, epsilon: float) -> bool:
    """Definition 5: >= eps/(12 log n) of v's edges form disjoint vees.

    A set of s disjoint vees at v occupies 2s of v's incident edges.
    """
    degree = graph.degree(v)
    if degree == 0:
        return False
    fraction = epsilon / (12.0 * log2n(graph.n))
    return 2 * disjoint_vee_count(graph, v) >= fraction * degree


def full_vertices(graph: Graph, epsilon: float) -> list[int]:
    """F(V): all full vertices."""
    return [v for v in range(graph.n) if is_full_vertex(graph, v, epsilon)]


def full_vertices_in_bucket(graph: Graph, index: int, epsilon: float
                            ) -> list[int]:
    """F(B_i): the full vertices of bucket ``index``."""
    members = buckets(graph).get(index, [])
    return [v for v in members if is_full_vertex(graph, v, epsilon)]


def bucket_vee_count(graph: Graph, index: int) -> int:
    """Disjoint triangle-vees adjacent to bucket ``index``.

    Vees with different sources count independently (Section 3.2's
    disjointness only requires edge-disjointness at equal sources), so the
    per-source maximum matchings simply add up.
    """
    members = buckets(graph).get(index, [])
    return sum(disjoint_vee_count(graph, v) for v in members)


def _fullness_threshold(graph: Graph, epsilon: float) -> float:
    n = graph.n
    d = graph.average_degree()
    return epsilon * n * d / (2.0 * log2n(n))


def is_full_bucket(graph: Graph, index: int, epsilon: float) -> bool:
    """Definition 4: bucket holds >= eps*n*d / (2 log n) disjoint vees."""
    return bucket_vee_count(graph, index) >= _fullness_threshold(graph, epsilon)


def full_buckets(graph: Graph, epsilon: float) -> list[int]:
    """Indices of all full buckets, ascending."""
    return sorted(
        index
        for index in buckets(graph)
        if is_full_bucket(graph, index, epsilon)
    )


def min_full_bucket(graph: Graph, epsilon: float) -> int | None:
    """B_min: the full bucket of lowest degree, or None if none is full."""
    full = full_buckets(graph, epsilon)
    return full[0] if full else None


def neighborhood(index: int) -> tuple[int, ...]:
    """N(B_i) = B_{i-1} ∪ B_i ∪ B_{i+1} as bucket indices (clipped at 0)."""
    return tuple(i for i in (index - 1, index, index + 1) if i >= 0)


def r_neighborhood_indices(index: int, r: int, n: int) -> tuple[int, ...]:
    """N_r(B_i): indices j >= i - log_3(r), up to the top bucket for n."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    low = index - int(math.ceil(math.log(r, 3))) if r > 1 else index
    low = max(0, low)
    return tuple(range(low, num_buckets(n)))


def player_suspected_bucket(view_degrees: dict[int, int], index: int,
                            k: int) -> set[int]:
    """B~_i^j: vertices a player may reasonably suspect are in B_i.

    ``view_degrees`` maps vertex -> d_j(v), the degree in player j's input
    (vertices with d_j = 0 may be omitted).  In this module's convention
    ``B_i = [3^(i-1), 3^i)``, so a vertex qualifies when
    ``3^(i-1) / k <= d_j(v) <= 3^i``: by pigeonhole some player holds at
    least deg(v)/k of v's edges, and no player holds more than deg(v).
    (The paper states the same bounds in Section 3.3's shifted indexing.)
    """
    lower, upper = suspected_degree_bounds(index, k)
    return {
        v for v, deg in view_degrees.items() if lower <= deg <= upper
    }


def suspected_degree_bounds(index: int, k: int) -> tuple[float, int]:
    """``(lower, upper)``: v is in B~_i^j iff lower <= d_j(v) <= upper.

    The one definition of suspected-bucket membership, shared by the
    dict form above and the players' degree-array form.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (3 ** max(0, index - 1)) / k, 3 ** index


@dataclass(frozen=True)
class DegreeThresholds:
    """The protocol's bucket iteration range (Definitions 7 and 8)."""

    d_low: float
    """d_l = eps * d / (2 log n): below this no bucket can be full."""
    d_high: float
    """d_h = sqrt(n d / eps): vees above this degree can be ignored."""

    def bucket_range(self, n: int) -> range:
        """Bucket indices whose degree band intersects [d_low, d_high]."""
        first = bucket_index(max(1, int(self.d_low)))
        last = bucket_index(max(1, int(math.ceil(self.d_high))))
        return range(first, min(last, num_buckets(n) - 1) + 1)


def degree_thresholds(n: int, d: float, epsilon: float) -> DegreeThresholds:
    """Compute (d_l, d_h) for an n-vertex graph of average degree d."""
    if d <= 0:
        raise ValueError(f"average degree must be positive, got {d}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    d_low = epsilon * d / (2.0 * log2n(n))
    d_high = math.sqrt(n * d / epsilon)
    return DegreeThresholds(d_low=d_low, d_high=d_high)


def degrees_from_view(edges: Iterable[Edge]) -> dict[int, int]:
    """Per-vertex degree of an edge view (d_j in the paper's notation)."""
    result: dict[int, int] = {}
    for u, v in edges:
        result[u] = result.get(u, 0) + 1
        result[v] = result.get(v, 0) + 1
    return result


__all__.append("degrees_from_view")
