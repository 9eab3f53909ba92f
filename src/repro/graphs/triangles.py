"""Triangle machinery: detection, enumeration, vees, packings, farness.

The paper's promise problem distinguishes triangle-free graphs from graphs
that are ``epsilon``-far from triangle-free, i.e. at least ``epsilon * |E|``
edges must be removed to destroy all triangles.  Exact distance is NP-hard in
general, but the paper only ever uses farness through one consequence
(Observation 3.3): an ``epsilon``-far graph contains at least
``epsilon * n * d`` *edge-disjoint* triangle-vees, equivalently
``epsilon * |E| / 3``-ish edge-disjoint triangles.  This module provides:

* exact triangle detection / enumeration / counting,
* triangle-vee utilities (Definition 2) and triangle edges (Definition 3),
* a greedy maximal edge-disjoint triangle packing, which certifies a lower
  bound on the distance (each packed triangle needs one removed edge),
* and a certified ``is_epsilon_far`` predicate built on the packing.

The packing lower bound is what generators use to *certify* that a produced
instance really satisfies the promise, so protocol correctness tests never
depend on an uncertified farness claim.

Everything here runs on bitset rows: a common neighbourhood is one
``&`` of two adjacency masks, and enumeration walks set bits in ascending
order, so all outputs are deterministic (vertices ascending) and match the
order-normalized set-based oracles under ``tests/oracles/`` bit for bit.
These scans build a graph's rows; on a large keys-first host the
simultaneous referee instead finds a triangle on the sorted edge keys
(:func:`repro.core.referee.key_union_triangle_referee`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from repro.graphs.graph import Edge, Graph, canonical_edge, iter_bits

__all__ = [
    "find_triangle",
    "iter_triangles",
    "count_triangles",
    "triangle_edges",
    "is_triangle_free",
    "contains_triangle_among",
    "find_triangle_among",
    "find_triangle_in_rows",
    "iter_triangle_vees",
    "is_triangle_vee",
    "close_vee",
    "greedy_triangle_packing",
    "packing_distance_lower_bound",
    "clique_packing_density_floor",
    "is_epsilon_far_certified",
    "make_triangle_free_by_removal",
]

Triangle = tuple[int, int, int]


def _canonical_triangle(a: int, b: int, c: int) -> Triangle:
    x, y, z = sorted((a, b, c))
    return (x, y, z)


def find_triangle(graph: Graph) -> Triangle | None:
    """Return the first triangle in ascending order, or ``None``.

    Scans edges ascending; the first edge whose endpoints share a
    neighbour closes with the lowest such apex (equivalently: the
    lexicographically minimal canonical triple).
    """
    rows = graph.adjacency_rows()
    for u in range(graph.n):
        row_u = rows[u]
        upper = row_u >> (u + 1)
        while upper:
            low = upper & -upper
            v = u + low.bit_length()
            common = row_u & rows[v]
            if common:
                apex = common & -common
                return _canonical_triangle(u, v, apex.bit_length() - 1)
            upper ^= low
    return None


def iter_triangles(graph: Graph) -> Iterator[Triangle]:
    """Yield every triangle exactly once (vertices ascending)."""
    rows = graph.adjacency_rows()
    for u in range(graph.n):
        upper = rows[u] >> (u + 1)
        row_u = rows[u]
        while upper:
            low = upper & -upper
            v = u + low.bit_length()
            above = (row_u & rows[v]) >> (v + 1)
            while above:
                apex = above & -above
                yield (u, v, v + apex.bit_length())  # u < v < w: unique
                above ^= apex
            upper ^= low


def count_triangles(graph: Graph) -> int:
    """#triangles — one ``&`` + popcount per edge.

    Summing |N(u) ∩ N(v)| over canonical edges counts every triangle
    exactly three times (once per side), so no per-edge shift is needed
    to deduplicate — the single most-executed loop in the repo stays at
    two big-int ops per edge.
    """
    rows = graph.adjacency_rows()
    total = 0
    for u in range(graph.n):
        row_u = rows[u]
        upper = row_u >> (u + 1)
        while upper:
            low = upper & -upper
            total += (row_u & rows[u + low.bit_length()]).bit_count()
            upper ^= low
    return total // 3


def is_triangle_free(graph: Graph) -> bool:
    return find_triangle(graph) is None


def triangle_edges(graph: Graph) -> set[Edge]:
    """All edges that participate in at least one triangle (Definition 3).

    An edge lies on a triangle iff its endpoints share a neighbour, so
    one mask intersection per edge decides membership.
    """
    rows = graph.adjacency_rows()
    result: set[Edge] = set()
    for u in range(graph.n):
        row_u = rows[u]
        upper = row_u >> (u + 1)
        while upper:
            low = upper & -upper
            v = u + low.bit_length()
            if row_u & rows[v]:
                result.add((u, v))
            upper ^= low
    return result


def contains_triangle_among(edges: Iterable[Edge]) -> bool:
    """Does this plain edge collection contain a triangle?

    Used by referees, which receive bags of edges rather than a graph.
    """
    return find_triangle_among(edges) is not None


def find_triangle_among(edges: Iterable[Edge]) -> Triangle | None:
    """Find a triangle inside a plain edge collection, or ``None``."""
    adjacency: dict[int, int] = {}
    for u, v in edges:
        u, v = canonical_edge(u, v)
        adjacency[u] = adjacency.get(u, 0) | (1 << v)
        adjacency[v] = adjacency.get(v, 0) | (1 << u)
    for u, mask in adjacency.items():
        for v in iter_bits(mask >> (u + 1)):
            common = mask & adjacency[v + u + 1]
            if common:
                low = common & -common
                return _canonical_triangle(
                    u, v + u + 1, low.bit_length() - 1
                )
    return None


def find_triangle_in_rows(rows) -> Triangle | None:
    """First triangle (ascending) in raw per-vertex adjacency masks.

    The kernel form of :func:`find_triangle` for callers that hold bare
    rows rather than a :class:`Graph`, such as the blackboard's
    posted-rows board.  (The simultaneous referee,
    :func:`repro.core.referee.key_union_triangle_referee`, reports the
    same triangle on a key union without building rows.)  Scans base edges
    ascending; the first edge whose endpoints share a neighbour closes
    with the lowest such apex, so the result is a deterministic function
    of the edge *set*, independent of any message or iteration order.
    """
    for u in range(len(rows)):
        row_u = rows[u]
        upper = row_u >> (u + 1)
        while upper:
            low = upper & -upper
            v = u + low.bit_length()
            common = row_u & rows[v]
            if common:
                apex = common & -common
                return _canonical_triangle(u, v, apex.bit_length() - 1)
            upper ^= low
    return None


# ----------------------------------------------------------------------
# Triangle-vees (Definition 2)
# ----------------------------------------------------------------------
def is_triangle_vee(graph: Graph, e1: Edge, e2: Edge) -> bool:
    """Is the edge pair a triangle-vee, i.e. shares a vertex and closes?

    ``{{u,v},{v,w}}`` is a triangle-vee when ``{u,w}`` is also an edge.
    """
    shared = set(e1) & set(e2)
    if len(shared) != 1:
        return False
    (u,) = set(e1) - shared
    (w,) = set(e2) - shared
    return graph.has_edge(u, w)


def close_vee(graph: Graph, e1: Edge, e2: Edge) -> Edge | None:
    """The closing edge of the vee, if the pair is a vee and it closes."""
    shared = set(e1) & set(e2)
    if len(shared) != 1:
        return None
    (u,) = set(e1) - shared
    (w,) = set(e2) - shared
    if graph.has_edge(u, w):
        return canonical_edge(u, w)
    return None


def iter_triangle_vees(graph: Graph, source: int) -> Iterator[tuple[Edge, Edge]]:
    """All triangle-vees whose source (shared vertex) is ``source``."""
    nmask = graph.neighbor_mask(source)
    for u in iter_bits(nmask):
        closing = (graph.neighbor_mask(u) & nmask) >> (u + 1)
        while closing:
            low = closing & -closing
            yield (
                canonical_edge(source, u),
                canonical_edge(source, u + low.bit_length()),
            )
            closing ^= low


# ----------------------------------------------------------------------
# Packings and farness
# ----------------------------------------------------------------------
def greedy_triangle_packing(graph: Graph) -> list[Triangle]:
    """A maximal set of pairwise edge-disjoint triangles, greedily.

    Maximality implies the packing is a 3-approximation of the maximum
    packing, and each packed triangle certifies one necessary edge removal,
    so ``len(packing)`` lower-bounds the distance to triangle-freeness.

    Scans triangles ascending, tracking used edges as per-vertex bitmasks:
    for a base edge {u, v} the viable apexes are
    ``common_neighbors(u, v) & ~(used[u] | used[v])`` in one expression,
    and at most one triangle per base edge can ever be packed.

    The scan is exactly lexicographic greedy over the canonical triangle
    list (the minimum viable apex *is* the lex-next triangle on a free
    base edge).
    """
    rows = graph.adjacency_rows()
    used = [0] * graph.n
    packing: list[Triangle] = []
    for u in range(graph.n):
        row_u = rows[u]
        # Base edges still free at u: candidates can only shrink as the
        # packing grows, so the used-mask is folded in once per vertex
        # and again per hit.
        upper = (row_u & ~used[u]) >> (u + 1)
        while upper:
            low = upper & -upper
            upper ^= low  # consume the base edge before any refresh
            v = u + low.bit_length()
            common = row_u & rows[v]
            if not common:
                continue  # background edge: one & and out
            blocked = used[u] | used[v]
            viable = (common & ~blocked if blocked else common) >> (v + 1)
            if viable:
                apex = viable & -viable
                w = v + apex.bit_length()
                used[u] |= (1 << v) | (1 << w)
                used[v] |= (1 << u) | (1 << w)
                used[w] |= (1 << u) | (1 << v)
                packing.append((u, v, w))
                upper &= (~used[u]) >> (u + 1)
    return packing


def packing_distance_lower_bound(graph: Graph) -> int:
    """Certified lower bound on #edges to remove for triangle-freeness."""
    return len(greedy_triangle_packing(graph))


def clique_packing_density_floor(clique_size: int) -> Fraction:
    """Guaranteed packing/|E| of any *maximal* triangle packing of K_m.

    A maximal edge-disjoint packing leaves a triangle-free residue (a
    triangle of unused edges could still be packed), and by Turán the
    residue has at most ``m²/4`` edges per clique, so the packing holds
    at least ``(|E| - m²/4) / 3`` triangles — a density of exactly
    ``(m-2) / (6(m-1))`` of the clique's ``m(m-1)/2`` edges.  This is
    the instance-derived floor drivers on disjoint-``K_m`` families must
    use: the naive "greedy reaches the maximum's ~1/3" intuition fails
    for small cliques (K₉ measures 0.222), while this bound (7/48 for
    K₉) is guaranteed for every maximal packing and every seed.
    """
    if clique_size < 3:
        raise ValueError(
            f"clique_size must be >= 3 to hold a triangle, got {clique_size}"
        )
    return Fraction(clique_size - 2, 6 * (clique_size - 1))


def is_epsilon_far_certified(graph: Graph, epsilon: float) -> bool:
    """Certify ``epsilon``-farness via the greedy packing lower bound.

    Returns True only when the packing *proves* farness; a False does not
    prove closeness (the bound may simply be loose).

    The comparison is exact: ``epsilon`` is reconstructed as the simplest
    rational within one float ulp (so 0.1 means 1/10, not
    0.1000000000000000055...), and the packing is compared against
    ``epsilon * |E|`` by integer cross-multiplication.  A packing of
    exactly ``epsilon * |E|`` triangles therefore certifies, where the
    naive float product used to reject it by one ulp of drift.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    required = _exact_fraction(epsilon) * graph.num_edges
    return packing_distance_lower_bound(graph) >= required


def _exact_fraction(value: float) -> Fraction:
    """The simplest rational that rounds to ``value`` as a float."""
    exact = Fraction(value)
    simplest = exact.limit_denominator(10 ** 12)
    # Only accept the simplification when it is lossless as a float —
    # e.g. 0.1 -> 1/10 — so arbitrary epsilons keep their exact value.
    return simplest if float(simplest) == value else exact


def make_triangle_free_by_removal(graph: Graph) -> tuple[Graph, int]:
    """Destroy all triangles by repeated edge deletion; returns (graph, #removed).

    Greedy upper bound on the distance: repeatedly remove the edge that
    currently participates in the most triangles.  Used by tests to sandwich
    the true distance between the packing lower bound and this upper bound.

    Per-edge triangle counts are maintained *incrementally*: removing
    {u, v} only touches the counts of edges {u, w} / {v, w} for common
    neighbours w, instead of re-enumerating every triangle per removal.
    The busiest-edge choice (ties broken by canonical edge order) is
    identical to the full recount, so outputs match the reference.
    """
    work = graph.copy()
    counts: dict[Edge, int] = {}
    for a, b, c in iter_triangles(work):
        for edge in ((a, b), (a, c), (b, c)):
            counts[edge] = counts.get(edge, 0) + 1
    removed = 0
    while counts:
        busiest = max(counts, key=lambda edge: (counts[edge], edge))
        u, v = busiest
        for w in iter_bits(work.common_neighbors(u, v)):
            for edge in (canonical_edge(u, w), canonical_edge(v, w)):
                remaining = counts[edge] - 1
                if remaining:
                    counts[edge] = remaining
                else:
                    del counts[edge]
        del counts[busiest]
        work.remove_edge(u, v)
        removed += 1
    return work, removed
