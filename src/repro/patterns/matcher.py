"""Rows-native monomorphism engine: H-copy search on adjacency masks.

This is the pattern generalization of the triangle kernel's
:func:`~repro.graphs.triangles.find_triangle_in_rows`.  The host lives as
per-vertex adjacency masks (the bitset kernel's native form — a referee's
rows union, a :class:`~repro.graphs.graph.Graph`'s rows, a player view);
the search is a backtracking walk over H's vertices in the pattern's
static :attr:`~repro.patterns.catalog.SubgraphPattern.matching_order`:

* because the order is connectivity-respecting, every pattern vertex
  after the first has at least one already-mapped neighbour, so its
  candidate set is an *adjacency-mask intersection* —
  ``AND of rows[image of mapped neighbours] & ~used_mask`` — one big-int
  ``&`` per mapped neighbour, executed word-at-a-time in C;
* candidates are pre-filtered by degree (a host vertex standing in for
  pattern vertex ``p`` needs ``deg >= deg_H(p)``), with one shared
  degree-threshold mask per distinct pattern degree;
* enumeration is deterministic ascending (lowest set bit first), so the
  returned copy is **canonical-first**: the lexicographically least
  image sequence with respect to the pattern's matching order, a pure
  function of the host edge *set* — independent of message order,
  hashing, or Python version.  Automorphism-heavy patterns (C4, K4)
  always report the same copy of the same union.

Monomorphism semantics match the referee's need (and the VF2 oracle
under ``tests/oracles/``): images are injective and every
pattern edge must be present in the host; extra host edges among image
vertices are allowed (K4 contains C4).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.graphs.graph import Edge, Graph, canonical_edge, iter_bits
from repro.patterns.catalog import SubgraphPattern

__all__ = [
    "find_copy_in_rows",
    "find_copy",
    "find_copy_among",
    "has_copy_in_rows",
    "is_copy_in_rows",
]


def find_copy_in_rows(rows: Sequence[int], pattern: SubgraphPattern
                      ) -> tuple[int, ...] | None:
    """The canonical-first monomorphic copy of H, or ``None``.

    ``rows`` are per-vertex adjacency masks indexed by vertex (treated
    read-only).  Returns the image vertices in *pattern-vertex* order:
    ``result[p]`` is the host vertex standing in for pattern vertex ``p``.
    """
    n = len(rows)
    h = pattern.num_vertices
    if h > n:
        return None
    order = pattern.matching_order
    pattern_rows = pattern.rows
    degrees = pattern.degrees

    # One degree-threshold mask per distinct pattern degree: bit v set
    # iff host vertex v has enough neighbours to play that role.  The
    # single popcount pass doubles as the trivial-host early exit.
    thresholds = sorted(set(degrees))
    masks = [0] * len(thresholds)
    for v, row in enumerate(rows):
        if not row:
            continue
        host_degree = row.bit_count()
        for i, needed in enumerate(thresholds):
            if host_degree >= needed:
                masks[i] |= 1 << v
            else:
                break
    threshold_masks = dict(zip(thresholds, masks))

    required = [threshold_masks[degrees[v]] for v in order]
    # Positions (in the matching order) of each vertex's already-placed
    # pattern neighbours: the rows whose intersection is the candidate set.
    position_of = {v: i for i, v in enumerate(order)}
    earlier_neighbors = [
        tuple(sorted(
            position_of[u] for u in iter_bits(pattern_rows[v])
            if position_of[u] < i
        ))
        for i, v in enumerate(order)
    ]

    image = [0] * h          # host vertex chosen at each order position
    candidates = [0] * h     # remaining candidate mask per position
    candidates[0] = required[0]
    used = 0
    depth = 0
    while True:
        remaining = candidates[depth]
        if remaining:
            low = remaining & -remaining
            candidates[depth] = remaining ^ low
            v = low.bit_length() - 1
            image[depth] = v
            if depth == h - 1:
                return tuple(image[position_of[p]] for p in range(h))
            used |= low
            nxt = depth + 1
            cand = required[nxt] & ~used
            for j in earlier_neighbors[nxt]:
                cand &= rows[image[j]]
                if not cand:
                    break
            candidates[nxt] = cand
            depth = nxt
        else:
            depth -= 1
            if depth < 0:
                return None
            used &= ~(1 << image[depth])


def find_copy(graph: Graph, pattern: SubgraphPattern
              ) -> tuple[int, ...] | None:
    """Canonical-first copy of H in a :class:`Graph` host."""
    return find_copy_in_rows(graph.adjacency_rows(), pattern)


def find_copy_among(edges: Iterable[Edge], pattern: SubgraphPattern,
                    n: int | None = None) -> tuple[int, ...] | None:
    """Canonical-first copy of H in a plain edge bag, or ``None``.

    The referee-facing form: folds the bag into adjacency rows (any
    orientation, duplicates collapse) and runs the rows matcher.  ``n``
    defaults to ``max endpoint + 1``.
    """
    max_vertex = -1
    pairs: list[Edge] = []
    for u, v in edges:
        pairs.append(canonical_edge(u, v))
        if v > max_vertex:
            max_vertex = v
        if u > max_vertex:
            max_vertex = u
    size = (max_vertex + 1) if n is None else n
    if len(pairs) < pattern.num_edges or size < pattern.num_vertices:
        return None
    rows = [0] * size
    for u, v in pairs:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return find_copy_in_rows(rows, pattern)


def has_copy_in_rows(rows: Sequence[int], pattern: SubgraphPattern) -> bool:
    return find_copy_in_rows(rows, pattern) is not None


def is_copy_in_rows(rows: Sequence[int], pattern: SubgraphPattern,
                    image: Sequence[int]) -> bool:
    """Validate a claimed image: injective, in-range, all pattern edges
    present.  The checker benchmarks and tests use to certify witnesses
    from *any* matcher without trusting its search order."""
    n = len(rows)
    if len(image) != pattern.num_vertices:
        return False
    if len(set(image)) != len(image):
        return False
    if any(not 0 <= v < n for v in image):
        return False
    return all(
        rows[image[u]] >> image[v] & 1 for u, v in pattern.edges
    )
