"""Pattern library: small connected H with matcher-ready metadata.

The H-freeness extension (Section 5's "wider class of subgraphs") needs
its patterns in one place: :class:`SubgraphPattern` is the validated,
immutable description of a pattern graph H on vertices ``0 .. h-1``, and
the constructors below (:func:`clique`, :func:`cycle`, :func:`path`,
:func:`star`, :func:`from_edges`) build the families the protocols,
generators, and benchmarks sweep over.  This module supersedes the
ad-hoc pattern constants that used to live in
``repro.core.subgraph_detection`` (they are re-exported from there for
compatibility).

Patterns are *connected* by construction: the farness argument behind
the generalized tester counts edge-disjoint copies — "each removal kills
at most one disjoint copy" — and a disconnected H breaks that accounting
silently (one removal can wound a copy without destroying any connected
piece shared with another).  ``__post_init__`` therefore validates
connectivity (and rejects isolated vertices) instead of letting such
patterns through.

Beyond the raw edge tuple, a pattern carries the derived metadata the
mask matcher and the analysis layer need, each computed once and cached:

* :attr:`~SubgraphPattern.rows` — H's own adjacency masks, the pattern-
  side twin of the host's bitset kernel rows;
* :attr:`~SubgraphPattern.matching_order` — a static connectivity-
  respecting vertex order (every vertex after the first is adjacent to
  an earlier one), which is what lets the matcher express every
  candidate set as an intersection of already-mapped neighbours' host
  rows;
* :attr:`~SubgraphPattern.automorphism_count` — |Aut(H)| by brute force
  (h <= 8 throughout the catalog), the overcount factor between labelled
  monomorphisms and subgraph copies;
* :attr:`~SubgraphPattern.density` — 2e_H / (h(h-1)), the knob that
  drives the sample probability p = c (2 e_H / (eps n d))^{1/h}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from repro.graphs.graph import Edge, canonical_edge, iter_bits

__all__ = [
    "SubgraphPattern",
    "clique",
    "cycle",
    "path",
    "star",
    "from_edges",
    "TRIANGLE",
    "FOUR_CLIQUE",
    "FOUR_CYCLE",
    "FIVE_CYCLE",
    "DEFAULT_CATALOG",
]


@dataclass(frozen=True)
class SubgraphPattern:
    """A small connected pattern graph H on vertices ``0 .. h-1``.

    Edges are canonicalized to ``(u, v)`` with ``u < v`` and sorted, so
    two patterns with the same edge set compare equal regardless of the
    orientation or order they were written in.
    """

    name: str
    num_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        canonical = []
        for u, v in self.edges:
            if u == v or not (0 <= u < self.num_vertices
                              and 0 <= v < self.num_vertices):
                raise ValueError(
                    f"invalid pattern edge ({u}, {v}) for h={self.num_vertices}"
                )
            canonical.append(canonical_edge(u, v))
        if self.num_vertices < 2 or not canonical:
            raise ValueError("pattern must have >= 2 vertices and an edge")
        if len(set(canonical)) != len(canonical):
            raise ValueError(f"duplicate pattern edges in {canonical}")
        object.__setattr__(self, "edges", tuple(sorted(canonical)))
        self._validate_connected()

    def _validate_connected(self) -> None:
        """Reject disconnected H (see module docstring for why)."""
        rows = [0] * self.num_vertices
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        reached = 1
        frontier = rows[0]
        while frontier & ~reached:
            fresh = frontier & ~reached
            reached |= fresh
            frontier = 0
            for v in iter_bits(fresh):
                frontier |= rows[v]
        if reached != (1 << self.num_vertices) - 1:
            missing = [v for v in range(self.num_vertices)
                       if not reached >> v & 1]
            raise ValueError(
                f"pattern {self.name!r} is disconnected (vertices {missing} "
                "unreachable from 0); the edge-disjoint-copies farness "
                "argument requires connected H"
            )

    # ------------------------------------------------------------------
    # Derived metadata (computed once, cached on the instance)
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def density(self) -> float:
        """2 e_H / (h (h-1)) — edge density relative to the clique."""
        h = self.num_vertices
        return 2.0 * self.num_edges / (h * (h - 1))

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """H's own per-vertex adjacency masks (pattern-side kernel rows)."""
        rows = [0] * self.num_vertices
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return tuple(rows)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.rows)

    @cached_property
    def matching_order(self) -> tuple[int, ...]:
        """Static connectivity-respecting vertex order for the matcher.

        Starts at a maximum-degree vertex (ties: lowest id) and greedily
        appends the unplaced vertex with the most already-placed
        neighbours (ties: higher degree, then lowest id).  Connectivity
        guarantees every position after the first has at least one
        earlier neighbour, so the matcher's candidate sets are always
        adjacency-mask intersections — never a full-universe scan.
        """
        rows = self.rows
        degrees = self.degrees
        first = max(range(self.num_vertices),
                    key=lambda v: (degrees[v], -v))
        order = [first]
        placed = 1 << first
        while len(order) < self.num_vertices:
            best = max(
                (v for v in range(self.num_vertices) if not placed >> v & 1),
                key=lambda v: ((rows[v] & placed).bit_count(),
                               degrees[v], -v),
            )
            order.append(best)
            placed |= 1 << best
        return tuple(order)

    @cached_property
    def automorphism_count(self) -> int:
        """|Aut(H)| by brute force over vertex permutations (h <= 8)."""
        edge_set = set(self.edges)
        count = 0
        for sigma in permutations(range(self.num_vertices)):
            if all(canonical_edge(sigma[u], sigma[v]) in edge_set
                   for u, v in self.edges):
                count += 1
        return count


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def clique(k: int) -> SubgraphPattern:
    """K_k — the complete graph on k vertices."""
    if k < 2:
        raise ValueError(f"clique needs k >= 2, got {k}")
    return SubgraphPattern(
        f"K{k}", k,
        tuple((u, v) for u in range(k) for v in range(u + 1, k)),
    )


def cycle(k: int) -> SubgraphPattern:
    """C_k — the cycle on k vertices."""
    if k < 3:
        raise ValueError(f"cycle needs k >= 3, got {k}")
    return SubgraphPattern(
        f"C{k}", k,
        tuple((i, (i + 1) % k) for i in range(k)),
    )


def path(k: int) -> SubgraphPattern:
    """P_k — the path on k vertices (k-1 edges)."""
    if k < 2:
        raise ValueError(f"path needs k >= 2 vertices, got {k}")
    return SubgraphPattern(
        f"P{k}", k, tuple((i, i + 1) for i in range(k - 1))
    )


def star(leaves: int) -> SubgraphPattern:
    """K_{1,k} — a centre (vertex 0) joined to ``leaves`` leaves."""
    if leaves < 1:
        raise ValueError(f"star needs >= 1 leaf, got {leaves}")
    return SubgraphPattern(
        f"K1,{leaves}", leaves + 1,
        tuple((0, i) for i in range(1, leaves + 1)),
    )


def from_edges(name: str, edges, num_vertices: int | None = None
               ) -> SubgraphPattern:
    """Build a pattern from an arbitrary edge list.

    ``num_vertices`` defaults to ``max endpoint + 1``; pass it explicitly
    only to assert the intended vertex count (isolated extra vertices are
    rejected by the connectivity check either way).
    """
    edge_tuple = tuple(edges)
    if not edge_tuple:
        raise ValueError("pattern must have an edge")
    inferred = max(max(u, v) for u, v in edge_tuple) + 1
    return SubgraphPattern(name, num_vertices or inferred, edge_tuple)


TRIANGLE = clique(3)
FOUR_CLIQUE = clique(4)
FOUR_CYCLE = cycle(4)
FIVE_CYCLE = cycle(5)

#: The patterns the benchmarks and the Table-1-style sweep row run over:
#: cliques, cycles, a path and a star — one representative per family,
#: spanning densities from 2/h to 1.
DEFAULT_CATALOG: tuple[SubgraphPattern, ...] = (
    TRIANGLE,
    FOUR_CLIQUE,
    FOUR_CYCLE,
    FIVE_CYCLE,
    path(4),
    star(3),
)
