"""Reference ``set``-based graph backend for differential testing.

:class:`SetGraph` is the pre-bitset implementation of
:class:`~repro.graphs.graph.Graph` — one ``set[int]`` per vertex — kept as
an executable specification.  It exposes the same query API (including the
bulk mask primitives, computed the slow way), so:

* property tests drive random edge-op sequences through both backends and
  assert they never disagree (``tests/test_graph_kernel.py``),
* ``benchmarks/bench_graph_kernel.py`` measures the bitset kernel against
  this baseline on the reference grids,
* the reference triangle routines below (straight ports of the original
  set-based algorithms, order-normalized to ascending enumeration) pin
  down the outputs the rewritten hot paths must reproduce exactly.

:func:`to_networkx` converts a :class:`Graph` for networkx-based checks.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.graphs.graph import Edge, canonical_edge

from oracles import require_networkx

__all__ = [
    "SetGraph",
    "to_networkx",
    "find_triangle_reference",
    "iter_triangles_reference",
    "count_triangles_reference",
    "triangle_edges_reference",
    "greedy_triangle_packing_reference",
    "make_triangle_free_by_removal_reference",
]

Triangle = tuple[int, int, int]


class SetGraph:
    """Adjacency-``set`` graph with the :class:`Graph` query API."""

    __slots__ = ("_n", "_adjacency", "_edge_count")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self._n = n
        self._adjacency: list[set[int]] = [set() for _ in range(n)]
        self._edge_count = 0
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction ---------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        u, v = canonical_edge(u, v)
        self._check_vertex(u)
        self._check_vertex(v)
        if v in self._adjacency[u]:
            return False
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._edge_count += 1
        return True

    def add_edges(self, edges: Iterable[Edge]) -> int:
        return sum(self.add_edge(u, v) for u, v in edges)

    def add_neighbors(self, u: int, mask: int) -> int:
        added = 0
        bits = 0
        while mask >> bits:
            if mask >> bits & 1:
                added += self.add_edge(u, bits)
            bits += 1
        return added

    def remove_edge(self, u: int, v: int) -> bool:
        u, v = canonical_edge(u, v)
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adjacency[u]:
            return False
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._edge_count -= 1
        return True

    def copy(self) -> "SetGraph":
        clone = SetGraph(self._n)
        clone._adjacency = [set(adj) for adj in self._adjacency]
        clone._edge_count = self._edge_count
        return clone

    # -- queries --------------------------------------------------------
    @property
    def n(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adjacency[u]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adjacency[v])

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(self._adjacency[v])

    def neighbor_mask(self, v: int) -> int:
        self._check_vertex(v)
        mask = 0
        for u in self._adjacency[v]:
            mask |= 1 << u
        return mask

    def common_neighbors(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        mask = 0
        for w in self._adjacency[u] & self._adjacency[v]:
            mask |= 1 << w
        return mask

    def average_degree(self) -> float:
        if self._n == 0:
            return 0.0
        return 2.0 * self._edge_count / self._n

    def edges(self) -> Iterator[Edge]:
        """Canonical edges, ascending (order-normalized for comparisons)."""
        for u in range(self._n):
            for v in sorted(self._adjacency[u]):
                if u < v:
                    yield (u, v)

    def edge_set(self) -> set[Edge]:
        return set(self.edges())

    def degrees(self) -> list[int]:
        return [len(adj) for adj in self._adjacency]

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self._n) if not self._adjacency[v]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetGraph):
            return NotImplemented
        return self._n == other._n and self._adjacency == other._adjacency

    def __repr__(self) -> str:
        return f"SetGraph(n={self._n}, m={self._edge_count})"

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} outside range [0, {self._n})")


# ----------------------------------------------------------------------
# Reference triangle routines (original set-based algorithms)
# ----------------------------------------------------------------------
def find_triangle_reference(graph) -> Triangle | None:
    """First triangle by ascending (edge, apex) enumeration, or None."""
    for u, v in graph.edges():
        common = graph.neighbors(u) & graph.neighbors(v)
        if common:
            w = min(common)
            x, y, z = sorted((u, v, w))
            return (x, y, z)
    return None


def iter_triangles_reference(graph) -> Iterator[Triangle]:
    """Every triangle exactly once, ascending (u < v < w)."""
    for u, v in graph.edges():
        common = graph.neighbors(u) & graph.neighbors(v)
        for w in sorted(common):
            if w > v:
                yield (u, v, w)


def count_triangles_reference(graph) -> int:
    return sum(1 for _ in iter_triangles_reference(graph))


def triangle_edges_reference(graph) -> set[Edge]:
    result: set[Edge] = set()
    for a, b, c in iter_triangles_reference(graph):
        result.add((a, b))
        result.add((a, c))
        result.add((b, c))
    return result


def greedy_triangle_packing_reference(graph) -> list[Triangle]:
    """Greedy maximal edge-disjoint packing over ascending enumeration."""
    used_edges: set[Edge] = set()
    packing: list[Triangle] = []
    for a, b, c in iter_triangles_reference(graph):
        edges = ((a, b), (a, c), (b, c))
        if any(edge in used_edges for edge in edges):
            continue
        used_edges.update(edges)
        packing.append((a, b, c))
    return packing


def make_triangle_free_by_removal_reference(graph):
    """Busiest-edge removal, recounting all triangles each round."""
    work = graph.copy()
    removed = 0
    while True:
        counts: dict[Edge, int] = {}
        for a, b, c in iter_triangles_reference(work):
            for edge in ((a, b), (a, c), (b, c)):
                counts[edge] = counts.get(edge, 0) + 1
        if not counts:
            return work, removed
        busiest = max(counts, key=lambda edge: (counts[edge], edge))
        work.remove_edge(*busiest)
        removed += 1


def to_networkx(graph):
    """``graph`` as a ``networkx.Graph`` (isolated vertices preserved)."""
    nx = require_networkx("to_networkx")
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(graph.n))
    nx_graph.add_edges_from(graph.edges())
    return nx_graph
