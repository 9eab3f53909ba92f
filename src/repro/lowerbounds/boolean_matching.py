"""Boolean Matching and the Theorem 4.16 reduction (degree-O(1) hardness).

The Boolean Matching problem BM_n (Definition 12): Alice holds a vector
``x ∈ {0,1}^{2n}``; Bob holds a perfect matching M on [2n] and a vector
``w ∈ {0,1}^n``; they must distinguish ``Mx ⊕ w = 0`` from ``Mx ⊕ w = 1``,
where ``(Mx)_i`` is the XOR of x over the i-th matching edge.  Its one-way
randomized complexity is Ω(sqrt(n)) ([28]/[36]).

Theorem 4.16's reduction turns a BM instance into a graph on
``1 + 4n`` vertices (a hub u plus two "sides" (j,0),(j,1) for each index
j ∈ [2n]):

* Alice connects the hub to side x_j of every column j;
* Bob, per matching edge {j1, j2}: parallel side edges when w_i = 0,
  crossed when w_i = 1.

The gadget at matching edge i contains a triangle iff ``(Mx ⊕ w)_i = 0``,
so the all-zeros case yields n edge-disjoint triangles (a 1-far graph of
average degree O(1)) and the all-ones case is triangle-free — giving the
Ω(sqrt(n)) one-way lower bound on testing triangle-freeness at d = Θ(1).

Everything here is executable: instance samplers for both promise cases,
the reduction graph with its 2-player (and padded 3-player) partition, and
exhaustive verification helpers used by the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graphs.graph import Edge, Graph, iter_bits, mask_of
from repro.graphs.partition import EdgePartition

__all__ = [
    "BMInstance",
    "bm_product",
    "sample_bm_instance",
    "hub_vertex",
    "side_vertex",
    "reduction_graph",
    "reduction_partition",
    "gadget_has_triangle",
]


@dataclass(frozen=True)
class BMInstance:
    """One Boolean Matching input pair.

    ``x`` has length 2n; ``matching`` is a tuple of n disjoint index pairs
    covering [2n]; ``w`` has length n.
    """

    x: tuple[int, ...]
    matching: tuple[tuple[int, int], ...]
    w: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.matching)
        if len(self.x) != 2 * n:
            raise ValueError(
                f"|x| must be 2n = {2 * n}, got {len(self.x)}"
            )
        if len(self.w) != n:
            raise ValueError(f"|w| must be n = {n}, got {len(self.w)}")
        covered = [j for pair in self.matching for j in pair]
        if sorted(covered) != list(range(2 * n)):
            raise ValueError("matching is not a perfect matching on [2n]")
        if any(bit not in (0, 1) for bit in self.x + self.w):
            raise ValueError("x and w must be 0/1 vectors")

    @property
    def n(self) -> int:
        return len(self.matching)


def bm_product(instance: BMInstance) -> tuple[int, ...]:
    """The vector Mx ⊕ w."""
    return tuple(
        instance.x[j1] ^ instance.x[j2] ^ instance.w[i]
        for i, (j1, j2) in enumerate(instance.matching)
    )


def sample_bm_instance(n: int, promise: str, seed: int = 0) -> BMInstance:
    """A random BM instance with ``Mx ⊕ w`` all-zeros or all-ones.

    ``promise`` is ``"zeros"`` (graph 1-far from triangle-free) or
    ``"ones"`` (graph triangle-free); w is solved for after drawing x and
    a uniformly random perfect matching.
    """
    if promise not in ("zeros", "ones"):
        raise ValueError(f"promise must be 'zeros' or 'ones', got {promise!r}")
    rng = random.Random(seed)
    x = tuple(rng.randrange(2) for _ in range(2 * n))
    indices = list(range(2 * n))
    rng.shuffle(indices)
    matching = tuple(
        (min(indices[2 * i], indices[2 * i + 1]),
         max(indices[2 * i], indices[2 * i + 1]))
        for i in range(n)
    )
    target = 0 if promise == "zeros" else 1
    w = tuple(
        x[j1] ^ x[j2] ^ target for (j1, j2) in matching
    )
    return BMInstance(x=x, matching=matching, w=w)


# ----------------------------------------------------------------------
# Reduction graph layout
# ----------------------------------------------------------------------
def hub_vertex() -> int:
    """The hub u of the reduction graph."""
    return 0


def side_vertex(column: int, side: int) -> int:
    """Vertex (column, side) of the reduction graph; columns in [2n]."""
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, got {side}")
    return 1 + 2 * column + side


def reduction_graph(instance: BMInstance
                    ) -> tuple[Graph, set[Edge], set[Edge]]:
    """Build (graph, Alice's edges, Bob's edges) for the reduction.

    Vertices: hub 0 plus (j, b) for j in [2n], b in {0,1} — total 1 + 4n.

    Alice's view is one adjacency row — the hub's neighbour mask,
    committed in a single bulk :meth:`~repro.graphs.graph.Graph.add_neighbors`
    — and Bob's gadget edges accumulate as per-vertex rows (one bit per
    side edge, keyed at the lower endpoint) committed row by row, so the
    reduction is assembled on adjacency rows instead of edge-at-a-time.
    The returned edge sets are enumerated back from those rows.
    """
    n_vertices = 1 + 4 * instance.n
    graph = Graph(n_vertices)
    hub = hub_vertex()
    hub_row = 0
    for j, bit in enumerate(instance.x):
        hub_row |= 1 << side_vertex(j, bit)
    graph.add_neighbors(hub, hub_row)
    alice: set[Edge] = {(hub, v) for v in iter_bits(hub_row)}
    bob_rows: dict[int, int] = {}
    for i, (j1, j2) in enumerate(instance.matching):
        if instance.w[i] == 0:
            pairs = ((0, 0), (1, 1))
        else:
            pairs = ((0, 1), (1, 0))
        for b1, b2 in pairs:
            u, v = side_vertex(j1, b1), side_vertex(j2, b2)
            if v < u:
                u, v = v, u
            bob_rows[u] = bob_rows.get(u, 0) | (1 << v)
    bob: set[Edge] = set()
    for u, row in bob_rows.items():
        graph.add_neighbors(u, row)
        for v in iter_bits(row):
            bob.add((u, v))
    return graph, alice, bob


def reduction_partition(instance: BMInstance, k: int = 2) -> EdgePartition:
    """The reduction as an EdgePartition (extra players get empty views)."""
    if k < 2:
        raise ValueError(f"the reduction needs k >= 2, got {k}")
    graph, alice, bob = reduction_graph(instance)
    views = [frozenset(alice), frozenset(bob)]
    views.extend(frozenset() for _ in range(k - 2))
    return EdgePartition(graph, tuple(views))


def gadget_has_triangle(instance: BMInstance, i: int) -> bool:
    """Does the i-th matching gadget contain a triangle?

    Theorem 4.16's dichotomy predicts this is ``(Mx ⊕ w)_i == 0``; tests
    check the prediction against the actual graph.
    """
    graph, _, _ = reduction_graph(instance)
    j1, j2 = instance.matching[i]
    gadget_mask = mask_of((
        hub_vertex(),
        side_vertex(j1, 0), side_vertex(j1, 1),
        side_vertex(j2, 0), side_vertex(j2, 1),
    ))
    rows = graph.induced_subgraph_mask_rows(gadget_mask)
    from repro.graphs.triangles import find_triangle_in_rows

    return find_triangle_in_rows(rows) is not None
