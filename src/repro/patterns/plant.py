"""Scenario generators for H-diverse workloads.

Instance families built from bulk inserts rather than per-edge ones
(edge arrays for planted copies, whole neighbor rows for the incidence
graph):

* :func:`planted_disjoint_subgraphs` — vertex-disjoint planted copies of
  one pattern H over an optional G(n, d) background.  Vertex-disjoint
  copies are edge-disjoint, so the instance is certifiably
  ``copies / |E|``-far from H-freeness (each removal kills at most one
  copy).  Moved here from ``repro.core.subgraph_detection`` and rebuilt
  on one bulk edge-array insert; the RNG draw sequence and the produced
  graph are identical to the historical per-edge construction (pinned
  by tests).
* :func:`planted_mixed_patterns` — one instance carrying vertex-disjoint
  planted copies of *several* patterns at once (all blocks mutually
  disjoint), for workloads that interleave pattern families.
* :func:`subgraph_free_by_removal` — the control side: destroy every
  copy of H by repeated deterministic edge deletion, yielding a
  certified H-free graph plus a removal count that upper-bounds the
  distance to H-freeness (the planted-copies count lower-bounds it, so
  the two sandwich the true distance exactly like the triangle layer's
  packing/removal pair).
* :func:`incidence_c4_free` — the C4-free control that removal cannot
  build at benchmark sizes: the point-line incidence graph of the
  projective plane PG(2, q), girth 6 (two points share exactly one
  line, so no four-cycle), (q+1)-regular — the Kővári–Sós–Turán
  extremal C4-free family, far denser than any removal residue.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.patterns.catalog import SubgraphPattern
from repro.patterns.matcher import find_copy_in_rows

__all__ = [
    "PlantedSubgraphInstance",
    "MixedPatternInstance",
    "planted_disjoint_subgraphs",
    "planted_mixed_patterns",
    "subgraph_free_by_removal",
    "incidence_c4_free",
]


@dataclass(frozen=True)
class PlantedSubgraphInstance:
    """An instance far from H-freeness by construction."""

    graph: Graph
    pattern: SubgraphPattern
    planted_copies: tuple[tuple[int, ...], ...]
    epsilon_certified: float


@dataclass(frozen=True)
class MixedPatternInstance:
    """One instance with disjoint planted copies of several patterns."""

    graph: Graph
    placements: tuple[tuple[SubgraphPattern, tuple[tuple[int, ...], ...]], ...]

    def copies_of(self, pattern: SubgraphPattern
                  ) -> tuple[tuple[int, ...], ...]:
        for planted_pattern, images in self.placements:
            if planted_pattern == pattern:
                return images
        return ()

    def epsilon_certified(self, pattern: SubgraphPattern) -> float:
        """copies / |E| — the farness the planted copies certify."""
        return len(self.copies_of(pattern)) / max(1, self.graph.num_edges)


def _plant_images(graph: Graph, pattern: SubgraphPattern,
                  images: Sequence[tuple[int, ...]]) -> None:
    """Commit planted copies in one
    :meth:`~repro.graphs.graph.Graph.add_edge_arrays` call.

    The array path costs O(edges) and merges edge keys only on a graph
    whose rows are not built yet, so planting never builds the host's
    rows (n-bit masks at large n).  No randomness is drawn.
    """
    members = np.asarray(images, dtype=np.int64).reshape(
        len(images), pattern.num_vertices
    )
    src = [u for u, _ in pattern.edges]
    dst = [v for _, v in pattern.edges]
    graph.add_edge_arrays(members[:, src].ravel(), members[:, dst].ravel())


def planted_disjoint_subgraphs(n: int, pattern: SubgraphPattern,
                               copies: int, seed: int = 0,
                               background_degree: float = 0.0
                               ) -> PlantedSubgraphInstance:
    """Plant vertex-disjoint copies of H (plus optional background).

    Vertex-disjoint copies are edge-disjoint, so destroying all of them
    requires >= ``copies`` edge removals: the instance is certifiably
    ``copies / |E|``-far from H-freeness.
    """
    h = pattern.num_vertices
    if copies * h > n:
        raise ValueError(
            f"cannot plant {copies} disjoint {pattern.name} copies on "
            f"{n} vertices"
        )
    rng = random.Random(seed)
    vertices = list(range(n))
    rng.shuffle(vertices)
    from repro.graphs.generators import gnd

    graph = (
        gnd(n, background_degree, seed=seed + 1)
        if background_degree > 0
        else Graph(n)
    )
    planted = tuple(
        tuple(vertices[index * h: (index + 1) * h])
        for index in range(copies)
    )
    _plant_images(graph, pattern, planted)
    return PlantedSubgraphInstance(
        graph=graph,
        pattern=pattern,
        planted_copies=planted,
        epsilon_certified=copies / max(1, graph.num_edges),
    )


def planted_mixed_patterns(n: int,
                           specs: Sequence[tuple[SubgraphPattern, int]],
                           seed: int = 0,
                           background_degree: float = 0.0
                           ) -> MixedPatternInstance:
    """Plant vertex-disjoint copies of several patterns in one instance.

    ``specs`` is ``[(pattern, copies), ...]``; all planted blocks across
    all patterns are mutually vertex-disjoint (hence edge-disjoint), so
    each pattern's farness certificate holds simultaneously.
    """
    needed = sum(pattern.num_vertices * copies for pattern, copies in specs)
    if needed > n:
        raise ValueError(
            f"cannot plant {needed} block vertices on {n} vertices"
        )
    rng = random.Random(seed)
    vertices = list(range(n))
    rng.shuffle(vertices)
    from repro.graphs.generators import gnd

    graph = (
        gnd(n, background_degree, seed=seed + 1)
        if background_degree > 0
        else Graph(n)
    )
    placements: list[tuple[SubgraphPattern, tuple[tuple[int, ...], ...]]] = []
    cursor = 0
    for pattern, copies in specs:
        h = pattern.num_vertices
        images = tuple(
            tuple(vertices[cursor + index * h: cursor + (index + 1) * h])
            for index in range(copies)
        )
        cursor += copies * h
        _plant_images(graph, pattern, images)
        placements.append((pattern, images))
    return MixedPatternInstance(graph=graph, placements=tuple(placements))


def subgraph_free_by_removal(graph: Graph, pattern: SubgraphPattern
                             ) -> tuple[Graph, int]:
    """Destroy all copies of H by edge deletion; returns (graph, #removed).

    The generalization of the triangle layer's
    :func:`~repro.graphs.triangles.make_triangle_free_by_removal`:
    repeatedly find the canonical-first copy and delete its canonically
    smallest edge.  Each deletion destroys at least the found copy, so
    the loop terminates and the removal count upper-bounds the distance
    to H-freeness (any certified planted-copies count lower-bounds it).

    Deterministic: the matcher's canonical-first copy plus the fixed
    edge choice make the output a pure function of the input graph.
    """
    work = graph.copy()
    removed = 0
    rows = work.adjacency_rows()
    while True:
        copy = find_copy_in_rows(rows, pattern)
        if copy is None:
            return work, removed
        u, v = min(
            (min(copy[a], copy[b]), max(copy[a], copy[b]))
            for a, b in pattern.edges
        )
        work.remove_edge(u, v)
        removed += 1


def _projective_points(q: int) -> list[tuple[int, int, int]]:
    """Canonical representatives of PG(2, q): one per projective point."""
    points = [(1, a, b) for a in range(q) for b in range(q)]
    points.extend((0, 1, a) for a in range(q))
    points.append((0, 0, 1))
    return points


def incidence_c4_free(q: int) -> Graph:
    """Point-line incidence graph of PG(2, q) — girth 6, hence C4-free.

    ``q`` must be prime (arithmetic is mod q).  Vertices: the
    ``N = q^2 + q + 1`` projective points (ids ``0 .. N-1``) and the N
    lines (ids ``N .. 2N-1``, by duality the same coordinate set); point
    P lies on line L iff ``P·L = 0 (mod q)``.  Any two points share
    exactly one line, so no two vertices have two common neighbours —
    i.e. no C4 — while every vertex has degree q+1: the densest C4-free
    graphs there are (Kővári–Sós–Turán tight).
    """
    if q < 2 or any(q % p == 0 for p in range(2, int(q ** 0.5) + 1)):
        raise ValueError(f"q must be prime, got {q}")
    points = _projective_points(q)
    count = len(points)
    graph = Graph(2 * count)
    for line_index, (a, b, c) in enumerate(points):
        incident = 0
        for point_index, (x, y, z) in enumerate(points):
            if (a * x + b * y + c * z) % q == 0:
                incident |= 1 << point_index
        graph.add_neighbors(count + line_index, incident)
    return graph
