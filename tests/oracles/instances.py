"""Scalar instance builders: the per-edge loops the array paths replay.

Each function is the implementation :mod:`repro.graphs` used before
instances became edge-key arrays from generator to player — one
``randrange`` or ``add_edge`` call per edge — kept as the executable
specification the bulk paths are pinned against draw for draw
(``tests/test_partition.py``, ``tests/test_vectorized_generators.py``):

* :func:`partition_disjoint_reference` — one ``rng.randrange(k)`` per
  edge in ascending canonical order, into per-player frozensets;
* :func:`partition_by_vertex_reference` — one ``rng.randrange(k)`` per
  vertex, each edge to its lower endpoint's player;
* :func:`planted_disjoint_triangles_reference` — three ``add_edge``
  calls per planted triangle;
* :func:`triangle_free_degree_spread_reference` — one ``add_edge`` per
  sampled partner.
"""

from __future__ import annotations

import random

from repro.graphs.generators import PlantedInstance, gnd
from repro.graphs.graph import Edge, Graph

__all__ = [
    "partition_by_vertex_reference",
    "partition_disjoint_reference",
    "planted_disjoint_triangles_reference",
    "triangle_free_degree_spread_reference",
]


def partition_disjoint_reference(graph: Graph, k: int,
                                 seed: int = 0) -> tuple[frozenset[Edge], ...]:
    """The views of ``partition_disjoint(graph, k, seed)``."""
    rng = random.Random(seed)
    buckets: list[set[Edge]] = [set() for _ in range(k)]
    for edge in graph.edges():
        buckets[rng.randrange(k)].add(edge)
    return tuple(frozenset(bucket) for bucket in buckets)


def planted_disjoint_triangles_reference(n: int, num_triangles: int,
                                         seed: int = 0,
                                         background_degree: float = 0.0
                                         ) -> PlantedInstance:
    """``planted_disjoint_triangles`` through per-edge inserts."""
    rng = random.Random(seed)
    vertices = list(range(n))
    rng.shuffle(vertices)
    graph = (
        gnd(n, background_degree, seed=seed + 1)
        if background_degree > 0
        else Graph(n)
    )
    planted: list[tuple[int, int, int]] = []
    for t in range(num_triangles):
        a, b, c = sorted(vertices[3 * t: 3 * t + 3])
        graph.add_edge(a, b)
        graph.add_edge(a, c)
        graph.add_edge(b, c)
        planted.append((a, b, c))
    epsilon = num_triangles / max(1, graph.num_edges)
    return PlantedInstance(graph, tuple(planted), epsilon)


def triangle_free_degree_spread_reference(n: int, d: float, max_degree: int,
                                          seed: int = 0) -> Graph:
    """``triangle_free_degree_spread`` through per-edge inserts."""
    rng = random.Random(seed)
    half = n // 2
    if half < 2:
        return Graph(n)
    max_degree = min(max_degree, half - 1)
    bucket_degrees: list[int] = []
    degree = 1
    while degree <= max_degree:
        bucket_degrees.append(degree)
        degree *= 3
    if not bucket_degrees:
        bucket_degrees = [1]
    if bucket_degrees[-1] < max_degree:
        bucket_degrees.append(max_degree)
    per_bucket = n * d / 2.0 / len(bucket_degrees)
    counts = [
        max(1, int(per_bucket / bucket_degree))
        for bucket_degree in bucket_degrees
    ]
    total_left = sum(counts)
    if total_left > half:
        shrink = half / total_left
        counts = [max(1, int(count * shrink)) for count in counts]
    graph = Graph(n)
    left_cursor = 0
    right = list(range(half, n))
    for bucket_degree, count in sorted(
        zip(bucket_degrees, counts), reverse=True
    ):
        for _ in range(count):
            if left_cursor >= half:
                break
            v = left_cursor
            left_cursor += 1
            partners = rng.sample(right, min(bucket_degree, len(right)))
            for u in partners:
                graph.add_edge(v, u)
    return graph


def partition_by_vertex_reference(graph: Graph, k: int,
                                  seed: int = 0) -> tuple[frozenset[Edge], ...]:
    """The views of ``partition_by_vertex(graph, k, seed)``."""
    rng = random.Random(seed)
    owner = [rng.randrange(k) for _ in range(graph.n)]
    buckets: list[set[Edge]] = [set() for _ in range(k)]
    for u, v in graph.edges():
        buckets[owner[u]].add((u, v))
    return tuple(frozenset(bucket) for bucket in buckets)
