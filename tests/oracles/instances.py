"""Scalar instance builders: the per-edge loops the array paths replay.

Each function is the implementation :mod:`repro.graphs` used before
instances became edge-key arrays from generator to player — one
``random``, ``randrange`` or ``add_edge`` call per pair or edge — kept
as the executable specification the bulk paths are pinned against draw
for draw (``tests/test_partition.py``,
``tests/test_vectorized_generators.py``,
``benchmarks/bench_generation.py``):

* :func:`gnp_reference` (and :func:`gnd_reference`) — geometric
  skipping over the upper-pair list, one ``rng.random()`` per gap;
* :func:`powerlaw_host_reference` — two ``rng.random()`` endpoint
  draws per candidate edge, inverted by ``bisect``;
* :func:`tripartite_mu_reference` and
  :func:`bipartite_triangle_free_reference` — one ``rng.random()`` per
  cross-part pair, row by row;

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

import bisect
import math
import random

import numpy as np

from repro.graphs.generators import (
    PlantedInstance,
    TripartiteParts,
    gnd,
    mu_parts,
)
from repro.graphs.graph import Edge, Graph

__all__ = [
    "bipartite_triangle_free_reference",
    "gnd_reference",
    "gnp_reference",
    "partition_by_vertex_reference",
    "partition_disjoint_reference",
    "planted_disjoint_triangles_reference",
    "powerlaw_host_reference",
    "triangle_free_degree_spread_reference",
    "tripartite_mu_reference",
]


def gnp_reference(n: int, p: float, seed: int = 0) -> Graph:
    """``gnp(n, p, seed)`` through one ``add_edge`` per sampled pair."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    rng = random.Random(seed)
    if p == 0.0 or n < 2:
        return Graph(n)
    log_q = math.log1p(-p) if p < 1.0 else None
    total_pairs = n * (n - 1) // 2
    if log_q is None:
        return Graph.complete(n)
    graph = Graph(n)
    # Unranking state carried across hits: sampled indices are strictly
    # increasing, so (u, row_start, row_len) only ever move forward —
    # amortized O(1) per hit instead of O(n) re-unranking.
    index = -1
    u = 0
    row_start = 0
    row_len = n - 1
    while True:
        gap = int(math.log(max(rng.random(), 1e-300)) / log_q) + 1
        index += gap
        if index >= total_pairs:
            return graph
        while index - row_start >= row_len:
            row_start += row_len
            u += 1
            row_len -= 1
        graph.add_edge(u, u + 1 + (index - row_start))


def gnd_reference(n: int, d: float, seed: int = 0) -> Graph:
    """``gnd(n, d, seed)`` through :func:`gnp_reference`."""
    if n < 2:
        return Graph(n)
    return gnp_reference(n, min(1.0, d / (n - 1)), seed)


def powerlaw_host_reference(n: int, d: float, exponent: float = 2.5,
                            seed: int = 0) -> Graph:
    """``powerlaw_host`` through two ``rng.random()`` draws per edge."""
    draws = int(round(n * d / 2.0))
    if n < 2 or draws == 0:
        return Graph(n)
    alpha = 1.0 / (exponent - 1.0)
    rng = random.Random(seed)
    cum = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** (-alpha))
    total = float(cum[-1])
    edges: list[tuple[int, int]] = []
    for _ in range(draws):
        u = min(bisect.bisect_right(cum, rng.random() * total), n - 1)
        v = min(bisect.bisect_right(cum, rng.random() * total), n - 1)
        if u != v:
            edges.append((u, v))
    graph = Graph(n)
    graph.add_edges(edges)
    return graph


def tripartite_mu_reference(part_size: int, gamma: float, seed: int = 0
                            ) -> tuple[Graph, TripartiteParts]:
    """``tripartite_mu`` through one ``rng.random()`` per cross pair."""
    parts = mu_parts(part_size)
    n = parts.n
    p = min(1.0, gamma / math.sqrt(n))
    rng = random.Random(seed)
    part_pairs = (
        (parts.u_part, parts.v1_part),
        (parts.u_part, parts.v2_part),
        (parts.v1_part, parts.v2_part),
    )
    graph = Graph(n)
    random_value = rng.random
    for part_a, part_b in part_pairs:
        for u in part_a:
            # Accumulate u's sampled row as one mask, committed in bulk;
            # the per-pair draw order is unchanged, so seeds reproduce
            # the exact graphs of the per-edge implementation.
            row = 0
            for v in part_b:
                if random_value() < p:
                    row |= 1 << v
            if row:
                graph.add_neighbors(u, row)
    return graph, parts


def bipartite_triangle_free_reference(n: int, d: float,
                                      seed: int = 0) -> Graph:
    """``bipartite_triangle_free`` through one ``rng.random()`` per pair."""
    rng = random.Random(seed)
    half = n // 2
    graph = Graph(n)
    if half == 0 or n - half == 0:
        return graph
    p = min(1.0, n * d / (2.0 * half * (n - half)))
    random_value = rng.random
    for u in range(half):
        row = 0
        for v in range(half, n):
            if random_value() < p:
                row |= 1 << v
        if row:
            graph.add_neighbors(u, row)
    return graph


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
