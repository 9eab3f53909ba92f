"""One kernel, keys-first instances: every input answers like its edges.

With a single mask kernel, what used to be checked across kernels is
checked across the two states of one graph: keys-first (sorted edge
keys, no kernel yet) and built.  Each instance generator's graph must
answer every query like the set-based oracle built from its edge keys,
like a keys-first rebuild from those keys and like its own pickle; its
triangle layer must reproduce the oracle routines.  Bulk edge-array
construction is checked against edge-by-edge builds at n = 70 (> 64, so
rows straddle a word boundary), and the large-n keys path — a partition
plus :func:`key_union_triangle_referee` on the players' key arrays —
must find the triangle a graph search finds under every partition
scheme.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.referee import key_union_triangle_referee
from repro.graphs import Graph, mask_of
from repro.graphs.generators import (
    bipartite_triangle_free,
    disjoint_cliques,
    embed_in_larger_graph,
    far_instance,
    gnd,
    gnp,
    planted_disjoint_triangles,
    planted_triangles_at_degree,
    powerlaw_host,
    skewed_hub_graph,
    triangle_free_degree_spread,
    tripartite_mu,
)
from repro.graphs.graph import unique_keys
from repro.graphs.partition import (
    partition_adversarial_skew,
    partition_all_to_all,
    partition_by_vertex,
    partition_concentrate_edges,
    partition_disjoint,
    partition_with_duplication,
)
from repro.graphs.triangles import (
    count_triangles,
    find_triangle,
    greedy_triangle_packing,
    iter_triangles,
    make_triangle_free_by_removal,
    triangle_edges,
)
from repro.patterns.catalog import FOUR_CLIQUE, FOUR_CYCLE, TRIANGLE
from repro.patterns.plant import (
    incidence_c4_free,
    planted_disjoint_subgraphs,
    planted_mixed_patterns,
    subgraph_free_by_removal,
)
from repro.runtime.cache import InstanceCache, instance_nbytes

from oracles.graphs import (
    SetGraph,
    count_triangles_reference,
    find_triangle_reference,
    greedy_triangle_packing_reference,
    iter_triangles_reference,
    make_triangle_free_by_removal_reference,
    triangle_edges_reference,
)

GENERATORS = {
    "gnp": lambda: gnp(90, 0.08, seed=1),
    "gnp_small": lambda: gnp(30, 0.1, seed=16),
    "gnd": lambda: gnd(90, 5.0, seed=2),
    "planted_disjoint_triangles": lambda: planted_disjoint_triangles(
        90, 10, seed=3, background_degree=2.0).graph,
    "far_instance": lambda: far_instance(120, 6.0, 0.1, seed=5).graph,
    "skewed_hub_graph": lambda: skewed_hub_graph(
        90, 3, 8, seed=4, background_degree=1.0),
    "powerlaw_host": lambda: powerlaw_host(120, 4.0, seed=6),
    "tripartite_mu": lambda: tripartite_mu(24, 0.5, seed=7)[0],
    "tripartite_mu_small": lambda: tripartite_mu(4, 1.3, seed=17)[0],
    "bipartite_triangle_free": lambda: bipartite_triangle_free(
        90, 4.0, seed=8),
    "planted_triangles_at_degree": lambda: planted_triangles_at_degree(
        90, 5, 6, seed=9),
    "disjoint_cliques": lambda: disjoint_cliques(90, 5, 6, seed=10),
    "triangle_free_degree_spread": lambda: triangle_free_degree_spread(
        120, 4.0, 20, seed=11),
    "embed_in_larger_graph": lambda: embed_in_larger_graph(
        Graph.complete(6), 80, seed=12),
    "planted_disjoint_subgraphs": lambda: planted_disjoint_subgraphs(
        90, FOUR_CYCLE, 5, seed=13, background_degree=1.0).graph,
    "planted_mixed_patterns": lambda: planted_mixed_patterns(
        90, [(FOUR_CLIQUE, 3), (TRIANGLE, 2)], seed=14).graph,
    "subgraph_free_by_removal": lambda: subgraph_free_by_removal(
        gnd(80, 6.0, seed=15), FOUR_CYCLE)[0],
    "incidence_c4_free": lambda: incidence_c4_free(5),
}

generator_cases = pytest.mark.parametrize(
    "make", list(GENERATORS.values()), ids=list(GENERATORS))


def probes(n: int) -> list[int]:
    """Word-boundary and end vertices that exist in an ``n``-vertex graph."""
    return sorted({v for v in (0, 1, 13, 62, 63, 64, 65, n - 1) if v < n})


def oracle_of(graph: Graph) -> SetGraph:
    return SetGraph(graph.n, graph.edges())


def keys_first_copy(graph: Graph) -> Graph:
    """An unbuilt graph holding ``graph``'s edges in reversed orientation."""
    us, vs = divmod(graph.edge_keys(), graph.n)
    return Graph.from_edge_arrays(graph.n, vs, us)


def answers(graph) -> dict:
    """The queries ``Graph`` and ``SetGraph`` share, on the probe set."""
    vertices = probes(graph.n)
    return {
        "n": graph.n,
        "num_edges": graph.num_edges,
        "edges": sorted(graph.edges()),
        "degrees": graph.degrees(),
        "isolated": graph.isolated_vertices(),
        "has_edge": [graph.has_edge(u, v)
                     for u in vertices for v in vertices],
        "neighbors": [graph.neighbors(v) for v in vertices],
        "neighbor_mask": [graph.neighbor_mask(v) for v in vertices],
        "common": [graph.common_neighbors(u, v)
                   for u in vertices for v in vertices if u != v],
    }


class TestGeneratorGraphs:
    @generator_cases
    def test_matches_set_oracle(self, make):
        graph = make()
        reference = oracle_of(graph)
        assert graph.num_edges > 0
        assert answers(graph) == answers(reference)
        assert graph.average_degree() == reference.average_degree()
        vertices = set(probes(graph.n)) | set(range(0, graph.n, 7))
        assert graph.induced_subgraph_edges(vertices) == {
            e for e in reference.edges() if set(e) <= vertices}
        assert graph.edges_touching(vertices) == {
            e for e in reference.edges() if set(e) & vertices}

    @generator_cases
    def test_keys_first_rebuild_answers_the_same(self, make):
        graph = make()
        rebuilt = keys_first_copy(graph)
        assert rebuilt == graph and graph == rebuilt
        assert np.array_equal(rebuilt.edge_keys(), graph.edge_keys())
        assert rebuilt.nbytes == graph.edge_keys().nbytes
        assert answers(rebuilt) == answers(graph)
        assert rebuilt.adjacency_rows() == graph.adjacency_rows()
        mask = mask_of(probes(graph.n))
        assert rebuilt.induced_subgraph_mask_rows(mask) \
            == graph.induced_subgraph_mask_rows(mask)
        assert rebuilt.edges_touching_mask(mask) \
            == graph.edges_touching_mask(mask)

    @generator_cases
    def test_pickle_round_trip_stays_equal_and_mutable(self, make):
        graph = make()
        before = answers(graph)
        thawed = pickle.loads(pickle.dumps(graph))
        assert thawed == graph
        assert answers(thawed) == before
        reference = oracle_of(graph)
        u, v = 0, graph.n - 1
        assert thawed.add_edge(u, v) == reference.add_edge(u, v)
        assert thawed.remove_edge(0, 1) == reference.remove_edge(0, 1)
        assert answers(thawed) == answers(reference)
        # The pickled original is untouched by the thawed copy's edits.
        assert answers(graph) == before

    @generator_cases
    def test_triangle_layer_matches_oracle(self, make):
        graph = make()
        reference = oracle_of(graph)
        assert find_triangle(graph) == find_triangle_reference(reference)
        assert count_triangles(graph) == count_triangles_reference(reference)
        assert list(iter_triangles(graph)) \
            == list(iter_triangles_reference(reference))
        assert triangle_edges(graph) == triangle_edges_reference(reference)
        assert greedy_triangle_packing(graph) \
            == greedy_triangle_packing_reference(reference)
        free, removed = make_triangle_free_by_removal(graph)
        free_ref, removed_ref = \
            make_triangle_free_by_removal_reference(reference)
        assert removed == removed_ref
        assert free.edge_set() == free_ref.edge_set()


N = 70  # > 64: rows straddle a 64-bit word boundary

VERTEX = st.one_of(
    st.integers(min_value=0, max_value=N - 1),
    st.sampled_from([0, 62, 63, 64, 65, N - 1]),
)
OPS = st.lists(st.tuples(st.booleans(), VERTEX, VERTEX), max_size=150)


def build_scalar(ops) -> tuple[Graph, SetGraph]:
    graph, reference = Graph(N), SetGraph(N)
    for add, u, v in ops:
        if u == v:
            continue
        if add:
            assert graph.add_edge(u, v) == reference.add_edge(u, v)
        else:
            assert graph.remove_edge(u, v) == reference.remove_edge(u, v)
    return graph, reference


class TestBulkEdgeArrays:
    @given(OPS)
    @settings(max_examples=30, deadline=None)
    def test_from_edge_arrays_equals_scalar_build(self, ops):
        graph, reference = build_scalar(ops)
        edges = list(reference.edges())
        us = np.array([u for u, _ in edges], dtype=np.int64)
        vs = np.array([v for _, v in edges], dtype=np.int64)
        rebuilt = Graph.from_edge_arrays(N, us, vs)
        assert rebuilt == graph
        assert rebuilt.num_edges == graph.num_edges
        # Reversed orientation and duplicates canonicalize away.
        doubled = Graph.from_edge_arrays(
            N, np.concatenate([us, vs]), np.concatenate([vs, us]))
        assert doubled == graph and doubled.num_edges == graph.num_edges
        assert answers(doubled) == answers(reference)

    def test_add_edge_arrays_counts_only_new(self):
        for graph in (Graph(8), Graph.from_edge_arrays(
                8, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))):
            us = np.array([0, 1, 2], dtype=np.int64)
            vs = np.array([1, 2, 3], dtype=np.int64)
            assert graph.add_edge_arrays(us, vs) == 3
            assert graph.add_edge_arrays(us, vs) == 0  # idempotent
            assert graph.add_edge_arrays(
                np.array([3, 0], dtype=np.int64),
                np.array([4, 1], dtype=np.int64),
            ) == 1
            assert graph.num_edges == 4
            assert graph == Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4)])

    def test_edge_array_validation(self):
        us = np.array([0], dtype=np.int64)
        with pytest.raises(ValueError, match="length"):
            Graph.from_edge_arrays(4, us, np.array([1, 2]))
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edge_arrays(4, us, us)
        with pytest.raises(ValueError, match="outside"):
            Graph.from_edge_arrays(4, us, np.array([4]))

    def test_complete_matches_per_vertex_fill(self):
        quick = Graph.complete(N)
        slow = Graph(N)
        for u in range(N):
            slow.add_neighbors(u, ((1 << N) - 1) ^ (1 << u))
        assert quick == slow
        assert quick.num_edges == N * (N - 1) // 2
        assert quick.adjacency_rows() == slow.adjacency_rows()


class TestMemoryReporting:
    def test_nbytes_is_keys_until_built(self):
        n = 4096
        path = Graph.from_edge_arrays(
            n, np.arange(n - 1, dtype=np.int64),
            np.arange(1, n, dtype=np.int64))
        keys_only = path.nbytes
        assert keys_only == path.edge_keys().nbytes == 8 * (n - 1)
        assert path.has_edge(0, 1)  # builds the kernel
        assert path.nbytes == path._kernel.memory_bytes() + keys_only
        assert path.nbytes > keys_only

    def test_instance_cache_reports_bytes(self):
        graph = Graph(64, [(0, 1), (1, 2)])
        assert instance_nbytes(graph) == graph.nbytes > 0
        cache = InstanceCache(max_entries=4)
        cache.get_or_build(("g",), lambda: graph)
        assert cache.stats()["instance_bytes"] == graph.nbytes
        cache.clear()
        assert cache.stats()["instance_bytes"] == 0


PARTITIONS = {
    "disjoint": lambda g: partition_disjoint(g, 3, seed=1),
    "with_duplication": lambda g: partition_with_duplication(g, 3, seed=2),
    "all_to_all": lambda g: partition_all_to_all(g, 3),
    "adversarial_skew": lambda g: partition_adversarial_skew(g, 4, seed=3),
    "concentrate_edges": lambda g: partition_concentrate_edges(
        g, 3, list(g.edges())[::5], seed=4),
    "by_vertex": lambda g: partition_by_vertex(g, 3, seed=5),
}

HOSTS = {
    "far": lambda: far_instance(600, 6.0, 0.1, seed=21).graph,
    "triangle_free": lambda: bipartite_triangle_free(600, 6.0, seed=22),
}


@pytest.mark.parametrize("host", list(HOSTS.values()), ids=list(HOSTS))
@pytest.mark.parametrize("split", list(PARTITIONS.values()),
                         ids=list(PARTITIONS))
def test_key_referee_matches_graph_search(split, host):
    graph = host()
    partition = split(graph)
    union = unique_keys(np.concatenate(partition.view_keys))
    assert np.array_equal(union, graph.edge_keys())
    triangle = key_union_triangle_referee(partition.view_keys, graph.n)
    assert triangle == find_triangle(graph)
    assert (triangle is None) == (count_triangles(graph) == 0)
