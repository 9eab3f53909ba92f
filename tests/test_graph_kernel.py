"""Differential tests: bitset ``Graph`` vs the set-based reference.

Graph's bitset rows (one adjacency-mask int per vertex) must be
observationally identical to :class:`oracles.graphs.SetGraph`, the
executable specification it replaced.  Hypothesis drives random edge
operation sequences through both backends and compares every query; the
triangle layer's rewritten hot paths are checked against the
order-normalized reference routines on the same graphs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph, iter_bits, mask_of
from repro.graphs.triangles import (
    count_triangles,
    find_triangle,
    greedy_triangle_packing,
    iter_triangle_vees,
    iter_triangles,
    make_triangle_free_by_removal,
    triangle_edges,
)

from oracles.graphs import (
    SetGraph,
    count_triangles_reference,
    find_triangle_reference,
    greedy_triangle_packing_reference,
    iter_triangles_reference,
    make_triangle_free_by_removal_reference,
    triangle_edges_reference,
)

# An op sequence: each element is (add?, u, v) over a small vertex range.
OPS = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=23),
        st.integers(min_value=0, max_value=23),
    ),
    max_size=120,
)


def build_both(n: int, ops) -> tuple[Graph, SetGraph]:
    bitset, reference = Graph(n), SetGraph(n)
    for add, u, v in ops:
        if u == v:
            continue
        if add:
            assert bitset.add_edge(u, v) == reference.add_edge(u, v)
        else:
            assert bitset.remove_edge(u, v) == reference.remove_edge(u, v)
    return bitset, reference


class TestEdgeOpRoundTrip:
    @given(OPS)
    @settings(max_examples=150, deadline=None)
    def test_queries_agree_after_random_ops(self, ops):
        bitset, reference = build_both(24, ops)
        assert bitset.num_edges == reference.num_edges
        assert list(bitset.edges()) == list(reference.edges())
        assert bitset.degrees() == reference.degrees()
        for v in range(24):
            assert bitset.neighbors(v) == reference.neighbors(v)
            assert bitset.neighbor_mask(v) == reference.neighbor_mask(v)
        for u in range(24):
            for v in range(24):
                assert bitset.has_edge(u, v) == reference.has_edge(u, v)
                if u < v:
                    assert (
                        bitset.common_neighbors(u, v)
                        == reference.common_neighbors(u, v)
                    )

    @given(OPS, st.sets(st.integers(min_value=0, max_value=23)))
    @settings(max_examples=60, deadline=None)
    def test_derived_graphs_agree(self, ops, vertices):
        bitset, reference = build_both(24, ops)
        rows = bitset.induced_subgraph_mask_rows(mask_of(vertices))
        assert len(rows) == bitset.n
        assert {
            (u, v) for u, row in enumerate(rows) for v in iter_bits(row)
            if u < v
        } == {
            e for e in reference.edges()
            if e[0] in vertices and e[1] in vertices
        }
        assert all(
            rows[v] >> u & 1 for u, row in enumerate(rows)
            for v in iter_bits(row)
        )

    @given(OPS)
    @settings(max_examples=60, deadline=None)
    def test_copy_is_independent_and_equal(self, ops):
        bitset, _ = build_both(24, ops)
        clone = bitset.copy()
        assert clone == bitset
        changed = clone.add_edge(0, 1) or clone.remove_edge(0, 1)
        assert changed and clone != bitset


class TestTriangleLayerRoundTrip:
    @given(OPS)
    @settings(max_examples=100, deadline=None)
    def test_triangle_enumeration_identical(self, ops):
        bitset, reference = build_both(24, ops)
        assert list(iter_triangles(bitset)) == list(
            iter_triangles_reference(reference)
        )
        assert find_triangle(bitset) == find_triangle_reference(reference)
        assert count_triangles(bitset) == count_triangles_reference(reference)
        assert triangle_edges(bitset) == triangle_edges_reference(reference)

    @given(OPS)
    @settings(max_examples=100, deadline=None)
    def test_greedy_packing_identical(self, ops):
        bitset, reference = build_both(24, ops)
        assert greedy_triangle_packing(bitset) == (
            greedy_triangle_packing_reference(reference)
        )

    @given(OPS)
    @settings(max_examples=40, deadline=None)
    def test_incremental_removal_identical(self, ops):
        bitset, reference = build_both(24, ops)
        fast, fast_removed = make_triangle_free_by_removal(bitset)
        slow, slow_removed = make_triangle_free_by_removal_reference(
            reference
        )
        assert fast_removed == slow_removed
        assert fast.edge_set() == slow.edge_set()

    @given(OPS, st.integers(min_value=0, max_value=23))
    @settings(max_examples=60, deadline=None)
    def test_vee_enumeration_matches_definition(self, ops, source):
        bitset, reference = build_both(24, ops)
        expected = []
        neighbours = sorted(reference.neighbors(source))
        for i, u in enumerate(neighbours):
            for w in neighbours[i + 1:]:
                if reference.has_edge(u, w):
                    expected.append(
                        (tuple(sorted((source, u))),
                         tuple(sorted((source, w))))
                    )
        assert list(iter_triangle_vees(bitset, source)) == expected


class TestMaskHelpers:
    @given(st.sets(st.integers(min_value=0, max_value=200)))
    def test_mask_roundtrip(self, vertices):
        assert set(iter_bits(mask_of(vertices))) == vertices

    def test_add_neighbors_counts_new_edges(self):
        graph = Graph(8, [(0, 1)])
        assert graph.add_neighbors(0, mask_of({1, 2, 3})) == 2
        assert graph.num_edges == 3
        assert graph.has_edge(0, 3) and graph.has_edge(2, 0)

    def test_add_neighbors_rejects_self_loop_and_overflow(self):
        graph = Graph(4)
        with pytest.raises(ValueError):
            graph.add_neighbors(1, 1 << 1)
        with pytest.raises(ValueError):
            graph.add_neighbors(1, 1 << 4)

    def test_add_edges_bulk(self):
        graph = Graph(5)
        assert graph.add_edges([(0, 1), (1, 0), (2, 3)]) == 2
        assert graph.num_edges == 2
