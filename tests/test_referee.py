"""Differential tests: rows-union referee vs the historical set referee.

The PR 4 re-pin contract: the rows-union referee may report a *different*
triangle than the set-union referee (canonical minimum vs hash iteration
order) but must accept/reject — find a triangle or not — identically on
every message batch, because both search the same union.  Hypothesis
drives randomly generated message batches (including duplicated edges
across messages, empty messages, and non-canonical orientations) through
both referees.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.referee import (
    rows_union_subgraph_referee,
    rows_union_triangle_referee,
    union_rows,
)
from repro.graphs.generators import gnd
from repro.graphs.graph import Graph
from repro.graphs.triangles import (
    find_triangle,
    find_triangle_in_rows,
    iter_triangles,
)
from repro.patterns.catalog import FOUR_CLIQUE, FOUR_CYCLE, TRIANGLE, star
from repro.patterns.matcher import is_copy_in_rows

from oracles import networkx_available
from oracles.core import set_union_subgraph_referee, set_union_triangle_referee

N = 20

MESSAGES = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=N - 1),
            st.integers(min_value=0, max_value=N - 1),
        ).filter(lambda e: e[0] != e[1]),
        max_size=30,
    ),
    min_size=1,
    max_size=5,
)


class TestRefereeDifferential:
    @given(MESSAGES)
    @settings(max_examples=250, deadline=None)
    def test_accept_reject_identical(self, messages):
        """>= 200 hypothesis instances: both referees agree on found."""
        rows_triangle = rows_union_triangle_referee(messages, N)
        set_triangle = set_union_triangle_referee(messages)
        assert (rows_triangle is None) == (set_triangle is None)

    @given(MESSAGES)
    @settings(max_examples=100, deadline=None)
    def test_rows_triangle_is_canonical_minimum(self, messages):
        """The rows referee reports the ascending-first union triangle."""
        triangle = rows_union_triangle_referee(messages, N)
        union_graph = Graph(N)
        for message in messages:
            union_graph.add_edges(message)
        assert triangle == find_triangle(union_graph)
        if triangle is not None:
            assert triangle in set(iter_triangles(union_graph))

    @given(MESSAGES)
    @settings(max_examples=100, deadline=None)
    def test_union_rows_matches_graph_rows(self, messages):
        union_graph = Graph(N)
        for message in messages:
            union_graph.add_edges(message)
        assert union_rows(messages, N) == union_graph.adjacency_rows()


class TestFindTriangleInRows:
    def test_matches_graph_search(self):
        for seed in range(6):
            graph = gnd(60, 5.0, seed=seed)
            assert find_triangle_in_rows(graph.adjacency_rows()) == \
                find_triangle(graph)

    def test_empty_rows(self):
        assert find_triangle_in_rows([]) is None
        assert find_triangle_in_rows([0] * 10) is None

    def test_single_triangle(self):
        graph = Graph(5, [(1, 3), (1, 4), (3, 4)])
        assert find_triangle_in_rows(graph.adjacency_rows()) == (1, 3, 4)


class TestSubgraphRefereeDifferential:
    """The H generalization of the accept/reject contract: the rows
    referee (mask matcher) and the historical set[Edge]+VF2 referee must
    agree on found for every pattern and message batch."""

    @pytest.mark.skipif(not networkx_available(),
                        reason="optional reference dep networkx missing")
    @given(MESSAGES, st.sampled_from(
        [TRIANGLE, FOUR_CLIQUE, FOUR_CYCLE, star(3)]
    ))
    @settings(max_examples=150, deadline=None)
    def test_accept_reject_identical(self, messages, pattern):
        rows_copy = rows_union_subgraph_referee(messages, N, pattern)
        set_copy = set_union_subgraph_referee(messages, pattern)
        assert (rows_copy is None) == (set_copy is None)
        if rows_copy is not None:
            rows = union_rows(messages, N)
            assert is_copy_in_rows(rows, pattern, rows_copy)
            assert is_copy_in_rows(rows, pattern, set_copy)

    @given(MESSAGES)
    @settings(max_examples=100, deadline=None)
    def test_k3_referee_matches_triangle_referee(self, messages):
        """On H = K3 both rows referees report the *same* triangle: the
        matcher's canonical-first K3 image, sorted, is the triangle
        scan's ascending-first triple."""
        copy = rows_union_subgraph_referee(messages, N, TRIANGLE)
        triangle = rows_union_triangle_referee(messages, N)
        assert (copy is None) == (triangle is None)
        if copy is not None:
            assert tuple(sorted(copy)) == triangle
