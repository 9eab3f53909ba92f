"""Differential tests: key-union referee vs the historical set referee.

The PR 4 re-pin contract: the production referee may report a
*different* triangle than the set-union referee (canonical minimum vs
hash iteration order) but must accept/reject — find a triangle or not —
identically on every message batch, because both search the same union.
Hypothesis drives randomly generated message batches (including
duplicated edges across messages, empty messages, and non-canonical
orientations, sent as the players' sorted key arrays) through both
referees.  The key-union triangle referee must also report exactly the
triangle the bitmask scan finds on the union's rows, whatever the wedge
budget.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core import referee
from repro.core.referee import (
    WEDGE_BUDGET,
    key_union_triangle_referee,
    rows_union_subgraph_referee,
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


def as_keys(messages, n: int = N) -> list[np.ndarray]:
    """Edge-tuple messages in the players' form: sorted canonical keys."""
    return [
        np.array(
            sorted({min(u, v) * n + max(u, v) for u, v in message}),
            dtype=np.int64,
        )
        for message in messages
    ]


class TestRefereeDifferential:
    @given(MESSAGES)
    @settings(max_examples=250, deadline=None)
    def test_accept_reject_identical(self, messages):
        """>= 200 hypothesis instances: both referees agree on found."""
        keys = as_keys(messages)
        key_triangle = key_union_triangle_referee(keys, N)
        set_triangle = set_union_triangle_referee(keys, N)
        assert (key_triangle is None) == (set_triangle is None)

    @given(MESSAGES)
    @settings(max_examples=100, deadline=None)
    def test_rows_triangle_is_canonical_minimum(self, messages):
        """The key referee reports the ascending-first union triangle."""
        triangle = key_union_triangle_referee(as_keys(messages), N)
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
        assert union_rows(as_keys(messages), N) == \
            union_graph.adjacency_rows()


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
        keys = as_keys(messages)
        rows_copy = rows_union_subgraph_referee(keys, N, pattern)
        set_copy = set_union_subgraph_referee(keys, N, pattern)
        assert (rows_copy is None) == (set_copy is None)
        if rows_copy is not None:
            rows = union_rows(keys, N)
            assert is_copy_in_rows(rows, pattern, rows_copy)
            assert is_copy_in_rows(rows, pattern, set_copy)

    @given(MESSAGES)
    @settings(max_examples=100, deadline=None)
    def test_k3_referee_matches_triangle_referee(self, messages):
        """On H = K3 both rows referees report the *same* triangle: the
        matcher's canonical-first K3 image, sorted, is the triangle
        scan's ascending-first triple."""
        keys = as_keys(messages)
        copy = rows_union_subgraph_referee(keys, N, TRIANGLE)
        triangle = key_union_triangle_referee(keys, N)
        assert (copy is None) == (triangle is None)
        if copy is not None:
            assert tuple(sorted(copy)) == triangle


@st.composite
def sized_messages(draw):
    """(n, messages) with n from 0 up, messages possibly empty and
    sharing edges across senders."""
    n = draw(st.integers(min_value=0, max_value=24))
    if n < 2:
        return n, [[] for _ in range(draw(st.integers(1, 3)))]
    edge = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda e: e[0] != e[1])
    pool = draw(st.lists(edge, max_size=80))
    messages = draw(st.lists(
        st.lists(st.sampled_from(pool), max_size=60) if pool
        else st.just([]),
        min_size=1, max_size=5,
    ))
    return n, messages


def rows_answer(keys, n):
    return find_triangle_in_rows(union_rows(keys, n))


class TestKeyUnionTriangleReferee:
    """The wedge walk equals the bitmask scan on the union's rows."""

    @given(sized_messages(), st.integers(min_value=1, max_value=9))
    @settings(max_examples=250, deadline=None)
    def test_matches_rows_scan_under_any_budget(self, sized, budget):
        n, messages = sized
        keys = as_keys(messages, n)
        expected = rows_answer(keys, n)
        assert key_union_triangle_referee(keys, n) == expected
        # A budget of a few wedges walks the union in many chunks.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(referee, "WEDGE_BUDGET", budget)
            assert key_union_triangle_referee(keys, n) == expected

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_universes(self, n):
        messages = [[], [(0, 1)], [(0, 1)]] if n == 2 else [[], []]
        keys = as_keys(messages, n)
        assert key_union_triangle_referee(keys, n) is None
        assert union_rows(keys, n) == ([2, 1] if n == 2 else [0] * n)

    def test_union_crossing_the_budget(self):
        # Vertex 0's star alone has C(400, 2) > WEDGE_BUDGET wedges;
        # the only triangle closes on its last wedge, a later chunk.
        n = 401
        star = [(0, v) for v in range(1, n)]
        assert (n - 1) * (n - 2) // 2 > WEDGE_BUDGET
        messages = [star[::2], star[1::2], star[:10]]
        assert key_union_triangle_referee(as_keys(messages, n), n) is None
        messages.append([(n - 2, n - 1)])
        keys = as_keys(messages, n)
        assert key_union_triangle_referee(keys, n) == (0, n - 2, n - 1)
        assert rows_answer(keys, n) == (0, n - 2, n - 1)

    def test_dense_triangle_free_union(self):
        # K_{30,30}: every wedge is open, so the walk visits them all.
        n = 60
        biclique = [(u, v) for u in range(30) for v in range(30, n)]
        messages = [biclique[:500], biclique[400:]]
        keys = as_keys(messages, n)
        assert key_union_triangle_referee(keys, n) is None
        assert rows_answer(keys, n) is None
        messages.append([(31, 59)])
        keys = as_keys(messages, n)
        assert key_union_triangle_referee(keys, n) == rows_answer(keys, n)
        assert key_union_triangle_referee(keys, n) == (0, 31, 59)
