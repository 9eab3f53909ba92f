"""Tests for the Section 3.1 building blocks (repro.core.building_blocks)."""

from collections import Counter

import pytest

from repro.comm.coordinator import CoordinatorRuntime
from repro.comm.players import make_players
from repro.comm.randomness import SharedRandomness
from repro.core.building_blocks import (
    bfs_tree,
    collect_induced_subgraph,
    collect_neighbors,
    edge_index,
    query_edge,
    random_edge,
    random_incident_edge,
    random_walk,
)
from repro.graphs.generators import gnd
from repro.graphs.graph import Graph
from repro.graphs.partition import (
    partition_all_to_all,
    partition_disjoint,
    partition_with_duplication,
)


@pytest.fixture
def setup():
    graph = gnd(60, 5.0, seed=1)
    partition = partition_with_duplication(graph, 3, seed=2)
    rt = CoordinatorRuntime(make_players(partition), SharedRandomness(3))
    return graph, rt


def fresh_rt(partition, seed):
    return CoordinatorRuntime(make_players(partition), SharedRandomness(seed))


class TestQueryEdge:
    def test_present_edge(self, setup):
        graph, rt = setup
        edge = next(iter(graph.edges()))
        assert query_edge(rt, *edge) is True

    def test_absent_edge(self, setup):
        graph, rt = setup
        for u in range(60):
            for v in range(u + 1, 60):
                if not graph.has_edge(u, v):
                    assert query_edge(rt, u, v) is False
                    return

    def test_cost_linear_in_k(self, setup):
        graph, rt = setup
        edge = next(iter(graph.edges()))
        query_edge(rt, *edge)
        # k bits up + k bits down + k request bits.
        assert rt.ledger.total_bits == 3 * rt.k


class TestRandomIncidentEdge:
    def test_returns_incident_edge(self, setup):
        graph, rt = setup
        v = max(range(60), key=graph.degree)
        edge = random_incident_edge(rt, v)
        assert edge is not None
        assert v in edge
        assert graph.has_edge(*edge)

    def test_isolated_vertex_returns_none(self):
        graph = Graph(5, [(0, 1)])
        partition = partition_disjoint(graph, 2, seed=1)
        rt = fresh_rt(partition, 2)
        assert random_incident_edge(rt, 4) is None

    def test_unbiased_under_duplication(self):
        # One neighbour duplicated to all players, others held by one:
        # naive "first local edge" sampling would favour the duplicate.
        graph = Graph(8, [(0, i) for i in range(1, 8)])
        views = [
            frozenset({(0, 1), (0, 2), (0, 3)}),
            frozenset({(0, 1), (0, 4), (0, 5)}),
            frozenset({(0, 1), (0, 6), (0, 7)}),
        ]
        from repro.graphs.partition import EdgePartition

        partition = EdgePartition(graph, views)
        counts: Counter[int] = Counter()
        for seed in range(700):
            rt = fresh_rt(partition, seed)
            edge = random_incident_edge(rt, 0, tag=seed)
            counts[edge[1]] += 1
        # Each neighbour expected 100 times; the duplicated one must not
        # be systematically favoured.
        assert counts[1] < 200

    def test_cost_k_log_n(self, setup):
        graph, rt = setup
        v = max(range(60), key=graph.degree)
        random_incident_edge(rt, v)
        assert rt.ledger.total_bits <= rt.k * 50


class TestRandomWalk:
    def test_walk_follows_edges(self, setup):
        graph, rt = setup
        v = max(range(60), key=graph.degree)
        path = random_walk(rt, v, steps=4)
        assert path[0] == v
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b)

    def test_walk_halts_at_isolated(self):
        graph = Graph(5, [(0, 1)])
        partition = partition_disjoint(graph, 2, seed=1)
        rt = fresh_rt(partition, 3)
        path = random_walk(rt, 4, steps=3)
        assert path == [4]

    def test_negative_steps_rejected(self, setup):
        _, rt = setup
        with pytest.raises(ValueError):
            random_walk(rt, 0, steps=-1)


class TestRandomEdge:
    def test_returns_graph_edge(self, setup):
        graph, rt = setup
        edge = random_edge(rt)
        assert graph.has_edge(*edge)

    def test_empty_graph_returns_none(self):
        graph = Graph(5)
        from repro.graphs.partition import EdgePartition

        partition = EdgePartition(graph, (frozenset(), frozenset()))
        rt = fresh_rt(partition, 1)
        assert random_edge(rt) is None

    def test_roughly_uniform_over_edges(self):
        graph = Graph(6, [(0, 1), (2, 3), (4, 5)])
        partition = partition_all_to_all(graph, 3)
        counts: Counter = Counter()
        for seed in range(300):
            rt = fresh_rt(partition, seed)
            counts[random_edge(rt, tag=seed)] += 1
        for edge in graph.edges():
            assert 40 <= counts[edge] <= 180  # expectation 100

    def test_edge_index_unique(self):
        n = 20
        indices = {
            edge_index((u, v), n)
            for u in range(n)
            for v in range(u + 1, n)
        }
        assert len(indices) == n * (n - 1) // 2


class TestInducedSubgraph:
    def test_collects_exact_edges(self, setup):
        graph, rt = setup
        vertices = list(range(25))
        collected = collect_induced_subgraph(rt, vertices)
        assert collected == {
            (u, v) for u, v in graph.edges() if u < 25 and v < 25
        }

    def test_cap_limits_per_player(self, setup):
        graph, rt = setup
        collected = collect_induced_subgraph(
            rt, range(60), cap_per_player=1
        )
        assert len(collected) <= rt.k

    def test_collect_neighbors(self, setup):
        graph, rt = setup
        v = max(range(60), key=graph.degree)
        assert collect_neighbors(rt, v) == set(graph.neighbors(v))


class TestBfs:
    def test_tree_structure(self, setup):
        graph, rt = setup
        root = max(range(60), key=graph.degree)
        tree = bfs_tree(rt, root, max_vertices=15)
        assert tree[root] is None
        for child, parent in tree.items():
            if parent is not None:
                assert graph.has_edge(child, parent)

    def test_respects_budget(self, setup):
        graph, rt = setup
        root = max(range(60), key=graph.degree)
        tree = bfs_tree(rt, root, max_vertices=5)
        assert len(tree) <= 5

    def test_disconnected_component_only(self):
        graph = Graph(6, [(0, 1), (1, 2), (3, 4)])
        partition = partition_disjoint(graph, 2, seed=1)
        rt = fresh_rt(partition, 5)
        tree = bfs_tree(rt, 0)
        assert set(tree) == {0, 1, 2}
