"""Unit tests for the core graph type (repro.graphs.graph)."""

import pickle
import sys

import numpy as np
import pytest

from repro.graphs.graph import (
    Graph, canonical_edge, iter_bits, mask_of, or_edges_into_rows,
)

from oracles.graphs import to_networkx


class TestCanonicalEdge:
    def test_orders_endpoints(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            canonical_edge(3, 3)


class TestBitHelpers:
    def test_iter_bits_ascending_across_words(self):
        vertices = [0, 63, 64, 127, 200]
        assert list(iter_bits(mask_of(reversed(vertices)))) == vertices

    def test_iter_bits_of_zero_is_empty(self):
        assert list(iter_bits(0)) == []
        assert mask_of(()) == 0

    def test_or_edges_into_rows_sets_both_directions(self):
        rows = [0] * 70
        us, vs = np.array([0, 65]), np.array([65, 3])
        or_edges_into_rows(rows, us, vs)
        expected = [0] * 70
        expected[0] = 1 << 65
        expected[3] = 1 << 65
        expected[65] = (1 << 0) | (1 << 3)
        assert rows == expected
        or_edges_into_rows(rows, us, vs)  # repeated edges change nothing
        assert rows == expected


class TestConstruction:
    def test_empty(self):
        graph = Graph(5)
        assert graph.n == 5
        assert graph.num_edges == 0

    def test_from_edges(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert graph.num_edges == 2
        assert graph.has_edge(1, 0)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_complete(self):
        graph = Graph.complete(5)
        pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        assert graph == Graph(5, pairs)
        assert graph.num_edges == 10
        assert graph.degrees() == [4] * 5
        assert Graph.complete(0).num_edges == 0
        with pytest.raises(ValueError):
            Graph.complete(-1)

    def test_duplicate_edges_ignored(self):
        graph = Graph(3)
        assert graph.add_edge(0, 1) is True
        assert graph.add_edge(1, 0) is False
        assert graph.num_edges == 1

    def test_out_of_range_vertex_rejected(self):
        graph = Graph(3)
        with pytest.raises(ValueError):
            graph.add_edge(0, 3)
        with pytest.raises(ValueError):
            graph.has_edge(-1, 0)


class TestMutation:
    def test_remove_edge(self):
        graph = Graph(3, [(0, 1)])
        assert graph.remove_edge(1, 0) is True
        assert graph.num_edges == 0
        assert not graph.has_edge(0, 1)

    def test_remove_absent_edge(self):
        graph = Graph(3)
        assert graph.remove_edge(0, 1) is False

    def test_copy_is_independent(self):
        graph = Graph(3, [(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 2)
        assert graph.num_edges == 1
        assert clone.num_edges == 2


class TestQueries:
    def test_degree(self):
        graph = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert graph.degree(0) == 3
        assert graph.degree(1) == 1

    def test_neighbors(self):
        graph = Graph(4, [(0, 1), (0, 2)])
        assert graph.neighbors(0) == frozenset({1, 2})

    def test_average_degree(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert graph.average_degree() == pytest.approx(1.0)

    def test_average_degree_empty_graph(self):
        assert Graph(0).average_degree() == 0.0

    def test_edges_canonical_and_unique(self):
        graph = Graph(4, [(1, 0), (3, 2), (0, 2)])
        edges = list(graph.edges())
        assert len(edges) == 3
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == 3

    def test_neighbor_mask_and_common_neighbors(self):
        graph = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert graph.neighbor_mask(2) == mask_of((0, 1, 3))
        assert graph.common_neighbors(0, 1) == 1 << 2
        assert graph.common_neighbors(1, 3) == 1 << 2
        assert graph.common_neighbors(0, 3) == 1 << 2
        assert graph.common_neighbors(2, 3) == 0
        with pytest.raises(ValueError):
            graph.common_neighbors(0, 4)

    def test_edge_set(self):
        graph = Graph(4, [(1, 0), (3, 2)])
        assert graph.edge_set() == {(0, 1), (2, 3)}

    def test_degrees_vector(self):
        graph = Graph(3, [(0, 1)])
        assert graph.degrees() == [1, 1, 0]

    def test_has_edge_self_loop_false(self):
        graph = Graph(3, [(0, 1)])
        assert not graph.has_edge(1, 1)

    def test_contains_dunder(self):
        graph = Graph(3, [(0, 1)])
        assert (0, 1) in graph
        assert (1, 0) in graph
        assert (0, 2) not in graph


class TestDerivedGraphs:
    EDGES = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]

    def test_induced_mask_rows(self):
        graph = Graph(5, self.EDGES)
        rows = graph.induced_subgraph_mask_rows(mask_of((0, 2, 3)))
        assert rows == [1 << 2, 0, mask_of((0, 3)), 1 << 2, 0]

    def test_induced_mask_rows_of_keys_first_graph(self):
        us, vs = zip(*self.EDGES)
        keys_first = Graph.from_edge_arrays(5, np.array(us), np.array(vs))
        mask = mask_of((1, 2, 3, 4))
        assert keys_first.induced_subgraph_mask_rows(mask) == \
            Graph(5, self.EDGES).induced_subgraph_mask_rows(mask)

    def test_induced_mask_outside_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3).induced_subgraph_mask_rows(1 << 3)


class TestConversionRoundTrip:
    """Rows and edge keys convert exactly at every word boundary."""

    @pytest.mark.parametrize("bit", [0, 1, 63, 64, 127, 128, 191])
    def test_word_boundary_bits(self, bit):
        scalar = Graph(bit + 2, [(bit, bit + 1)])
        assert scalar.neighbor_mask(bit + 1) == 1 << bit
        keys_first = Graph.from_edge_arrays(
            bit + 2, np.array([bit + 1]), np.array([bit])
        )
        assert keys_first.neighbor_mask(bit + 1) == 1 << bit
        assert keys_first == scalar


class TestInterop:
    def test_equality(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])
        assert Graph(3) != Graph(4)

    def test_plain_graph_pickles_with_its_rows(self):
        graph = Graph(70, [(0, 69), (3, 64)])
        thawed = pickle.loads(pickle.dumps(graph))
        assert thawed == graph
        assert thawed.adjacency_rows() == graph.adjacency_rows()

    def test_kernel_names_stub(self):
        """``repro.graphs.kernels`` survives for a benchmark set-up
        import; its one name is the row storage Graph uses."""
        from repro.graphs.kernels import kernel_names

        assert kernel_names() == ("bigint",)

    def test_repr(self):
        assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, m=1)"

    def test_to_networkx(self):
        pytest.importorskip("networkx")
        graph = Graph(4, [(0, 1), (1, 2)])
        nx_graph = to_networkx(graph)
        assert nx_graph.number_of_nodes() == 4
        assert nx_graph.number_of_edges() == 2

    def test_to_networkx_error_names_reference_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)
        with pytest.raises(ImportError, match=r"reference"):
            to_networkx(Graph(3, [(0, 1)]))


def _extracted_keys(graph: Graph) -> list[int]:
    return [u * graph.n + v for u, v in graph.edges()]


class TestEdgeKeys:
    """The memoized key array always equals a fresh extraction."""

    def _built(self) -> Graph:
        return Graph.from_edge_arrays(9, [0, 3, 5, 1, 8], [1, 2, 4, 7, 0])

    def test_from_edge_arrays_stores_keys(self):
        graph = self._built()
        keys = graph.edge_keys()
        assert keys is graph.edge_keys()
        assert keys.tolist() == _extracted_keys(graph)
        assert not keys.flags.writeable

    def test_plain_graph_extracts_once(self):
        graph = Graph(6, [(4, 1), (0, 5), (2, 3)])
        keys = graph.edge_keys()
        assert keys is graph.edge_keys()
        assert keys.tolist() == [0 * 6 + 5, 1 * 6 + 4, 2 * 6 + 3]

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_edge(6, 2),
        lambda g: g.add_edge(0, 1),  # already present: no change
        lambda g: g.add_neighbors(6, (1 << 0) | (1 << 3)),
        lambda g: g.add_neighbors(0, 1 << 1),  # already present
        lambda g: g.remove_edge(2, 3),
        lambda g: g.remove_edge(6, 7),  # absent: no change
        lambda g: g.add_edge_arrays([6, 2, 0], [5, 8, 1]),
        lambda g: g.add_edge_arrays([], []),
    ])
    def test_mutators_keep_keys_fresh(self, mutate):
        graph = self._built()
        graph.edge_keys()
        mutate(graph)
        assert graph.edge_keys().tolist() == _extracted_keys(graph)
        assert graph.edge_keys().size == graph.num_edges

    def test_add_edge_arrays_merges_without_stored_keys(self):
        graph = Graph(8, [(0, 1)])
        assert graph.add_edge_arrays([1, 0, 5], [0, 7, 6]) == 2
        assert graph.num_edges == 3
        assert graph.edge_keys().tolist() == _extracted_keys(graph)
        assert graph == Graph(8, [(0, 1), (0, 7), (5, 6)])

    def test_copy_keeps_keys(self):
        graph = self._built()
        clone = graph.copy()
        clone.add_edge(6, 7)
        assert clone.edge_keys().tolist() == _extracted_keys(clone)
        assert graph.edge_keys().tolist() == _extracted_keys(graph)
