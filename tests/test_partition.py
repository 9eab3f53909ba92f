"""Unit tests for edge partitioning (repro.graphs.partition)."""

import pickle
import re

import pytest

from repro.comm.players import make_players
from repro.graphs.generators import gnd
from repro.graphs.graph import Graph
from repro.graphs.partition import (
    EdgePartition,
    partition_adversarial_skew,
    partition_all_to_all,
    partition_by_vertex,
    partition_disjoint,
    partition_with_duplication,
)
from repro.runtime.cache import InstanceCache

from oracles.instances import (
    partition_by_vertex_reference,
    partition_disjoint_reference,
)


@pytest.fixture
def graph() -> Graph:
    return gnd(100, 6.0, seed=1)


ALL_PARTITIONERS = [
    lambda g, k: partition_disjoint(g, k, seed=3),
    lambda g, k: partition_with_duplication(g, k, seed=3),
    lambda g, k: partition_all_to_all(g, k),
    lambda g, k: partition_adversarial_skew(g, k, seed=3),
    lambda g, k: partition_by_vertex(g, k, seed=3),
]


class TestCoverageInvariant:
    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS)
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_union_equals_graph(self, graph, partitioner, k):
        partition = partitioner(graph, k)
        union = set()
        for view in partition.views:
            union.update(view)
        assert union == graph.edge_set()

    def test_invalid_partition_rejected(self, graph):
        views = (frozenset(list(graph.edges())[:-1]),)  # drop one edge
        with pytest.raises(ValueError):
            EdgePartition(graph, views)

    def test_spurious_edge_rejected(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            EdgePartition(graph, (frozenset({(0, 1), (1, 2)}),))


class TestDisjoint:
    def test_views_disjoint(self, graph):
        partition = partition_disjoint(graph, 4, seed=2)
        total = sum(len(view) for view in partition.views)
        assert total == graph.num_edges
        assert not partition.has_duplication

    def test_multiplicity_one(self, graph):
        partition = partition_disjoint(graph, 4, seed=2)
        for edge in graph.edges():
            assert partition.multiplicity(edge) == 1

    def test_deterministic(self, graph):
        a = partition_disjoint(graph, 3, seed=5)
        b = partition_disjoint(graph, 3, seed=5)
        assert a.views == b.views

    def test_zero_players_rejected(self, graph):
        with pytest.raises(ValueError):
            partition_disjoint(graph, 0)


class TestDuplication:
    def test_has_duplication_typically(self, graph):
        partition = partition_with_duplication(
            graph, 4, seed=2, duplication_probability=0.5
        )
        assert partition.has_duplication

    def test_multiplicity_at_least_one(self, graph):
        partition = partition_with_duplication(graph, 4, seed=2)
        for edge in graph.edges():
            assert partition.multiplicity(edge) >= 1

    def test_zero_probability_is_disjoint(self, graph):
        partition = partition_with_duplication(
            graph, 4, seed=2, duplication_probability=0.0
        )
        assert not partition.has_duplication

    def test_invalid_probability_rejected(self, graph):
        with pytest.raises(ValueError):
            partition_with_duplication(
                graph, 3, duplication_probability=1.5
            )


class TestAllToAll:
    def test_every_player_sees_everything(self, graph):
        partition = partition_all_to_all(graph, 3)
        for view in partition.views:
            assert view == frozenset(graph.edges())

    def test_multiplicity_k(self, graph):
        partition = partition_all_to_all(graph, 5)
        edge = next(iter(graph.edges()))
        assert partition.multiplicity(edge) == 5


class TestSkew:
    def test_player_zero_heavy(self, graph):
        partition = partition_adversarial_skew(
            graph, 5, seed=2, heavy_fraction=0.9
        )
        share = len(partition.views[0]) / graph.num_edges
        assert share > 0.75

    def test_single_player_gets_all(self, graph):
        partition = partition_adversarial_skew(graph, 1, seed=2)
        assert partition.views[0] == frozenset(graph.edges())

    def test_invalid_fraction_rejected(self, graph):
        with pytest.raises(ValueError):
            partition_adversarial_skew(graph, 3, heavy_fraction=0.0)


class TestByVertex:
    def test_edge_follows_lower_endpoint(self, graph):
        partition = partition_by_vertex(graph, 4, seed=7)
        # Rebuild the vertex-owner map implied by the views and check
        # consistency: all edges with the same lower endpoint co-locate.
        owner_of: dict[int, int] = {}
        for player, view in enumerate(partition.views):
            for u, _v in view:
                if u in owner_of:
                    assert owner_of[u] == player
                owner_of[u] = player

    def test_k_property(self, graph):
        partition = partition_by_vertex(graph, 4, seed=7)
        assert partition.k == 4


class TestReplayedOwners:
    """The bulk ``randrange`` replay is draw-for-draw the scalar loop."""

    # k > 256 and k > 65536 sort the owners as uint16 and uint32.
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 13, 64, 300, 70_000])
    @pytest.mark.parametrize("seed", [0, 1, 17, 2**31 + 5])
    def test_disjoint_views_match_scalar_loop(self, graph, k, seed):
        partition = partition_disjoint(graph, k, seed=seed)
        assert partition.views == partition_disjoint_reference(
            graph, k, seed=seed
        )

    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_empty_graph(self, k):
        graph = Graph(40)
        partition = partition_disjoint(graph, k, seed=9)
        assert partition.views == partition_disjoint_reference(graph, k, 9)
        assert partition.views == (frozenset(),) * k
        assert Graph(0) == partition_disjoint(Graph(0), k).graph

    def test_large_graph(self):
        graph = gnd((1 << 17) + 3, 1.5, seed=4)
        assert graph.num_edges > 50_000
        for k in (3, 8):
            partition = partition_disjoint(graph, k, seed=11)
            assert partition.views == partition_disjoint_reference(
                graph, k, seed=11
            )

    def test_many_draws_span_several_bulk_reads(self):
        # k = 5 rejects 3/8 of the words, so long edge lists exercise
        # the refill branch as well as the first read.
        graph = gnd(3000, 40.0, seed=2)
        partition = partition_disjoint(graph, 5, seed=6)
        assert partition.views == partition_disjoint_reference(graph, 5, 6)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 13, 300])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_by_vertex_views_match_scalar_loop(self, graph, k, seed):
        partition = partition_by_vertex(graph, k, seed=seed)
        assert partition.views == partition_by_vertex_reference(
            graph, k, seed=seed
        )

    def test_player_count_limited_to_one_word(self, graph):
        with pytest.raises(ValueError, match="k=4294967296"):
            partition_disjoint(graph, 2**32)


def _covering_error(missing: int, spurious: int) -> str:
    return re.escape(
        "partition does not cover the graph exactly: "
        f"{missing} missing, {spurious} spurious edges"
    )


class TestCoveringCheck:
    """One sort-and-compare, same report at every vertex count."""

    @pytest.fixture(params=[5, (1 << 17) - 1, (1 << 17) + 1])
    def n(self, request) -> int:
        return request.param

    def test_exact_cover_in_either_orientation(self, n):
        graph = Graph(n, [(0, 1), (1, 2), (2, 4)])
        partition = EdgePartition(
            graph, (frozenset({(1, 0), (2, 1)}), frozenset({(4, 2), (1, 2)}))
        )
        assert partition.views[0] == frozenset({(1, 0), (2, 1)})
        assert partition.has_duplication

    def test_missing(self, n):
        graph = Graph(n, [(0, 1), (1, 2), (2, 4)])
        with pytest.raises(ValueError, match=_covering_error(2, 0)):
            EdgePartition(graph, (frozenset({(1, 0)}), frozenset()))

    def test_spurious_in_either_orientation(self, n):
        graph = Graph(n, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=_covering_error(0, 1)):
            EdgePartition(graph, (frozenset({(0, 1), (1, 2), (2, 0)}),))
        with pytest.raises(ValueError, match=_covering_error(1, 2)):
            EdgePartition(graph, (frozenset({(1, 0), (3, 0)}),
                                  frozenset({(0, 3), (1, 3)})))

    def test_out_of_universe_counts_as_spurious(self, n):
        graph = Graph(n, [(0, 1), (1, 2)])
        views = (
            frozenset({(0, 1), (0, n), (n, 0)}),
            frozenset({(1, 2), (-1, 0), (2, n + 7)}),
        )
        with pytest.raises(ValueError, match=_covering_error(0, 3)):
            EdgePartition(graph, views)

    def test_self_loop_rejected(self, n):
        graph = Graph(n, [(0, 1)])
        with pytest.raises(ValueError, match="self-loop"):
            EdgePartition(graph, (frozenset({(0, 1), (2, 2)}),))


class TestPartitionPickling:
    """Spawn pools pickle a task together with its cache, so a cached
    partition must come back from a pickle round trip whole."""

    def test_pickled_cache_keeps_rows_and_views(self):
        graph = gnd(120, 5.0, seed=2)
        built = partition_disjoint(graph, 3, seed=4)
        rows = [
            list(player.adjacency_rows()) for player in make_players(built)
        ]
        writer = InstanceCache()
        assert writer.get_or_build("p", lambda: built) is built
        reader = pickle.loads(pickle.dumps(writer))
        loaded = reader.get_or_build(
            "p", lambda: pytest.fail("pickled cache missed")
        )
        assert reader.stats()["hits"] == 1
        assert loaded is not built
        assert loaded.graph == graph
        assert loaded.views == built.views
        assert [
            player.adjacency_rows() for player in make_players(loaded)
        ] == rows
        assert [p.num_edges for p in make_players(loaded)] == [
            len(view) for view in built.views
        ]

    def test_given_views_survive_as_given(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        views = (frozenset({(1, 0)}), frozenset({(3, 2)}))
        cache = InstanceCache()
        cache.get_or_build("q", lambda: EdgePartition(graph, views))
        loaded = pickle.loads(pickle.dumps(cache)).get_or_build(
            "q", lambda: pytest.fail("pickled cache missed")
        )
        assert loaded.views == views
        assert make_players(loaded)[1].adjacency_rows() == [
            0, 0, 1 << 3, 1 << 2
        ]
