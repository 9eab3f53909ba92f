"""Unit tests for degree bucketing & Section 3.2 analysis (repro.graphs.buckets)."""

import math
import sys

import pytest

from repro.graphs.buckets import (
    bucket_bounds,
    bucket_index,
    bucket_vee_count,
    buckets,
    degree_thresholds,
    degrees_from_view,
    disjoint_vee_count,
    full_buckets,
    full_vertices,
    full_vertices_in_bucket,
    is_full_bucket,
    is_full_vertex,
    log2n,
    min_full_bucket,
    neighborhood,
    num_buckets,
    player_suspected_bucket,
    r_neighborhood_indices,
)
from repro.graphs.generators import planted_disjoint_triangles, skewed_hub_graph
from repro.graphs.graph import Graph


class TestBucketIndex:
    def test_isolated_in_bucket_zero(self):
        assert bucket_index(0) == 0

    def test_degree_one(self):
        assert bucket_index(1) == 1

    def test_boundaries(self):
        # B_i = [3^(i-1), 3^i)
        assert bucket_index(2) == 1
        assert bucket_index(3) == 2
        assert bucket_index(8) == 2
        assert bucket_index(9) == 3
        assert bucket_index(26) == 3
        assert bucket_index(27) == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bucket_index(-1)

    def test_consistent_with_bounds(self):
        # include exact powers of 3 where float log is treacherous
        for degree in range(1, 800):
            index = bucket_index(degree)
            low, high = bucket_bounds(index)
            assert low <= degree < high


class TestBucketBounds:
    def test_bucket_zero(self):
        assert bucket_bounds(0) == (0, 0)

    def test_bucket_one(self):
        assert bucket_bounds(1) == (1, 3)

    def test_bucket_three(self):
        assert bucket_bounds(3) == (9, 27)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bucket_bounds(-1)


class TestBucketsPartition:
    def test_every_vertex_assigned(self):
        graph = Graph(6, [(0, 1), (1, 2), (1, 3), (1, 4)])
        partition = buckets(graph)
        total = sum(len(members) for members in partition.values())
        assert total == 6

    def test_correct_buckets(self):
        graph = Graph(6, [(0, 1), (1, 2), (1, 3), (1, 4)])
        partition = buckets(graph)
        assert 5 in partition[0]  # isolated
        assert 0 in partition[1]  # degree 1
        assert 1 in partition[2]  # degree 4 -> [3,9)

    def test_num_buckets_bounds(self):
        assert num_buckets(1) == 1
        # For n=100, max degree 99 -> bucket index 5 (81..243) -> 6 buckets.
        assert num_buckets(100) == bucket_index(99) + 1


class TestVeeCounts:
    def test_triangle_source_has_one_vee(self):
        graph = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert disjoint_vee_count(graph, 0) == 1

    def test_no_vee_without_closing_edge(self):
        graph = Graph(3, [(0, 1), (0, 2)])
        assert disjoint_vee_count(graph, 0) == 0

    def test_hub_with_disjoint_vees(self):
        graph = skewed_hub_graph(50, num_hubs=1, vees_per_hub=5, seed=1)
        hub = max(range(50), key=graph.degree)
        assert disjoint_vee_count(graph, hub) == 5

    def test_greedy_lower_bounds_exact(self):
        graph = skewed_hub_graph(80, num_hubs=1, vees_per_hub=8, seed=2)
        hub = max(range(80), key=graph.degree)
        greedy = disjoint_vee_count(graph, hub, exact=False)
        exact = disjoint_vee_count(graph, hub, exact=True)
        assert greedy <= exact
        assert greedy >= exact / 2  # maximal matching is a 2-approx

    def test_degree_one_vertex(self):
        graph = Graph(3, [(0, 1)])
        assert disjoint_vee_count(graph, 0) == 0

    def test_exact_count_names_reference_extra_without_networkx(
        self, monkeypatch
    ):
        """The exact default is the one production path into networkx:
        without it, the error names the extra instead of a bare
        ModuleNotFoundError."""
        graph = skewed_hub_graph(50, num_hubs=1, vees_per_hub=5, seed=1)
        hub = max(range(50), key=graph.degree)
        monkeypatch.setitem(sys.modules, "networkx", None)
        with pytest.raises(ImportError, match=r"\[reference\]"):
            disjoint_vee_count(graph, hub)
        assert disjoint_vee_count(graph, hub, exact=False) >= 1


class TestFullVertices:
    def test_triangle_vertices_full(self):
        graph = Graph(3, [(0, 1), (0, 2), (1, 2)])
        for v in range(3):
            assert is_full_vertex(graph, v, epsilon=0.5)

    def test_isolated_not_full(self):
        graph = Graph(4, [(0, 1), (0, 2), (1, 2)])
        assert not is_full_vertex(graph, 3, epsilon=0.5)

    def test_high_degree_without_vees_not_full(self):
        # Star graph: centre has high degree, no triangles at all.
        edges = [(0, i) for i in range(1, 30)]
        graph = Graph(30, edges)
        assert not is_full_vertex(graph, 0, epsilon=0.5)

    def test_full_vertices_list(self):
        graph = Graph(4, [(0, 1), (0, 2), (1, 2)])
        assert set(full_vertices(graph, epsilon=0.5)) == {0, 1, 2}

    def test_full_vertices_in_bucket(self):
        graph = Graph(4, [(0, 1), (0, 2), (1, 2)])
        # All triangle vertices have degree 2 -> bucket 1 ([1,3)).
        assert set(full_vertices_in_bucket(graph, 1, 0.5)) == {0, 1, 2}


class TestFullBuckets:
    def test_planted_instance_has_full_bucket(self):
        instance = planted_disjoint_triangles(60, 15, seed=3)
        epsilon = instance.epsilon_certified
        assert full_buckets(instance.graph, epsilon), (
            "Observation 3.3: an epsilon-far instance must have a full "
            "bucket"
        )

    def test_min_full_bucket_is_lowest(self):
        instance = planted_disjoint_triangles(60, 15, seed=3)
        epsilon = instance.epsilon_certified
        minimum = min_full_bucket(instance.graph, epsilon)
        assert minimum == min(full_buckets(instance.graph, epsilon))

    def test_triangle_free_has_no_full_bucket(self):
        graph = Graph(10, [(i, i + 1) for i in range(9)])
        assert min_full_bucket(graph, 0.1) is None

    def test_bucket_vee_count_sums_sources(self):
        graph = skewed_hub_graph(100, num_hubs=2, vees_per_hub=6, seed=4)
        hub_bucket = bucket_index(12)
        assert bucket_vee_count(graph, hub_bucket) == 12

    def test_is_full_bucket_threshold(self):
        instance = planted_disjoint_triangles(30, 10, seed=5)
        graph = instance.graph
        # Triangle vertices are in bucket 1; with epsilon ~ 1/3 the vee
        # count (10) must exceed eps*n*d/(2 log n).
        threshold = (
            instance.epsilon_certified * 30 * graph.average_degree()
            / (2 * log2n(30))
        )
        assert (bucket_vee_count(graph, 1) >= threshold) == is_full_bucket(
            graph, 1, instance.epsilon_certified
        )


class TestNeighborhoods:
    def test_neighborhood_clips_at_zero(self):
        assert neighborhood(0) == (0, 1)
        assert neighborhood(3) == (2, 3, 4)

    def test_r_neighborhood_r1(self):
        indices = r_neighborhood_indices(2, 1, n=100)
        assert indices[0] == 2

    def test_r_neighborhood_reaches_down_log3r(self):
        indices = r_neighborhood_indices(5, 9, n=10_000)
        assert indices[0] == 3  # 5 - log3(9) = 3

    def test_r_neighborhood_extends_to_top(self):
        indices = r_neighborhood_indices(1, 3, n=100)
        assert indices[-1] == num_buckets(100) - 1

    def test_invalid_r_rejected(self):
        with pytest.raises(ValueError):
            r_neighborhood_indices(1, 0, n=10)


class TestPlayerSuspectedBucket:
    def test_pigeonhole_membership(self):
        # A vertex with global degree in B_i must appear in some player's
        # suspected set when its local degree is >= 3^(i-1) / k.
        view_degrees = {7: 4}
        assert 7 in player_suspected_bucket(view_degrees, 2, k=3)

    def test_excludes_too_high(self):
        # Upper bound is 3^i: no player can hold more than deg(v) edges.
        view_degrees = {7: 100}
        assert 7 not in player_suspected_bucket(view_degrees, 2, k=3)

    def test_excludes_too_low(self):
        view_degrees = {7: 0}
        assert 7 not in player_suspected_bucket(view_degrees, 2, k=3)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            player_suspected_bucket({}, 1, k=0)

    def test_superset_of_true_bucket(self):
        # Simulate: true degree 10 (bucket 3), k=2 players each with >= 5.
        for local in (5, 7, 10):
            assert 0 in player_suspected_bucket({0: local}, 3, k=2)


class TestDegreeThresholds:
    def test_values(self):
        thresholds = degree_thresholds(1000, 10.0, 0.1)
        assert thresholds.d_low == pytest.approx(
            0.1 * 10 / (2 * math.log2(1000))
        )
        assert thresholds.d_high == pytest.approx(math.sqrt(1000 * 10 / 0.1))

    def test_low_below_high(self):
        thresholds = degree_thresholds(1000, 10.0, 0.1)
        assert thresholds.d_low < thresholds.d_high

    def test_bucket_range_covers_thresholds(self):
        thresholds = degree_thresholds(1000, 10.0, 0.1)
        bucket_range = thresholds.bucket_range(1000)
        low, _ = bucket_bounds(bucket_range.start)
        assert low <= max(1, thresholds.d_low) * 3

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            degree_thresholds(100, 0.0, 0.1)
        with pytest.raises(ValueError):
            degree_thresholds(100, 5.0, 0.0)


class TestDegreesFromView:
    def test_counts(self):
        degrees = degrees_from_view([(0, 1), (0, 2), (1, 2)])
        assert degrees == {0: 2, 1: 2, 2: 2}

    def test_empty(self):
        assert degrees_from_view([]) == {}
