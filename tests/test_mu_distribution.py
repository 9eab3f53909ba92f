"""Tests for the hard distribution µ (repro.lowerbounds.distributions)."""

import math

import pytest

from repro.graphs.triangles import greedy_triangle_packing
from repro.lowerbounds.distributions import (
    MuDistribution,
    estimate_far_probability,
    split_three_players,
)


class TestMuDistribution:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            MuDistribution(part_size=0)
        with pytest.raises(ValueError):
            MuDistribution(part_size=10, gamma=0.0)

    def test_n_is_three_parts(self):
        assert MuDistribution(part_size=20).n == 60

    def test_edge_probability(self):
        mu = MuDistribution(part_size=12, gamma=0.9)
        assert mu.edge_probability == pytest.approx(0.9 / 6.0)

    def test_expected_degree_theta_sqrt_n(self):
        mu = MuDistribution(part_size=48, gamma=1.0)
        # E[deg] = 2 * part * p = 2 * (n/3) * gamma/sqrt(n) = (2/3)gamma*sqrt(n)
        assert mu.expected_average_degree() == pytest.approx(
            2.0 * 48 / math.sqrt(144)
        )

    def test_sample_deterministic(self):
        mu = MuDistribution(part_size=15, gamma=1.0)
        assert (
            mu.sample(seed=5).graph.edge_set()
            == mu.sample(seed=5).graph.edge_set()
        )

    def test_sample_edge_count_near_expectation(self):
        mu = MuDistribution(part_size=50, gamma=1.0)
        sample = mu.sample(seed=1)
        expected = 3 * 50 * 50 * mu.edge_probability
        assert 0.6 * expected <= sample.graph.num_edges <= 1.4 * expected

    def test_expected_triangles_formula(self):
        mu = MuDistribution(part_size=30, gamma=1.0)
        assert mu.expected_triangles() == pytest.approx(
            30 ** 3 * mu.edge_probability ** 3
        )


class TestThreePlayerSplit:
    def test_views_cover_cross_parts(self):
        mu = MuDistribution(part_size=20, gamma=1.2)
        sample = mu.sample(seed=2)
        parts = sample.parts
        u_set, v1_set, v2_set = (
            set(parts.u_part), set(parts.v1_part), set(parts.v2_part)
        )
        for u, v in sample.alice_edges:
            assert {u, v} & u_set and {u, v} & v1_set
        for u, v in sample.bob_edges:
            assert {u, v} & u_set and {u, v} & v2_set
        for u, v in sample.charlie_edges:
            assert {u, v} & v1_set and {u, v} & v2_set

    def test_split_is_disjoint_partition(self):
        mu = MuDistribution(part_size=20, gamma=1.2)
        sample = mu.sample(seed=3)
        total = sum(len(view) for view in sample.partition.views)
        assert total == sample.graph.num_edges

    def test_non_tripartite_graph_rejected(self):
        from repro.graphs.generators import mu_parts
        from repro.graphs.graph import Graph

        parts = mu_parts(3)
        graph = Graph(9, [(0, 1)])  # inside U: not cross-part
        with pytest.raises(ValueError):
            split_three_players(graph, parts)

    @pytest.mark.parametrize("part_size,gamma", [
        (1, 1.0), (3, 2.0), (20, 1.2), (144, 0.5), (50, 4.0),
    ])
    def test_split_matches_set_reference(self, part_size, gamma):
        from oracles.lowerbounds import split_three_players_reference

        for seed in range(4):
            sample = MuDistribution(part_size, gamma).sample(seed=seed)
            reference = split_three_players_reference(
                sample.graph, sample.parts
            )
            for keys, expected in zip(sample.partition.view_keys,
                                      reference.view_keys):
                assert keys.tolist() == expected.tolist()

    @pytest.mark.parametrize("edge", [(0, 1), (3, 5), (6, 8), (2, 9)])
    def test_rejects_like_set_reference(self, edge):
        from oracles.lowerbounds import split_three_players_reference
        from repro.graphs.generators import mu_parts
        from repro.graphs.graph import Graph

        # Edges inside U, V1 and V2, and one leaving the parts (n = 10).
        graph = Graph(10, [(0, 3), (3, 6), edge])
        for split in (split_three_players, split_three_players_reference):
            with pytest.raises(ValueError, match="not cross-part"):
                split(graph, mu_parts(3))

    def test_every_triangle_uses_all_three_views(self):
        mu = MuDistribution(part_size=25, gamma=1.5)
        sample = mu.sample(seed=4)
        from repro.graphs.triangles import iter_triangles

        for triangle in iter_triangles(sample.graph):
            a, b, c = triangle
            edges = {(a, b), (a, c), (b, c)}
            assert edges & sample.alice_edges
            assert edges & sample.bob_edges
            assert edges & sample.charlie_edges


class TestLemma45:
    def test_far_probability_at_least_half(self):
        # Lemma 4.5's claim at reproduction scale: with moderate gamma the
        # sample is far (certified by the packing) at least half the time.
        mu = MuDistribution(part_size=40, gamma=1.2)
        probability = estimate_far_probability(mu, trials=12, seed=0)
        assert probability >= 0.5

    def test_packing_scales_with_n_three_halves(self):
        small = MuDistribution(part_size=24, gamma=1.2)
        large = MuDistribution(part_size=96, gamma=1.2)
        small_packing = len(
            greedy_triangle_packing(small.sample(seed=1).graph)
        )
        large_packing = len(
            greedy_triangle_packing(large.sample(seed=1).graph)
        )
        # n x4 -> n^{3/2} x8; allow slack for small-size effects.
        assert large_packing >= 4 * max(1, small_packing)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            estimate_far_probability(
                MuDistribution(part_size=5), trials=0
            )
