"""The array generation plane is draw-for-draw the scalar one.

The contract (module docstring of :mod:`repro.graphs.generators`):
``gnp``/``gnd``, ``tripartite_mu``, ``bipartite_triangle_free`` and
``powerlaw_host`` read their seeded stream in bulk and replay the
per-edge sampling loops as array expressions, so the sampled edge set
is the one those loops draw.  These tests pin that contract against the
loops (``oracles.instances``) with hypothesis over seeds and
word-boundary vertex counts, and pin the bulk planting / K_n fill
rewrites against their per-edge twins.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, powerlaw_host
from repro.graphs import generators as gen
from repro.graphs.generators import (
    bipartite_triangle_free,
    gnd,
    gnp,
    planted_disjoint_triangles,
    tripartite_mu,
)

from oracles.instances import (
    bipartite_triangle_free_reference,
    gnd_reference,
    gnp_reference,
    planted_disjoint_triangles_reference,
    powerlaw_host_reference,
    triangle_free_degree_spread_reference,
    tripartite_mu_reference,
)

SEEDS = st.integers(min_value=0, max_value=2**16)
# Word-boundary counts: the numpy edge-array unranking and the
# exchange masks both get exercised at n ∈ {63, 64, 65, 127, 129}.
BOUNDARY_N = st.sampled_from([5, 31, 63, 64, 65, 127, 129, 200])


def assert_identical(scalar: Graph, vectorized: Graph) -> None:
    assert scalar == vectorized
    assert scalar.num_edges == vectorized.num_edges
    assert list(scalar.edges()) == list(vectorized.edges())


class TestGnpIdentity:
    @given(BOUNDARY_N, st.sampled_from([0.01, 0.1, 0.35, 0.8]), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_scalar_equals_vectorized(self, n, p, seed):
        assert_identical(gnp_reference(n, p, seed=seed), gnp(n, p, seed=seed))

    @pytest.mark.parametrize("n", [40, 250])
    def test_few_and_many_draws_match_reference(self, n):
        # About 78 and 3112 expected edges: a one-chunk draw and one
        # that needs the chunk's slack.
        assert_identical(gnp_reference(n, 0.1, seed=7), gnp(n, 0.1, seed=7))

    def test_gnd_matches_reference(self):
        assert_identical(gnd_reference(150, 6.0, seed=3), gnd(150, 6.0, seed=3))

    def test_p_one_is_complete(self):
        graph = gnp(65, 1.0, seed=9)
        assert graph.num_edges == 65 * 64 // 2
        assert graph == Graph.complete(65)

    def test_degenerate_sizes(self):
        assert gnp(0, 0.5).num_edges == 0
        assert gnp(1, 0.5).num_edges == 0
        assert gnp(10, 0.0).num_edges == 0


class TestTripartiteMuIdentity:
    @given(st.sampled_from([4, 21, 22, 40]),
           st.sampled_from([0.5, 1.5, 4.0]), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_scalar_equals_vectorized(self, part_size, gamma, seed):
        scalar, parts_s = tripartite_mu_reference(part_size, gamma, seed=seed)
        vector, parts_v = tripartite_mu(part_size, gamma, seed=seed)
        assert parts_s == parts_v
        assert_identical(scalar, vector)

    def test_chunked_draws_match_unchunked(self, monkeypatch):
        # Shrink the draw chunk so one part-pair spans many chunks; the
        # uniform stream (and hence the graph) must not notice.
        reference, _ = tripartite_mu(30, 2.0, seed=11)
        monkeypatch.setattr(gen, "_DRAW_CHUNK", 64)
        chunked, _ = tripartite_mu(30, 2.0, seed=11)
        assert_identical(reference, chunked)


class TestBipartiteTriangleFreeIdentity:
    @given(st.sampled_from([5, 63, 64, 65, 129]),
           st.sampled_from([0.5, 3.0, 200.0]), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_scalar_equals_vectorized(self, n, d, seed):
        assert_identical(bipartite_triangle_free_reference(n, d, seed=seed),
                         bipartite_triangle_free(n, d, seed=seed))

    def test_degenerate_sizes(self):
        assert bipartite_triangle_free(0, 2.0).num_edges == 0
        assert bipartite_triangle_free(1, 2.0).num_edges == 0


class TestPowerlawHostIdentity:
    @given(BOUNDARY_N, st.sampled_from([2.0, 6.0]),
           st.sampled_from([2.1, 2.5, 2.9]), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_scalar_equals_vectorized(self, n, d, exponent, seed):
        assert_identical(
            powerlaw_host_reference(n, d, exponent=exponent, seed=seed),
            powerlaw_host(n, d, exponent=exponent, seed=seed),
        )

    def test_hub_zero_is_heaviest(self):
        graph = powerlaw_host(500, 4.0, exponent=2.2, seed=1)
        degrees = graph.degrees()
        assert degrees[0] == max(degrees)
        assert degrees[0] > 3 * (sum(degrees) / len(degrees))

    def test_validation(self):
        with pytest.raises(ValueError, match="exponent"):
            powerlaw_host(10, 2.0, exponent=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            powerlaw_host(-1, 2.0)
        assert powerlaw_host(0, 2.0).n == 0
        assert powerlaw_host(50, 0.0).num_edges == 0


class TestBulkPlantingIdentity:
    def test_bulk_and_scalar_plants_agree(self):
        self.test_plants_agree_at_edge_cases(120, 2.0)

    @pytest.mark.parametrize("num_triangles,background", [
        (0, 2.0), (1, 0.0), (133, 0.0), (50, 9.0),
    ])
    def test_plants_agree_at_edge_cases(self, num_triangles, background):
        scalar = planted_disjoint_triangles_reference(
            400, num_triangles, seed=13, background_degree=background
        )
        bulk = planted_disjoint_triangles(
            400, num_triangles, seed=13, background_degree=background
        )
        assert scalar.planted_triangles == bulk.planted_triangles
        assert scalar.epsilon_certified == bulk.epsilon_certified
        assert_identical(scalar.graph, bulk.graph)

    @pytest.mark.parametrize("seed", [0, 7, 21])
    @pytest.mark.parametrize("n,d,epsilon", [
        (600, 6.0, 0.2), (400, 20.0, 0.2), (90, 3.0, 0.05),
    ])
    def test_far_instance_matches_per_edge_plant(self, monkeypatch, seed,
                                                 n, d, epsilon):
        bulk = gen.far_instance(n, d, epsilon, seed=seed)
        monkeypatch.setattr(gen, "planted_disjoint_triangles",
                            planted_disjoint_triangles_reference)
        scalar = gen.far_instance(n, d, epsilon, seed=seed)
        assert scalar.planted_triangles == bulk.planted_triangles
        assert scalar.epsilon_certified == bulk.epsilon_certified
        assert_identical(scalar.graph, bulk.graph)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("n,d,max_degree", [
        (2, 1.0, 3), (6, 2.0, 1), (300, 4.0, 40), (1000, 6.0, 200),
        (4096, 8.0, 600), (40000, 1.0, 9),
    ])
    def test_degree_spread_matches_per_edge_build(self, seed, n, d,
                                                   max_degree):
        bulk = gen.triangle_free_degree_spread(n, d, max_degree, seed=seed)
        scalar = triangle_free_degree_spread_reference(
            n, d, max_degree, seed=seed
        )
        assert_identical(scalar, bulk)

    def test_pattern_plant_bulk_agrees(self):
        """Planting in one edge-array call equals adding every planted
        edge one at a time to the same background."""
        from repro.patterns.catalog import FOUR_CLIQUE
        from repro.patterns.plant import planted_disjoint_subgraphs

        bulk = planted_disjoint_subgraphs(
            200, FOUR_CLIQUE, 30, seed=5, background_degree=1.5
        )
        scalar = gen.gnd(200, 1.5, seed=6)
        for image in bulk.planted_copies:
            for u, v in FOUR_CLIQUE.edges:
                scalar.add_edge(image[u], image[v])
        assert_identical(scalar, bulk.graph)

    @pytest.mark.parametrize("name", [
        "TRIANGLE", "FOUR_CLIQUE", "FOUR_CYCLE", "FIVE_CYCLE",
    ])
    def test_small_plant_leaves_keys_first_host_unbuilt(self, name):
        """A few copies on a large keys-first host merge edge keys only:
        planting never builds the host's kernel, and the planted graph
        equals the per-edge construction."""
        from repro.patterns import catalog
        from repro.patterns.plant import planted_disjoint_subgraphs

        pattern = getattr(catalog, name)
        bulk = planted_disjoint_subgraphs(
            5000, pattern, 12, seed=4, background_degree=1.5
        )
        assert bulk.graph._built is None
        scalar = gen.gnd(5000, 1.5, seed=5)
        for image in bulk.planted_copies:
            for u, v in pattern.edges:
                scalar.add_edge(image[u], image[v])
        assert_identical(scalar, bulk.graph)

    def test_mixed_plant_leaves_keys_first_host_unbuilt(self):
        from repro.patterns.catalog import FIVE_CYCLE, TRIANGLE
        from repro.patterns.plant import planted_mixed_patterns

        mixed = planted_mixed_patterns(
            5000, [(TRIANGLE, 10), (FIVE_CYCLE, 6)], seed=2,
            background_degree=1.5,
        )
        assert mixed.graph._built is None
        scalar = gen.gnd(5000, 1.5, seed=3)
        for pattern, images in mixed.placements:
            for image in images:
                for u, v in pattern.edges:
                    scalar.add_edge(image[u], image[v])
        assert_identical(scalar, mixed.graph)

    def test_zero_copies_plant_nothing(self):
        from repro.patterns.catalog import FOUR_CYCLE
        from repro.patterns.plant import planted_disjoint_subgraphs

        empty = planted_disjoint_subgraphs(
            300, FOUR_CYCLE, 0, seed=1, background_degree=2.0
        )
        assert empty.planted_copies == ()
        assert_identical(gen.gnd(300, 2.0, seed=2), empty.graph)


class TestDegreeSpreadSampleReplay:
    """The degree-spread sampler replays ``rng.sample`` from bulk words.

    The reference calls ``rng.sample`` per vertex.  The cases cover the
    pool method (n = 2048: 1024 right-side vertices, buckets 243 and
    286), set-method buckets where nearly every sample redraws a repeat
    (n = 16384: 8192 right-side vertices, bucket 809), and tiny hosts,
    each at average degrees 1, 8 and 30.  A CPython change to
    ``sample`` fails here.
    """

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n,max_degree", [
        (4, 3), (5, 3), (7, 3), (2048, 286), (2048, 600), (16384, 809),
    ])
    @pytest.mark.parametrize("d", [1.0, 8.0, 30.0])
    def test_matches_rng_sample(self, seed, n, max_degree, d):
        reference = triangle_free_degree_spread_reference(
            n, d, max_degree, seed=seed
        )
        bulk = gen.triangle_free_degree_spread(n, d, max_degree, seed=seed)
        assert bulk.n == reference.n
        assert np.array_equal(bulk.edge_keys(), reference.edge_keys())

    def test_cases_reach_both_sample_methods(self):
        assert gen._sample_setsize(243) >= 1024
        assert gen._sample_setsize(81) < 1024
        assert gen._sample_setsize(809) < 8192

    # 22 and 85 sit on either side of the set-method switch for k = 6
    # (set size 21 + 4**3), 1045 for k = 243.
    @pytest.mark.parametrize("population", [
        1, 2, 3, 6, 22, 85, 86, 100, 1024, 1025, 1045, 1046, 8192, 70001,
    ])
    def test_helper_equals_sample_calls(self, population):
        sizes = random.Random(population)
        for seed in range(10):
            ks = sorted(
                (min(population, cap) if sizes.random() < 0.2
                 else sizes.randint(1, min(population, cap))
                 for cap in sizes.choices([1, 3, 5, 6, 30, 243, 300, 1200],
                                          k=30)),
                reverse=True,
            )
            runs = [(k, ks.count(k)) for k in sorted(set(ks), reverse=True)]
            rng = random.Random(seed)
            expected = [
                value for k, count in runs for _ in range(count)
                for value in rng.sample(range(population), k)
            ]
            replayed = gen._replayed_samples(random.Random(seed),
                                             population, runs)
            assert replayed.tolist() == expected

    def test_increasing_sizes_rejected(self):
        # 1 is drawn by the set method from 1024, 600 by the pool method.
        with pytest.raises(ValueError):
            gen._replayed_samples(random.Random(0), 1024, [(1, 1), (600, 1)])
