"""The vectorized generation plane is draw-for-draw the scalar one.

The contract (module docstring of :mod:`repro.graphs.generators`): the
``vectorized`` knob on ``gnp``/``gnd``, ``tripartite_mu`` and
``powerlaw_host`` only trades implementations, never outputs — the
sampled edge set is a function of the seed alone, identical across
{scalar, vectorized} × {bigint, csr}.  These tests pin that
contract with hypothesis over seeds and word-boundary vertex counts,
cover both sides of the ``_VECTOR_MIN_EXPECTED`` auto-dispatch
threshold, and pin the bulk planting / K_n fill rewrites against their
scalar twins (the per-edge builders in ``oracles.instances``).
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
    _VECTOR_MIN_EXPECTED,
    gnd,
    gnp,
    planted_disjoint_triangles,
    tripartite_mu,
)
from repro.graphs.kernels import get_kernel

from oracles.instances import (
    planted_disjoint_triangles_reference,
    triangle_free_degree_spread_reference,
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
        assert_identical(
            gnp(n, p, seed=seed, vectorized=False),
            gnp(n, p, seed=seed, vectorized=True),
        )

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_identical_across_backends(self, seed):
        reference = gnp(129, 0.2, seed=seed, vectorized=False,
                        backend="bigint")
        for backend in ("bigint", "csr"):
            assert gnp(129, 0.2, seed=seed, vectorized=True,
                       backend=backend) == reference

    def test_auto_dispatch_crosses_threshold_transparently(self):
        # Below the threshold auto takes the scalar loop; force the
        # vectorized path and demand the same graph.
        n_small = 40  # expected ≈ 78 < _VECTOR_MIN_EXPECTED
        assert 0.1 * n_small * (n_small - 1) / 2 < _VECTOR_MIN_EXPECTED
        assert_identical(
            gnp(n_small, 0.1, seed=7),
            gnp(n_small, 0.1, seed=7, vectorized=True),
        )
        # Above the threshold auto takes the vectorized path; force the
        # scalar loop and demand the same graph.
        n_big = 250  # expected ≈ 3112 > _VECTOR_MIN_EXPECTED
        assert 0.1 * n_big * (n_big - 1) / 2 > _VECTOR_MIN_EXPECTED
        assert_identical(
            gnp(n_big, 0.1, seed=7, vectorized=False),
            gnp(n_big, 0.1, seed=7),
        )

    def test_gnd_threads_the_knob(self):
        assert_identical(
            gnd(150, 6.0, seed=3, vectorized=False),
            gnd(150, 6.0, seed=3, vectorized=True),
        )

    def test_p_one_is_complete_on_every_backend(self):
        for backend in ("bigint", "csr"):
            graph = gnp(65, 1.0, seed=9, backend=backend)
            assert graph.num_edges == 65 * 64 // 2
            assert graph == Graph.complete(65, backend="bigint")

    def test_degenerate_sizes(self):
        assert gnp(0, 0.5, vectorized=True).num_edges == 0
        assert gnp(1, 0.5, vectorized=True).num_edges == 0
        assert gnp(10, 0.0, vectorized=True).num_edges == 0


class TestTripartiteMuIdentity:
    @given(st.sampled_from([4, 21, 22, 40]),
           st.sampled_from([0.5, 1.5, 4.0]), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_scalar_equals_vectorized(self, part_size, gamma, seed):
        scalar, parts_s = tripartite_mu(
            part_size, gamma, seed=seed, vectorized=False
        )
        vector, parts_v = tripartite_mu(
            part_size, gamma, seed=seed, vectorized=True
        )
        assert parts_s == parts_v
        assert_identical(scalar, vector)

    def test_chunked_draws_match_unchunked(self, monkeypatch):
        # Shrink the draw chunk so one part-pair spans many chunks; the
        # uniform stream (and hence the graph) must not notice.
        reference, _ = tripartite_mu(30, 2.0, seed=11, vectorized=True)
        monkeypatch.setattr(gen, "_DRAW_CHUNK", 64)
        chunked, _ = tripartite_mu(30, 2.0, seed=11, vectorized=True)
        assert_identical(reference, chunked)


class TestPowerlawHostIdentity:
    @given(BOUNDARY_N, st.sampled_from([2.0, 6.0]),
           st.sampled_from([2.1, 2.5, 2.9]), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_scalar_equals_vectorized(self, n, d, exponent, seed):
        assert_identical(
            powerlaw_host(n, d, exponent=exponent, seed=seed,
                          vectorized=False),
            powerlaw_host(n, d, exponent=exponent, seed=seed,
                          vectorized=True),
        )

    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_identical_across_backends(self, seed):
        reference = powerlaw_host(200, 4.0, seed=seed, vectorized=False)
        for backend in ("bigint", "csr"):
            built = powerlaw_host(200, 4.0, seed=seed, backend=backend)
            assert built.backend == backend
            assert built == reference

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
        # The bulk build hints its edge count, so ``auto`` picks the
        # kernel for that density (csr for the sparse n = 40000 host).
        assert get_kernel(
            None, n, expected_edges=bulk.num_edges
        ) is type(bulk.kernel)
        assert_identical(scalar, bulk)

    def test_pattern_plant_bulk_agrees(self, monkeypatch):
        from repro.patterns import plant as plant_module
        from repro.patterns.catalog import FOUR_CLIQUE

        def build():
            return plant_module.planted_disjoint_subgraphs(
                200, FOUR_CLIQUE, 30, seed=5, background_degree=1.5
            )

        monkeypatch.setattr(plant_module, "_BULK_PLANT_EDGES", 10**9)
        scalar = build()
        monkeypatch.setattr(plant_module, "_BULK_PLANT_EDGES", 1)
        bulk = build()
        assert scalar.planted_copies == bulk.planted_copies
        assert_identical(scalar.graph, bulk.graph)


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
