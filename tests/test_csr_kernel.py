"""Differential tests: the sparse CSR kernel vs the bignum kernel.

The bignum kernel is the executable specification, and the CSR kernel —
sorted index arrays plus a delta overlay for single-edge mutation — must
be observationally identical through every :class:`MaskKernel`
primitive, with its merge-intersection triangle natives reproducing the
generic algorithms bit for bit.  Graphs run at n = 70 (> 64) so the
exchange masks span more than one machine word.  The density-aware
``auto`` policy's boundaries, the hot-row LRU, bulk edge-array
construction, ``memory_bytes``, pickling and pinned-seed sweep identity
are covered here.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import run_sweep
from repro.analysis.table1 import far_disjoint_instance
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.graphs import Graph, MaskKernel, get_kernel, mask_of
from repro.graphs.generators import far_instance
from repro.graphs.kernels import (
    BACKEND_ENV_VAR,
    CSR_AUTO_THRESHOLD,
    SPARSE_DENSITY_WORD_FACTOR,
    SPARSE_HINT_THRESHOLD,
    BigintKernel,
    kernel_names,
)
from repro.graphs.kernels.csr import CsrKernel
from repro.graphs.triangles import (
    count_triangles,
    find_triangle,
    greedy_triangle_packing,
    iter_triangles,
    make_triangle_free_by_removal,
    triangle_edges,
)

N = 70  # > 64: exchange masks straddle a 64-bit word boundary

VERTEX = st.one_of(
    st.integers(min_value=0, max_value=N - 1),
    st.sampled_from([0, 62, 63, 64, 65, N - 1]),
)
OPS = st.lists(st.tuples(st.booleans(), VERTEX, VERTEX), max_size=150)
VERTEX_SETS = st.sets(VERTEX)


def build_both(ops) -> tuple[Graph, Graph]:
    bigint = Graph(N, backend="bigint")
    csr = Graph(N, backend="csr")
    for add, u, v in ops:
        if u == v:
            continue
        if add:
            assert bigint.add_edge(u, v) == csr.add_edge(u, v)
        else:
            assert bigint.remove_edge(u, v) == csr.remove_edge(u, v)
    return bigint, csr


class TestOverlayDifferential:
    """Interleaved mutate/probe sequences never compact, yet agree."""

    @given(OPS)
    @settings(max_examples=60, deadline=None)
    def test_point_queries_before_any_compaction(self, ops):
        bigint, csr = build_both(ops)
        # Point queries first: these run against the live overlay.
        for v in (0, 1, 63, 64, 65, N - 1):
            assert bigint.degree(v) == csr.degree(v)
            assert bigint.neighbor_mask(v) == csr.neighbor_mask(v)
        for u in (0, 13, 63, 64, N - 1):
            for v in range(N):
                assert bigint.has_edge(u, v) == csr.has_edge(u, v)
                if u != v:
                    assert (
                        bigint.common_neighbors(u, v)
                        == csr.common_neighbors(u, v)
                    )
        assert bigint.degrees() == csr.degrees()
        # Bulk queries second: these fold the overlay into the arrays.
        assert bigint.num_edges == csr.num_edges
        assert bigint.adjacency_rows() == csr.adjacency_rows()
        assert bigint.isolated_vertices() == csr.isolated_vertices()
        assert list(bigint.edges()) == list(csr.edges())
        assert bigint == csr and csr == bigint

    @given(OPS, st.lists(st.tuples(VERTEX, VERTEX_SETS), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_add_neighbors_agrees(self, ops, merges):
        bigint, csr = build_both(ops)
        for u, vertices in merges:
            mask = mask_of(vertices) & ~(1 << u)
            assert bigint.add_neighbors(u, mask) == csr.add_neighbors(u, mask)
        assert bigint == csr
        assert bigint.num_edges == csr.num_edges

    @given(OPS, VERTEX_SETS)
    @settings(max_examples=40, deadline=None)
    def test_derived_graphs_agree(self, ops, vertices):
        bigint, csr = build_both(ops)
        mask = mask_of(vertices)
        assert bigint.induced_subgraph_mask_rows(
            mask
        ) == csr.induced_subgraph_mask_rows(mask)
        assert bigint.edges_touching_mask(mask) == csr.edges_touching_mask(
            mask
        )
        assert bigint.subgraph(vertices) == csr.subgraph(vertices)

    @given(OPS, OPS)
    @settings(max_examples=30, deadline=None)
    def test_union_and_copy_agree(self, ops_a, ops_b):
        bigint_a, csr_a = build_both(ops_a)
        bigint_b, csr_b = build_both(ops_b)
        union_bigint = bigint_a.union(bigint_b)
        union_csr = csr_a.union(csr_b)
        assert union_bigint == union_csr
        assert union_bigint.num_edges == union_csr.num_edges
        # Cross-backend unions convert through the exchange format.
        assert csr_a.union(bigint_b) == union_csr
        clone = csr_a.copy()
        assert clone == csr_a
        if clone.add_edge(0, 1) or clone.remove_edge(0, 1):
            assert clone != csr_a

    @given(OPS)
    @settings(max_examples=30, deadline=None)
    def test_from_rows_round_trips_both_ways(self, ops):
        bigint, csr = build_both(ops)
        rows = bigint.adjacency_rows()
        assert CsrKernel.from_rows(N, rows).rows() == rows
        assert BigintKernel.from_rows(N, csr.kernel.rows()).rows() == rows

    @given(OPS)
    @settings(max_examples=30, deadline=None)
    def test_to_backend_round_trip(self, ops):
        bigint, csr = build_both(ops)
        assert bigint.to_backend("csr") == csr
        assert csr.to_backend("bigint") == bigint
        back = csr.to_backend("bigint").to_backend("csr")
        assert back == csr and back.backend == "csr"


class TestRowCache:
    def test_mutation_invalidates_cached_rows(self):
        graph = Graph(10, backend="csr")
        graph.add_edge(0, 1)
        assert graph.neighbor_mask(0) == 1 << 1  # now cached
        assert graph.neighbor_mask(1) == 1 << 0
        graph.add_edge(0, 2)
        assert graph.neighbor_mask(0) == (1 << 1) | (1 << 2)
        graph.remove_edge(0, 1)
        assert graph.neighbor_mask(0) == 1 << 2
        assert graph.neighbor_mask(1) == 0

    def test_cache_eviction_keeps_answers_correct(self):
        from repro.graphs.kernels import csr as csr_module

        n = 3 * csr_module._ROW_CACHE_SIZE
        graph = Graph.from_edge_arrays(
            n,
            np.arange(n - 1, dtype=np.int64),
            np.arange(1, n, dtype=np.int64),
            backend="csr",
        )
        # Touch every row (evicting most), then re-read a sample.
        masks = [graph.neighbor_mask(v) for v in range(n)]
        reference = graph.to_backend("bigint")
        for v in (0, 1, n // 2, n - 2, n - 1):
            assert masks[v] == reference.neighbor_mask(v)
            assert graph.neighbor_mask(v) == reference.neighbor_mask(v)


class TestBulkEdgeArrays:
    @given(OPS)
    @settings(max_examples=30, deadline=None)
    def test_from_edge_arrays_equals_scalar_build(self, ops):
        bigint, csr = build_both(ops)
        edges = list(bigint.edges())
        us = np.array([u for u, _ in edges], dtype=np.int64)
        vs = np.array([v for _, v in edges], dtype=np.int64)
        for backend in ("bigint", "csr"):
            rebuilt = Graph.from_edge_arrays(N, us, vs, backend=backend)
            assert rebuilt == bigint
            assert rebuilt.num_edges == bigint.num_edges
        # Reversed orientation and duplicates canonicalize away.
        doubled = Graph.from_edge_arrays(
            N, np.concatenate([us, vs]), np.concatenate([vs, us]),
            backend="csr",
        )
        assert doubled == bigint and doubled.num_edges == bigint.num_edges

    def test_add_edge_arrays_counts_only_new(self):
        for backend in ("bigint", "csr"):
            graph = Graph(8, backend=backend)
            us = np.array([0, 1, 2], dtype=np.int64)
            vs = np.array([1, 2, 3], dtype=np.int64)
            assert graph.add_edge_arrays(us, vs) == 3
            assert graph.add_edge_arrays(us, vs) == 0  # idempotent
            assert graph.add_edge_arrays(
                np.array([3, 0], dtype=np.int64),
                np.array([4, 1], dtype=np.int64),
            ) == 1
            assert graph.num_edges == 4

    def test_edge_array_validation(self):
        us = np.array([0], dtype=np.int64)
        with pytest.raises(ValueError, match="length"):
            Graph.from_edge_arrays(4, us, np.array([1, 2]))
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edge_arrays(4, us, us)
        with pytest.raises(ValueError, match="outside"):
            Graph.from_edge_arrays(4, us, np.array([4]))

    def test_complete_matches_per_vertex_fill(self):
        for backend in ("bigint", "csr"):
            quick = Graph.complete(12, backend=backend)
            slow = Graph(12, backend=backend)
            for u in range(12):
                slow.add_neighbors(u, ((1 << 12) - 1) ^ (1 << u))
            assert quick == slow
            assert quick.num_edges == 12 * 11 // 2


class TestTriangleNatives:
    @given(OPS)
    @settings(max_examples=60, deadline=None)
    def test_triangle_layer_identical(self, ops):
        bigint, csr = build_both(ops)
        assert count_triangles(bigint) == count_triangles(csr)
        assert find_triangle(bigint) == find_triangle(csr)
        assert greedy_triangle_packing(bigint) == greedy_triangle_packing(csr)
        assert list(iter_triangles(bigint)) == list(iter_triangles(csr))
        assert triangle_edges(bigint) == triangle_edges(csr)

    def test_planted_instance_identical_across_backends(self):
        built_bigint = far_instance(300, 6.0, 0.1, seed=5, backend="bigint")
        built_csr = far_instance(300, 6.0, 0.1, seed=5, backend="csr")
        gb, gc = built_bigint.graph, built_csr.graph
        assert gb.backend == "bigint" and gc.backend == "csr"
        assert gb == gc
        assert built_bigint.planted_triangles == built_csr.planted_triangles
        assert count_triangles(gb) == count_triangles(gc)
        assert find_triangle(gb) == find_triangle(gc)
        assert greedy_triangle_packing(gb) == greedy_triangle_packing(gc)
        free_b, removed_b = make_triangle_free_by_removal(gb)
        free_c, removed_c = make_triangle_free_by_removal(gc)
        assert removed_b == removed_c
        assert free_b == free_c

    def test_dense_graph_declines_to_generic_path(self):
        n = 40
        complete = Graph.complete(n, backend="csr")
        assert complete.kernel.count_triangles() is NotImplemented
        assert complete.kernel.find_triangle() is NotImplemented
        assert complete.kernel.greedy_triangle_packing() is NotImplemented
        # ...and the dispatcher falls back to the generic algorithms.
        expected = n * (n - 1) * (n - 2) // 6
        assert count_triangles(complete) == expected
        assert find_triangle(complete) == (0, 1, 2)
        reference = complete.to_backend("bigint")
        assert greedy_triangle_packing(complete) == greedy_triangle_packing(
            reference
        )


class TestRegistryAndAutoPolicy:
    def test_csr_resolves_and_satisfies_protocol(self):
        assert get_kernel("csr") is CsrKernel
        assert "csr" in kernel_names()
        assert isinstance(Graph(4, backend="csr").kernel, MaskKernel)

    def test_auto_without_hint_keeps_historical_policy(self):
        for n in (0, SPARSE_HINT_THRESHOLD - 1, SPARSE_HINT_THRESHOLD,
                  CSR_AUTO_THRESHOLD - 1):
            assert get_kernel("auto", n) is BigintKernel, n

    def test_auto_switches_to_csr_above_hard_threshold(self):
        assert get_kernel("auto", CSR_AUTO_THRESHOLD - 1) is BigintKernel
        assert get_kernel("auto", CSR_AUTO_THRESHOLD) is CsrKernel
        assert get_kernel("auto", 10**6) is CsrKernel
        # Past the hard threshold even a dense hint stays on csr.
        dense_edges = CSR_AUTO_THRESHOLD ** 2 // 4
        assert get_kernel(
            "auto", CSR_AUTO_THRESHOLD, expected_edges=dense_edges
        ) is CsrKernel

    def test_auto_density_hint_picks_csr_on_sparse_hosts(self):
        n = SPARSE_HINT_THRESHOLD
        # The density cut is strict: m · 64 < n² picks csr.
        cut = (n * n) // SPARSE_DENSITY_WORD_FACTOR
        assert get_kernel("auto", n, expected_edges=cut - 1) is CsrKernel
        assert get_kernel("auto", n, expected_edges=cut) is BigintKernel
        # Below the hint threshold the hint never overrides bigint.
        assert get_kernel("auto", n - 1, expected_edges=10) is BigintKernel
        assert get_kernel("auto", 100, expected_edges=10) is BigintKernel

    def test_env_var_accepts_csr(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "csr")
        assert Graph(8).backend == "csr"
        assert Graph(8, backend="bigint").backend == "bigint"


class TestMemoryReporting:
    def test_nbytes_tracks_edges_not_n_squared(self):
        n = 4096
        sparse = Graph.from_edge_arrays(
            n,
            np.arange(n - 1, dtype=np.int64),
            np.arange(1, n, dtype=np.int64),
            backend="csr",
        )
        bigint = sparse.to_backend("bigint")
        # Unbuilt, both hold only the keys; compare the built kernels.
        assert sparse.nbytes == bigint.nbytes == sparse.edge_keys().nbytes
        assert sparse.has_edge(0, 1) and bigint.has_edge(0, 1)  # builds
        assert 0 < sparse.nbytes < bigint.nbytes
        # CSR is a few dozen bytes per edge plus the n+1 offsets.
        assert sparse.nbytes < 64 * sparse.num_edges + 16 * n

    def test_instance_cache_reports_bytes(self):
        from repro.runtime.cache import InstanceCache, instance_nbytes

        graph = Graph(64, [(0, 1), (1, 2)], backend="csr")
        assert instance_nbytes(graph) == graph.nbytes > 0
        cache = InstanceCache(max_entries=4)
        cache.get_or_build(("g",), lambda: graph)
        assert cache.stats()["instance_bytes"] == graph.nbytes
        cache.clear()
        assert cache.stats()["instance_bytes"] == 0


class TestPickleRoundTrip:
    @given(OPS)
    @settings(max_examples=20, deadline=None)
    def test_pickle_preserves_graph_and_backend(self, ops):
        _, csr = build_both(ops)
        clone = pickle.loads(pickle.dumps(csr))
        assert clone == csr
        assert clone.backend == "csr"
        assert clone.num_edges == csr.num_edges
        # The clone stays mutable (overlay/caches were rebuilt).
        changed = clone.add_edge(0, 1) or clone.remove_edge(0, 1)
        assert changed


class TestSweepByteIdentity:
    def test_sim_low_records_identical_across_all_backends(self, monkeypatch):
        """A pinned-seed protocol sweep is record-identical per backend.

        The small-n twin of the bench harness's scale check: generator,
        partition, players and referee must not observe which kernel is
        underneath.
        """
        params = SimLowParams(epsilon=0.2, delta=0.2)
        grid = [(600, 6.0, 3)]

        def sweep():
            return run_sweep(
                lambda partition, s: find_triangle_sim_low(
                    partition, params, seed=s
                ),
                far_disjoint_instance(epsilon=0.2, k=3),
                grid, trials=2, seed=0,
            )

        records = {}
        for backend in ("bigint", "csr"):
            monkeypatch.setenv(BACKEND_ENV_VAR, backend)
            records[backend] = sweep().records
        assert records["bigint"] == records["csr"]
