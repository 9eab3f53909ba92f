"""Differential tests: the packed uint64 kernel vs the bignum kernel.

The bignum kernel is the executable specification (itself pinned to the
set-based reference in ``test_graph_kernel.py``); the packed kernel must
be observationally identical through every bulk primitive of the
:class:`~repro.graphs.kernels.base.MaskKernel` contract, and its native
triangle accelerators must reproduce the generic algorithms' outputs
bit for bit.  Graphs run at n = 70 (> 64) so every property straddles a
word boundary.  Round-trip conversion, the backend registry, the LUT
popcount fallback, and end-to-end pinned-seed sweep identity are covered
here too.
"""

from __future__ import annotations

import sys

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
    PACKED_AUTO_THRESHOLD,
    BigintKernel,
    kernel_names,
)
from repro.graphs.kernels import packed as packed_module
from repro.graphs.kernels.packed import (
    PackedKernel,
    pack_mask,
    unpack_words,
)
from repro.graphs.triangles import (
    count_triangles,
    find_triangle,
    greedy_triangle_packing,
    iter_triangles,
    make_triangle_free_by_removal,
    triangle_edges,
)

from oracles.graphs import to_networkx

N = 70  # > 64: every differential property crosses the word boundary

# Vertices biased towards the uint64 boundary so word-straddling edges
# like (63, 64) appear in most op sequences.
VERTEX = st.one_of(
    st.integers(min_value=0, max_value=N - 1),
    st.sampled_from([0, 62, 63, 64, 65, N - 1]),
)
OPS = st.lists(st.tuples(st.booleans(), VERTEX, VERTEX), max_size=150)
VERTEX_SETS = st.sets(VERTEX)


def build_both(ops) -> tuple[Graph, Graph]:
    bigint = Graph(N, backend="bigint")
    packed = Graph(N, backend="packed")
    for add, u, v in ops:
        if u == v:
            continue
        if add:
            assert bigint.add_edge(u, v) == packed.add_edge(u, v)
        else:
            assert bigint.remove_edge(u, v) == packed.remove_edge(u, v)
    return bigint, packed


class TestConversionRoundTrip:
    @given(VERTEX_SETS)
    def test_pack_unpack_is_lossless(self, vertices):
        words = (N + 63) >> 6
        mask = mask_of(vertices)
        assert unpack_words(pack_mask(mask, words)) == mask

    @pytest.mark.parametrize("bit", [0, 1, 63, 64, 127, 128, 191])
    def test_word_boundary_bits(self, bit):
        words = (bit >> 6) + 1
        packed = pack_mask(1 << bit, words)
        assert int(packed[bit >> 6]) == 1 << (bit & 63)
        assert unpack_words(packed) == 1 << bit

    @given(OPS)
    @settings(max_examples=40, deadline=None)
    def test_from_rows_round_trips_both_ways(self, ops):
        bigint, packed = build_both(ops)
        rows = bigint.adjacency_rows()
        assert PackedKernel.from_rows(N, rows).rows() == rows
        assert BigintKernel.from_rows(N, packed.kernel.rows()).rows() == rows

    @given(OPS)
    @settings(max_examples=40, deadline=None)
    def test_to_backend_round_trip(self, ops):
        bigint, packed = build_both(ops)
        assert bigint.to_backend("packed") == packed
        assert packed.to_backend("bigint") == bigint
        back = bigint.to_backend("packed").to_backend("bigint")
        assert back == bigint and back.backend == "bigint"


class TestBulkPrimitiveDifferential:
    @given(OPS)
    @settings(max_examples=60, deadline=None)
    def test_rows_and_scalar_queries_agree(self, ops):
        bigint, packed = build_both(ops)
        assert bigint.num_edges == packed.num_edges
        assert bigint.adjacency_rows() == packed.adjacency_rows()
        assert bigint.degrees() == packed.degrees()
        assert bigint.isolated_vertices() == packed.isolated_vertices()
        assert list(bigint.edges()) == list(packed.edges())
        assert bigint == packed and packed == bigint
        for v in (0, 1, 63, 64, 65, N - 1):
            assert bigint.neighbor_mask(v) == packed.neighbor_mask(v)
            assert bigint.neighbors(v) == packed.neighbors(v)
            assert bigint.degree(v) == packed.degree(v)
        for u in (0, 13, 63, 64, N - 1):
            for v in range(N):
                assert bigint.has_edge(u, v) == packed.has_edge(u, v)
                if u != v:
                    assert (
                        bigint.common_neighbors(u, v)
                        == packed.common_neighbors(u, v)
                    )

    @given(OPS, st.lists(st.tuples(VERTEX, VERTEX_SETS), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_add_neighbors_agrees(self, ops, merges):
        bigint, packed = build_both(ops)
        for u, vertices in merges:
            mask = mask_of(vertices) & ~(1 << u)
            assert bigint.add_neighbors(u, mask) == packed.add_neighbors(
                u, mask
            )
        assert bigint == packed
        assert bigint.num_edges == packed.num_edges

    @given(OPS, VERTEX_SETS)
    @settings(max_examples=60, deadline=None)
    def test_derived_graphs_agree(self, ops, vertices):
        bigint, packed = build_both(ops)
        mask = mask_of(vertices)
        assert bigint.induced_subgraph_mask_rows(
            mask
        ) == packed.induced_subgraph_mask_rows(mask)
        assert bigint.edges_touching_mask(mask) == packed.edges_touching_mask(
            mask
        )
        assert bigint.induced_subgraph_edges(
            vertices
        ) == packed.induced_subgraph_edges(vertices)
        assert bigint.edges_touching(vertices) == packed.edges_touching(
            vertices
        )
        assert bigint.subgraph(vertices) == packed.subgraph(vertices)

    @given(OPS, OPS)
    @settings(max_examples=40, deadline=None)
    def test_union_and_copy_agree(self, ops_a, ops_b):
        bigint_a, packed_a = build_both(ops_a)
        bigint_b, packed_b = build_both(ops_b)
        union_bigint = bigint_a.union(bigint_b)
        union_packed = packed_a.union(packed_b)
        assert union_bigint == union_packed
        assert union_bigint.num_edges == union_packed.num_edges
        # Cross-backend unions convert through the exchange format.
        assert bigint_a.union(packed_b) == union_bigint
        assert packed_a.union(bigint_b) == union_packed
        clone = packed_a.copy()
        assert clone == packed_a
        if clone.add_edge(0, 1) or clone.remove_edge(0, 1):
            assert clone != packed_a


class TestTriangleNatives:
    @given(OPS)
    @settings(max_examples=60, deadline=None)
    def test_triangle_layer_identical(self, ops):
        bigint, packed = build_both(ops)
        assert count_triangles(bigint) == count_triangles(packed)
        assert find_triangle(bigint) == find_triangle(packed)
        assert greedy_triangle_packing(bigint) == greedy_triangle_packing(
            packed
        )
        assert list(iter_triangles(bigint)) == list(iter_triangles(packed))
        assert triangle_edges(bigint) == triangle_edges(packed)

    def test_planted_instance_identical_across_backends(self):
        built_bigint = far_instance(300, 6.0, 0.1, seed=5, backend="bigint")
        built_packed = far_instance(300, 6.0, 0.1, seed=5, backend="packed")
        gb, gp = built_bigint.graph, built_packed.graph
        assert gb.backend == "bigint" and gp.backend == "packed"
        assert gb == gp
        assert built_bigint.planted_triangles == built_packed.planted_triangles
        assert count_triangles(gb) == count_triangles(gp)
        assert find_triangle(gb) == find_triangle(gp)
        assert greedy_triangle_packing(gb) == greedy_triangle_packing(gp)
        free_b, removed_b = make_triangle_free_by_removal(gb)
        free_p, removed_p = make_triangle_free_by_removal(gp)
        assert removed_b == removed_p
        assert free_b == free_p

    def test_dense_graph_declines_to_generic_path(self):
        n = 40
        complete = Graph(n, backend="packed")
        for u in range(n):
            complete.add_neighbors(u, ((1 << n) - 1) ^ (1 << u))
        # The wedge natives decline on dense graphs...
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


class TestRegistry:
    def test_known_names_resolve(self):
        assert get_kernel("bigint") is BigintKernel
        assert get_kernel("packed") is PackedKernel
        assert set(kernel_names()) >= {"bigint", "packed", "auto"}

    def test_unknown_name_raises_with_catalog(self):
        with pytest.raises(ValueError, match="bigint"):
            get_kernel("bitslice")

    def test_auto_policy_switches_on_size(self):
        assert get_kernel("auto", 0) is BigintKernel
        assert get_kernel("auto", PACKED_AUTO_THRESHOLD - 1) is BigintKernel
        assert get_kernel("auto", PACKED_AUTO_THRESHOLD) is PackedKernel

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "packed")
        assert Graph(8).backend == "packed"
        monkeypatch.setenv(BACKEND_ENV_VAR, "bigint")
        assert Graph(8).backend == "bigint"
        # Explicit argument wins over the environment.
        assert Graph(8, backend="packed").backend == "packed"

    def test_default_small_graphs_stay_bigint(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert Graph(8).backend == "bigint"

    def test_kernels_satisfy_protocol(self):
        assert isinstance(Graph(4, backend="bigint").kernel, MaskKernel)
        assert isinstance(Graph(4, backend="packed").kernel, MaskKernel)


class TestLutPopcountFallback:
    @given(OPS)
    @settings(max_examples=25, deadline=None)
    def test_lut_matches_bitwise_count(self, ops):
        _, packed = build_both(ops)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(packed_module, "_HAS_BITWISE_COUNT", False)
            lut_degrees = packed.degrees()
            lut_count = count_triangles(packed)
            lut_edges = packed.num_edges
        assert lut_degrees == packed.degrees()
        assert lut_count == count_triangles(packed)
        assert lut_edges == packed.num_edges


class TestToNetworkxImportError:
    def test_pointed_error_names_reference_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)
        with pytest.raises(ImportError, match=r"reference"):
            to_networkx(Graph(3, [(0, 1)]))

    def test_conversion_works_when_available(self):
        pytest.importorskip("networkx")
        nx_graph = to_networkx(Graph(4, [(0, 1), (1, 2)]))
        assert nx_graph.number_of_nodes() == 4
        assert nx_graph.number_of_edges() == 2


class TestSweepByteIdentity:
    def test_sim_low_records_identical_across_backends(self, monkeypatch):
        """A pinned-seed protocol sweep is record-identical per backend.

        The small-n twin of the bench harness's n = 10^5 scale check:
        the whole pipeline — generator, partition, players, referee —
        must not observe which kernel is underneath.
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

        monkeypatch.setenv(BACKEND_ENV_VAR, "bigint")
        records_bigint = sweep().records
        monkeypatch.setenv(BACKEND_ENV_VAR, "packed")
        records_packed = sweep().records
        assert records_bigint == records_packed
