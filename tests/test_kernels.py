"""Backend selection and the surfaces every mask kernel shares.

The two kernels (``bigint`` and ``csr``) are differential-pinned to each
other in ``test_csr_kernel.py``; this module covers what sits between
and above them: the exchange-mask conversions (exact at every word
boundary), name resolution, the ``auto`` policy table, the environment
default, ``MaskKernel`` conformance, pinned-seed sweep identity under
every backend name and the oracle ``to_networkx`` conversion.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.experiments import run_sweep
from repro.analysis.table1 import far_disjoint_instance
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.graphs import Graph, MaskKernel, get_kernel, mask_of
from repro.graphs.kernels import (
    BACKEND_ENV_VAR,
    CSR_AUTO_THRESHOLD,
    SPARSE_HINT_THRESHOLD,
    BigintKernel,
    CsrKernel,
    kernel_names,
)
from repro.graphs.kernels.csr import _bits_of_mask, _mask_from_sorted_indices

from oracles.graphs import to_networkx

# Vertex ids biased towards the 64-bit word boundaries.
VERTEX_SETS = st.sets(
    st.one_of(
        st.integers(min_value=0, max_value=200),
        st.sampled_from([0, 63, 64, 127, 128, 191]),
    )
)


class TestConversionRoundTrip:
    """csr's mask <-> sorted-index conversions are exact inverses."""

    @given(VERTEX_SETS)
    def test_pack_unpack_is_lossless(self, vertices):
        mask = mask_of(vertices)
        indices = _bits_of_mask(mask)
        assert indices.tolist() == sorted(vertices)
        assert _mask_from_sorted_indices(indices) == mask

    @pytest.mark.parametrize("bit", [0, 1, 63, 64, 127, 128, 191])
    def test_word_boundary_bits(self, bit):
        assert _bits_of_mask(1 << bit).tolist() == [bit]
        assert _mask_from_sorted_indices(
            np.array([bit], dtype=np.int64)
        ) == 1 << bit
        csr = Graph(bit + 2, [(bit, bit + 1)], backend="csr")
        assert csr.neighbor_mask(bit + 1) == 1 << bit
        assert csr.to_backend("bigint").to_backend("csr") == csr


class TestRegistry:
    def test_known_names_resolve(self):
        assert get_kernel("bigint") is BigintKernel
        assert get_kernel("csr") is CsrKernel
        assert kernel_names() == ("bigint", "csr", "auto")

    def test_unknown_name_raises_with_catalog(self):
        for name in ("bitslice", "packed"):
            with pytest.raises(ValueError) as raised:
                get_kernel(name)
            for known in ("bigint", "csr", "auto"):
                assert known in str(raised.value)

    def test_auto_policy_switches_on_size(self):
        sparse = 4 * SPARSE_HINT_THRESHOLD  # d = 8
        dense = SPARSE_HINT_THRESHOLD ** 2 // 4
        table = [
            (0, None, BigintKernel),
            (SPARSE_HINT_THRESHOLD - 1, sparse, BigintKernel),
            (SPARSE_HINT_THRESHOLD, None, BigintKernel),
            (SPARSE_HINT_THRESHOLD, sparse, CsrKernel),
            (SPARSE_HINT_THRESHOLD, dense, BigintKernel),
            (CSR_AUTO_THRESHOLD, None, CsrKernel),
        ]
        assert SPARSE_HINT_THRESHOLD == 32768
        assert CSR_AUTO_THRESHOLD == 1 << 18
        for n, expected_edges, kernel in table:
            assert get_kernel(
                "auto", n, expected_edges=expected_edges
            ) is kernel, (n, expected_edges)

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "csr")
        assert Graph(8).backend == "csr"
        monkeypatch.setenv(BACKEND_ENV_VAR, "bigint")
        assert Graph(8).backend == "bigint"
        # Explicit argument wins over the environment.
        assert Graph(8, backend="csr").backend == "csr"

    def test_default_small_graphs_stay_bigint(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert Graph(8).backend == "bigint"

    def test_kernels_satisfy_protocol(self):
        assert isinstance(Graph(4, backend="bigint").kernel, MaskKernel)
        assert isinstance(Graph(4, backend="csr").kernel, MaskKernel)


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
        """A pinned-seed protocol sweep is record-identical per backend name.

        Every name the registry accepts, the ``auto`` policy included,
        is set as the environment default: generator, partition,
        players and referee must not observe which kernel is underneath.
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
        for name in kernel_names():
            monkeypatch.setenv(BACKEND_ENV_VAR, name)
            records[name] = sweep().records
        assert records["bigint"] == records["csr"] == records["auto"]
