"""The surfaces the mask kernel exposes through ``Graph``.

Rows and edge keys that convert exactly at every word boundary (scalar
inserts against keys-first edge arrays), the kernel name catalog,
``MaskKernel`` conformance and the oracle ``to_networkx`` conversion.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.graphs import Graph, MaskKernel
from repro.graphs.kernels import BigintKernel, kernel_names

from oracles.graphs import to_networkx


class TestConversionRoundTrip:
    """Kernel rows and edge keys convert exactly at every word boundary."""

    @pytest.mark.parametrize("bit", [0, 1, 63, 64, 127, 128, 191])
    def test_word_boundary_bits(self, bit):
        scalar = Graph(bit + 2, [(bit, bit + 1)])
        assert scalar.neighbor_mask(bit + 1) == 1 << bit
        keys_first = Graph.from_edge_arrays(
            bit + 2, np.array([bit + 1]), np.array([bit])
        )
        assert keys_first.neighbor_mask(bit + 1) == 1 << bit
        assert keys_first == scalar


class TestRegistry:
    def test_one_kernel_ships(self):
        assert kernel_names() == ("bigint",)
        assert BigintKernel.name == "bigint"

    def test_kernels_satisfy_protocol(self):
        assert isinstance(BigintKernel(4), MaskKernel)
        assert isinstance(Graph(4)._kernel, MaskKernel)


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
