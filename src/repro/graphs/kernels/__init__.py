"""The mask kernel behind :class:`repro.graphs.graph.Graph`.

:mod:`repro.graphs.kernels.base` holds the :class:`MaskKernel`
protocol; :class:`BigintKernel` (one Python int per vertex) is the one
kernel that ships.  Large sparse hosts never need an n-bit row per
vertex: they stay keys-first (see :mod:`repro.graphs.graph`), and the
simultaneous referee finds triangles on sorted edge keys
(:func:`repro.core.referee.key_union_triangle_referee`) without
building a kernel.
"""

from __future__ import annotations

from repro.graphs.kernels.base import MaskKernel, iter_bits, mask_of
from repro.graphs.kernels.bigint import BigintKernel

__all__ = [
    "MaskKernel",
    "BigintKernel",
    "kernel_names",
    "iter_bits",
    "mask_of",
]


def kernel_names() -> tuple[str, ...]:
    """The names of the shipped kernels."""
    return (BigintKernel.name,)
