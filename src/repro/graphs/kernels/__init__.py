"""Mask-kernel backends for :class:`repro.graphs.graph.Graph`.

See :mod:`repro.graphs.kernels.base` for the :class:`MaskKernel`
protocol and the selection policy.  ``bigint`` is always available;
``packed`` (numpy uint64 words) and ``csr`` (sorted numpy index
arrays) register lazily on first request.
"""

from repro.graphs.kernels.base import (
    BACKEND_ENV_VAR,
    CSR_AUTO_THRESHOLD,
    PACKED_AUTO_THRESHOLD,
    SPARSE_DENSITY_WORD_FACTOR,
    MaskKernel,
    get_kernel,
    iter_bits,
    kernel_names,
    mask_of,
    register_kernel,
)
from repro.graphs.kernels.bigint import BigintKernel

__all__ = [
    "MaskKernel",
    "BigintKernel",
    "get_kernel",
    "register_kernel",
    "kernel_names",
    "iter_bits",
    "mask_of",
    "BACKEND_ENV_VAR",
    "PACKED_AUTO_THRESHOLD",
    "CSR_AUTO_THRESHOLD",
    "SPARSE_DENSITY_WORD_FACTOR",
]
