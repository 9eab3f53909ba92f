"""Mask-kernel backends for :class:`repro.graphs.graph.Graph`, and the
policy that picks one.

:mod:`repro.graphs.kernels.base` holds the :class:`MaskKernel`
protocol.  Two kernels ship: ``bigint`` (one Python int per vertex)
and ``csr`` (sorted numpy index arrays).

Selection: an explicit ``Graph(n, backend=...)`` argument wins, then
the ``REPRO_GRAPH_BACKEND`` environment variable, then the ``auto``
policy.  ``auto`` is bigint unless the host is large *and* sparse:
csr from :data:`CSR_AUTO_THRESHOLD` vertices up unconditionally (an
n-bit row per vertex no longer fits), or from
:data:`SPARSE_HINT_THRESHOLD` up when the caller supplies an
``expected_edges`` hint showing m < n²/64 (the memory crossover where
~8 bytes/edge of CSR beats n/8 bytes/row of bitmask).
"""

from __future__ import annotations

import os

from repro.graphs.kernels.base import MaskKernel, iter_bits, mask_of
from repro.graphs.kernels.bigint import BigintKernel
from repro.graphs.kernels.csr import CsrKernel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = [
    "MaskKernel",
    "BigintKernel",
    "CsrKernel",
    "get_kernel",
    "kernel_names",
    "iter_bits",
    "mask_of",
    "BACKEND_ENV_VAR",
    "SPARSE_HINT_THRESHOLD",
    "CSR_AUTO_THRESHOLD",
    "SPARSE_DENSITY_WORD_FACTOR",
]

#: Environment variable naming the default backend (``bigint``,
#: ``csr``, or ``auto``); an explicit ``backend=`` argument wins.
BACKEND_ENV_VAR = "REPRO_GRAPH_BACKEND"

#: ``auto`` consults the ``expected_edges`` density hint only from this
#: vertex count on.  From here an n-bit row per vertex costs at least
#: 8 MiB per graph, and on sparse hosts (d = 8, n = 8192 / 16384) csr
#: runs ``count_triangles`` about 4x / 9x and ``greedy_triangle_packing``
#: about 3-4x / 5x faster.  Below it the bignum kernel's per-op latency
#: wins whatever the density.
SPARSE_HINT_THRESHOLD = 8192

#: From this vertex count on ``auto`` always picks the csr kernel: an
#: n-bit row per vertex costs n²/8 bytes (8.6 GB at 2^18, 125 GB at
#: 10^6), which stops being a sane default long before it stops fitting.
CSR_AUTO_THRESHOLD = 1 << 18

#: Density crossover used when ``auto`` has an ``expected_edges`` hint:
#: csr stores an edge twice at ~8 bytes a direction while a bitmask row
#: costs up to n/8 bytes, so the memory break-even is m = n² / 64.
#: Below that density (m · 64 < n²) csr wins on memory *and* its
#: merge-intersection natives win on time.
SPARSE_DENSITY_WORD_FACTOR = 64

_KERNELS: dict[str, type] = {"bigint": BigintKernel, "csr": CsrKernel}


def kernel_names() -> tuple[str, ...]:
    """The backend names plus the ``auto`` policy."""
    return tuple(_KERNELS) + ("auto",)


def _auto_backend(n: int, expected_edges: int | None) -> str:
    if n >= CSR_AUTO_THRESHOLD:
        return "csr"
    if (
        n >= SPARSE_HINT_THRESHOLD
        and expected_edges is not None
        and expected_edges * SPARSE_DENSITY_WORD_FACTOR < n * n
    ):
        return "csr"
    return "bigint"


def get_kernel(backend: str | None = None, n: int = 0,
               expected_edges: int | None = None) -> type:
    """Resolve a backend name to its kernel class.

    Resolution order: explicit ``backend`` argument, then the
    ``REPRO_GRAPH_BACKEND`` environment variable, then ``auto`` (see
    the module docstring).  Generators pass the ``expected_edges``
    hint; plain ``Graph(n)`` construction has none and stays on bigint
    below :data:`CSR_AUTO_THRESHOLD`.
    """
    requested = backend
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or "auto"
    if backend == "auto":
        backend = _auto_backend(n, expected_edges)
        # Auto-selections are the interesting ones to observe: they
        # carry the inputs the density policy decided on.
        obs_trace.event("kernel.selected", backend=backend, n=n,
                        expected_edges=expected_edges,
                        requested=requested)
    cls = _KERNELS.get(backend)
    if cls is None:
        raise ValueError(
            f"unknown graph backend {backend!r}; "
            f"known: {', '.join(kernel_names())}"
        )
    obs_metrics.inc(f"kernel.select.{backend}")
    return cls
