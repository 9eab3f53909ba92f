"""The formal ``MaskKernel`` contract and the backend registry.

A *mask kernel* is the storage engine behind :class:`repro.graphs.graph.Graph`:
it owns the symmetric adjacency-bit matrix and nothing else.  ``Graph``
keeps the semantics (validation, edge counting, canonical orientation)
and delegates every bit of storage and bulk arithmetic to its kernel, so
new representations plug in without touching any caller.

Three kernels ship:

* ``bigint`` (:class:`repro.graphs.kernels.bigint.BigintKernel`) — one
  arbitrary-precision Python int per vertex, the PR 2 bitset kernel.
  Optimal up to tens of thousands of vertices, where CPython's bignum
  ``&`` is effectively memory-bound C.
* ``packed`` (:class:`repro.graphs.kernels.packed.PackedKernel`) — a
  ``numpy`` ``uint64`` matrix of shape ``(n, ceil(n/64))``.  Rows are
  word-addressable, which unlocks vectorized single-word bit probes
  (the wedge-scan triangle natives) that no flat bignum can offer, and
  opens the n=10^5 host regime.
* ``csr`` (:class:`repro.graphs.kernels.csr.CsrKernel`) — sorted numpy
  index arrays (CSR offsets + indices), O(m) memory instead of O(n²/8).
  The sparse-host kernel: at n = 10^6 a constant-degree host fits in
  tens of megabytes where the packed bitmap would need ~125 GB.

The *exchange format* between kernels, and between a kernel and every
caller, is the Python-int row mask: bit ``v`` of row ``u`` is set iff
``{u, v}`` is an edge.  Conversion both ways is lossless
(:meth:`MaskKernel.row` / :meth:`MaskKernel.from_rows`), which is what
makes pinned-seed runs byte-identical across backends.

Selection: an explicit ``Graph(n, backend=...)`` argument wins, then
the ``REPRO_GRAPH_BACKEND`` environment variable, then the ``auto``
policy.  ``auto`` is density-aware: bigint below
:data:`PACKED_AUTO_THRESHOLD` vertices, packed above it, csr when the
host is large *and* sparse — above :data:`CSR_AUTO_THRESHOLD`
unconditionally (the bitmap no longer fits), or above
:data:`PACKED_AUTO_THRESHOLD` when the caller supplies an
``expected_edges`` hint showing m < n²/64 (the memory crossover where
~8 bytes/edge of CSR beats n/8 bytes/row of bitmap).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol, runtime_checkable

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    pass

__all__ = [
    "Edge",
    "MaskKernel",
    "iter_bits",
    "mask_of",
    "get_kernel",
    "register_kernel",
    "kernel_names",
    "BACKEND_ENV_VAR",
    "PACKED_AUTO_THRESHOLD",
    "CSR_AUTO_THRESHOLD",
    "SPARSE_DENSITY_WORD_FACTOR",
]

Edge = tuple[int, int]

#: Environment variable naming the default backend (``bigint``,
#: ``packed``, or ``auto``); an explicit ``backend=`` argument wins.
BACKEND_ENV_VAR = "REPRO_GRAPH_BACKEND"

#: ``auto`` switches to the packed kernel at this vertex count.  Below
#: it the bignum kernel's per-op latency wins; above it the packed
#: kernel's vectorized natives and O(1) word probes win (measured
#: crossover of the triangle hot path is n ~ 1e4; the threshold is set
#: a notch higher so existing small-n workloads keep their exact
#: performance profile).
PACKED_AUTO_THRESHOLD = 32768

#: Above this vertex count ``auto`` always picks the csr kernel: the
#: packed bitmap costs n²/8 bytes (8.6 GB at 2^18, 125 GB at 10^6),
#: which stops being a sane default long before it stops fitting.
CSR_AUTO_THRESHOLD = 1 << 18

#: Density crossover used when ``auto`` has an ``expected_edges`` hint:
#: csr stores an edge twice at ~8 bytes a direction while packed pays
#: n/8 bytes per row, so the memory break-even is m = n² / 64.  Below
#: that density (m · 64 < n²) csr wins on memory *and* its
#: merge-intersection natives win on time, so ``auto`` picks csr for
#: hinted hosts past :data:`PACKED_AUTO_THRESHOLD`.
SPARSE_DENSITY_WORD_FACTOR = 64


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """The bitmask with exactly the bits in ``vertices`` set."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


@runtime_checkable
class MaskKernel(Protocol):
    """Formal contract of a ``Graph`` adjacency backend.

    Invariants every implementation must keep:

    * the bit matrix is **symmetric** with a zero diagonal — mutators
      update both directions atomically;
    * ``row(u)`` is the **lossless** Python-int form of row ``u`` (the
      exchange format), and ``from_rows(n, rows)`` is its exact inverse,
      so converting between any two kernels round-trips bit for bit;
    * callers (``Graph``) pre-validate vertices and masks — kernels may
      assume ``0 <= u, v < n``, ``u != v``, and masks without stray bits.

    Kernels may additionally expose *native accelerators* —
    ``count_triangles()``, ``greedy_triangle_packing()``,
    ``find_triangle()`` — that :mod:`repro.graphs.triangles` dispatches
    to when present.  Natives must return results identical to the
    generic int-row algorithms (same values, same enumeration order).
    """

    #: Registry name of the backend (``"bigint"``, ``"packed"``).
    name: str

    @property
    def n(self) -> int:
        """Number of vertices (fixed at construction)."""
        ...

    # -- mutation ------------------------------------------------------
    def set_edge(self, u: int, v: int) -> bool:
        """Set bits (u, v) and (v, u); True iff the edge was new."""
        ...

    def clear_edge(self, u: int, v: int) -> bool:
        """Clear bits (u, v) and (v, u); True iff the edge existed."""
        ...

    def merge_row(self, u: int, mask: int) -> int:
        """OR ``mask`` into row ``u`` (mirroring the new bits into the
        partner rows); returns the number of *new* edges."""
        ...

    # -- queries (int-mask exchange format) ----------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Is bit ``v`` of row ``u`` set?"""
        ...

    def row(self, u: int) -> int:
        """N(u) as a Python-int mask — the lossless exchange form."""
        ...

    def rows(self) -> list[int]:
        """Every row as a Python int, indexed by vertex.

        The bigint kernel returns its **live** row list (callers treat
        it as read-only; hot loops index it for free); other kernels
        return a converted snapshot.  Either way the values are the
        exact int forms of the current adjacency.
        """
        ...

    def row_and(self, u: int, v: int) -> int:
        """``N(u) & N(v)`` as a Python-int mask (one AND, any width)."""
        ...

    def popcount(self, u: int) -> int:
        """Degree of ``u``."""
        ...

    def popcounts(self) -> list[int]:
        """All degrees, indexed by vertex."""
        ...

    def memory_bytes(self) -> int:
        """Approximate bytes of adjacency storage this kernel holds.

        Powers :attr:`repro.graphs.graph.Graph.nbytes` and the
        instance-memory figures in ``InstanceCache.stats()`` — a
        bookkeeping estimate (payload arrays / bignum digits), not an
        exact allocator measurement.
        """
        ...

    def iter_edges(self) -> Iterator[Edge]:
        """All edges in canonical orientation, ascending (u, then v)."""
        ...

    # -- whole-kernel operations ---------------------------------------
    def copy(self) -> "MaskKernel":
        """An independent deep copy (same backend)."""
        ...

    def induced(self, vertex_mask: int) -> tuple["MaskKernel", int]:
        """(kernel of the induced subgraph on ``vertex_mask``, #edges).

        Vertex ids are preserved; rows outside the mask become zero.
        """
        ...

    def union_with(self, other: "MaskKernel") -> tuple["MaskKernel", int]:
        """(kernel of the edge union, #edges); ``other`` has the same
        ``n`` and the same backend."""
        ...

    def rows_equal(self, other: "MaskKernel") -> bool:
        """Bit-for-bit adjacency equality (same-backend fast path)."""
        ...

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "MaskKernel":
        """Build from int rows — the lossless conversion seam.

        ``rows`` must already be symmetric (it always is when it came
        from another kernel's :meth:`rows`).
        """
        ...

    @classmethod
    def from_edge_array(cls, n: int, us: "object", vs: "object"
                        ) -> "MaskKernel":
        """Bulk-build from canonical numpy edge arrays.

        ``us``/``vs`` are equal-length int64 arrays with
        ``us[i] < vs[i]``, no duplicates, vertices in range — exactly
        what :meth:`repro.graphs.graph.Graph.from_edge_arrays` produces
        after validation.  This is the vectorized-generation entry
        point: O(m) array work instead of m Python-level inserts.
        """
        ...


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type] = {}


def register_kernel(name: str, cls: type) -> None:
    """Register a kernel class under ``name`` (extension seam)."""
    _REGISTRY[name] = cls


def kernel_names() -> tuple[str, ...]:
    """Registered backend names plus the ``auto`` policy."""
    _ensure_builtin_registered()
    return tuple(sorted(_REGISTRY)) + ("auto",)


#: Built-in kernels that register themselves on module import; imported
#: lazily, on first request, so a bigint-only workload never loads them.
_LAZY_NUMPY_KERNELS = ("packed", "csr")


def _ensure_builtin_registered(name: str | None = None) -> None:
    for lazy in _LAZY_NUMPY_KERNELS:
        if name is not None and lazy != name:
            continue
        if lazy not in _REGISTRY:
            import importlib

            importlib.import_module(f"repro.graphs.kernels.{lazy}")


def _auto_backend(n: int, expected_edges: int | None) -> str:
    if n < PACKED_AUTO_THRESHOLD:
        return "bigint"
    if n >= CSR_AUTO_THRESHOLD:
        return "csr"
    if (
        expected_edges is not None
        and expected_edges * SPARSE_DENSITY_WORD_FACTOR < n * n
    ):
        return "csr"
    return "packed"


def get_kernel(backend: str | None = None, n: int = 0,
               expected_edges: int | None = None) -> type:
    """Resolve a backend name to its kernel class.

    Resolution order: explicit ``backend`` argument, then the
    ``REPRO_GRAPH_BACKEND`` environment variable, then ``auto``.  The
    ``auto`` policy is density-aware: ``bigint`` below
    :data:`PACKED_AUTO_THRESHOLD`, ``csr`` above
    :data:`CSR_AUTO_THRESHOLD` (the bitmap regime ends there) or when an
    ``expected_edges`` hint shows the host is sparse
    (m · :data:`SPARSE_DENSITY_WORD_FACTOR` < n²), ``packed``
    otherwise.  Generators pass the hint; plain ``Graph(n)``
    construction has none and keeps the historical bigint/packed split
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
    obs_metrics.inc(f"kernel.select.{backend}")
    if backend in _LAZY_NUMPY_KERNELS and backend not in _REGISTRY:
        _ensure_builtin_registered(backend)
    cls = _REGISTRY.get(backend)
    if cls is None:
        _ensure_builtin_registered()
        cls = _REGISTRY.get(backend)
    if cls is None:
        raise ValueError(
            f"unknown graph backend {backend!r}; "
            f"known: {', '.join(kernel_names())}"
        )
    return cls
