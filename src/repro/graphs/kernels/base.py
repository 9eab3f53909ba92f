"""The formal ``MaskKernel`` contract and the bit-mask helpers.

A *mask kernel* is the storage engine behind :class:`repro.graphs.graph.Graph`:
it owns the symmetric adjacency-bit matrix and nothing else.  ``Graph``
keeps the semantics (validation, edge counting, canonical orientation)
and delegates every bit of storage and bulk arithmetic to its kernel.

One kernel ships, ``bigint``
(:class:`repro.graphs.kernels.bigint.BigintKernel`): one
arbitrary-precision Python int per vertex, where CPython's bignum ``&``
is effectively memory-bound C.  Its n²/8 bytes of rows are why large
hosts stay keys-first and never build it (see :mod:`repro.graphs.graph`).

The *exchange format* between the kernel and every caller is the
Python-int row mask: bit ``v`` of row ``u`` is set iff ``{u, v}`` is
an edge.  Conversion both ways is lossless (:meth:`MaskKernel.row` /
:meth:`MaskKernel.from_rows`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol, runtime_checkable

__all__ = ["Edge", "MaskKernel", "iter_bits", "mask_of"]

Edge = tuple[int, int]


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
    """Formal contract of a ``Graph`` adjacency kernel.

    Invariants every implementation must keep:

    * the bit matrix is **symmetric** with a zero diagonal — mutators
      update both directions atomically;
    * ``row(u)`` is the **lossless** Python-int form of row ``u`` (the
      exchange format), and ``from_rows(n, rows)`` is its exact inverse;
    * callers (``Graph``) pre-validate vertices and masks — kernels may
      assume ``0 <= u, v < n``, ``u != v``, and masks without stray bits.
    """

    #: Kernel name (``"bigint"``).
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

    def merge_edge_array(self, us: "object", vs: "object") -> None:
        """OR canonical numpy edge arrays in.

        ``us``/``vs`` follow the :meth:`from_edge_array` contract and
        hold only edges not yet present, as
        :meth:`repro.graphs.graph.Graph.add_edge_arrays` passes them.
        """
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
        it as read-only; hot loops index it for free).
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

        Powers :attr:`repro.graphs.graph.Graph.nbytes` once the graph
        has built its kernel, and so the instance-memory figures in
        ``InstanceCache.stats()`` — a bookkeeping estimate (payload
        arrays / bignum digits), not an exact allocator measurement.
        """
        ...

    def iter_edges(self) -> Iterator[Edge]:
        """All edges in canonical orientation, ascending (u, then v)."""
        ...

    # -- whole-kernel operations ---------------------------------------
    def copy(self) -> "MaskKernel":
        """An independent deep copy."""
        ...

    def induced(self, vertex_mask: int) -> tuple["MaskKernel", int]:
        """(kernel of the induced subgraph on ``vertex_mask``, #edges).

        Vertex ids are preserved; rows outside the mask become zero.
        """
        ...

    def union_with(self, other: "MaskKernel") -> tuple["MaskKernel", int]:
        """(kernel of the edge union, #edges); ``other`` has the same
        ``n`` and the same kernel type."""
        ...

    def rows_equal(self, other: "MaskKernel") -> bool:
        """Bit-for-bit adjacency equality."""
        ...

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "MaskKernel":
        """Build from int rows — the lossless conversion seam.

        ``rows`` must already be symmetric (it always is when it came
        from a kernel's :meth:`rows`).
        """
        ...

    @classmethod
    def from_edge_array(cls, n: int, us: "object", vs: "object"
                        ) -> "MaskKernel":
        """Bulk-build from canonical numpy edge arrays.

        ``us``/``vs`` are equal-length int64 arrays with
        ``us[i] < vs[i]``, no duplicates, vertices in range — the
        validated keys of a graph from
        :meth:`repro.graphs.graph.Graph.from_edge_arrays`, split into
        endpoints.  It runs when such a graph's kernel is first read,
        not when the graph is generated (graphs that are only
        partitioned never call it): O(m) array work instead of m
        Python-level inserts.
        """
        ...
