"""The bignum mask kernel: one arbitrary-precision int per vertex.

The default :class:`~repro.graphs.kernels.base.MaskKernel`: bit ``v``
of ``rows()[u]`` is set iff the edge ``{u, v}`` exists.  CPython
executes ``&``/``|``/``bit_count`` over 30-bit digits word-at-a-time in
C, so a common-neighbourhood probe is a single allocation-plus-scan —
effectively memory-bound — which keeps this kernel optimal up to tens
of thousands of vertices and makes it the executable specification the
csr kernel is differential-pinned against.

Because the int rows *are* the exchange format, ``rows()`` returns the
live list (no conversion) and ``from_rows`` just materialises the list —
both directions of the conversion seam are free here.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator

from repro.graphs.kernels.base import Edge, iter_bits

__all__ = ["BigintKernel"]


class BigintKernel:
    """List-of-bignums adjacency storage (see module docstring)."""

    name = "bigint"

    __slots__ = ("_n", "_rows")

    def __init__(self, n: int) -> None:
        self._n = n
        self._rows: list[int] = [0] * n

    @property
    def n(self) -> int:
        return self._n

    # -- mutation ------------------------------------------------------
    def set_edge(self, u: int, v: int) -> bool:
        rows = self._rows
        if rows[u] >> v & 1:
            return False
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return True

    def clear_edge(self, u: int, v: int) -> bool:
        rows = self._rows
        if not rows[u] >> v & 1:
            return False
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return True

    def merge_row(self, u: int, mask: int) -> int:
        rows = self._rows
        new = mask & ~rows[u]
        if not new:
            return 0
        rows[u] |= new
        bit_u = 1 << u
        for v in iter_bits(new):
            rows[v] |= bit_u
        return new.bit_count()

    # -- queries -------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def row(self, u: int) -> int:
        return self._rows[u]

    def rows(self) -> list[int]:
        # The live list — hot loops index it for free; treat as READ-ONLY.
        return self._rows

    def row_and(self, u: int, v: int) -> int:
        return self._rows[u] & self._rows[v]

    def popcount(self, u: int) -> int:
        return self._rows[u].bit_count()

    def popcounts(self) -> list[int]:
        return [row.bit_count() for row in self._rows]

    def memory_bytes(self) -> int:
        return sum(sys.getsizeof(row) for row in self._rows)

    def iter_edges(self) -> Iterator[Edge]:
        for u, mask in enumerate(self._rows):
            upper = mask >> (u + 1)
            while upper:
                low = upper & -upper
                yield (u, u + low.bit_length())
                upper ^= low

    # -- whole-kernel operations ---------------------------------------
    def copy(self) -> "BigintKernel":
        clone = BigintKernel.__new__(BigintKernel)
        clone._n = self._n
        clone._rows = self._rows.copy()
        return clone

    def induced(self, vertex_mask: int) -> tuple["BigintKernel", int]:
        clone = BigintKernel(self._n)
        rows = self._rows
        out = clone._rows
        total_degree = 0
        for u in iter_bits(vertex_mask):
            row = rows[u] & vertex_mask
            out[u] = row
            total_degree += row.bit_count()
        return clone, total_degree // 2

    def union_with(self, other: "BigintKernel") -> tuple["BigintKernel", int]:
        merged = BigintKernel(self._n)
        out = merged._rows
        other_rows = other._rows
        total_degree = 0
        for u, row in enumerate(self._rows):
            row |= other_rows[u]
            out[u] = row
            total_degree += row.bit_count()
        return merged, total_degree // 2

    def rows_equal(self, other: "BigintKernel") -> bool:
        return self._rows == other._rows

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "BigintKernel":
        kernel = cls(n)
        kernel._rows[:] = rows
        if len(kernel._rows) != n:
            raise ValueError(
                f"expected {n} rows, got {len(kernel._rows)}"
            )
        return kernel

    @classmethod
    def from_edge_array(cls, n: int, us, vs) -> "BigintKernel":
        """Bulk-build from canonical numpy edge arrays.

        Edges group by endpoint after one lexsort; each vertex's row
        is assembled once in a byte buffer (O(max_neighbour/8)) rather
        than through per-edge bignum reallocation.  numpy is imported
        here, not module-wide: this entry point is only reachable from
        the vectorized generation plane, which already requires it.
        """
        import numpy as np

        kernel = cls(n)
        if len(us) == 0:
            return kernel
        src = np.concatenate([us, vs])
        dst = np.concatenate([vs, us])
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        boundaries = np.nonzero(np.diff(src))[0] + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [src.size]))
        rows = kernel._rows
        for a, b in zip(starts.tolist(), stops.tolist()):
            neighbours = dst[a:b]
            buf = np.zeros((int(neighbours[-1]) >> 3) + 1, dtype=np.uint8)
            np.bitwise_or.at(
                buf,
                neighbours >> 3,
                np.uint8(1) << (neighbours & 7).astype(np.uint8),
            )
            rows[int(src[a])] = int.from_bytes(buf.tobytes(), "little")
        return kernel
