"""Referee-side message unions.

Every simultaneous tester ends the same way: the referee unions the
players' messages and searches the union for a triangle (or a copy of
H).  A message is the sender's sorted canonical edge-key array
(``u * n + v`` with ``u < v``, the players' harvest form), so the union
is one sort of the concatenated keys.

The triangle referee, :func:`key_union_triangle_referee`, searches that
sorted key union directly and builds no per-vertex rows
(:func:`~repro.graphs.graph.closed_wedges`).  Each key
(a, b) pairs with the later keys (a, c) that share its lower endpoint;
the wedge (a, b, c) closes iff the key of (b, c) is in the union, one
``searchsorted``.  Wedges are generated in (a, b, c) order, so the
first closed wedge is the lexicographically smallest sorted triangle —
exactly what :func:`~repro.graphs.triangles.find_triangle_in_rows`
reports on the union's rows (any earlier base edge with a common
neighbour would give a smaller triple).  The answer is a deterministic
function of the union itself, independent of message order, hashing,
or Python version.  At most :data:`WEDGE_BUDGET` wedges are held at
once, and the walk stops at the first chunk with a closed wedge.

The wedge walk costs one array slot per wedge, where the bitmask scan
is word-parallel: a dense triangle-free union (K_{t,t}, say) has cubic
wedges in n and would be cheaper as rows.  No Table 1 or benchmark
union is of that kind; their unions are sparse samples.

The H-freeness generalization, :func:`rows_union_subgraph_referee`,
builds rows from the deduplicated key union
(:func:`~repro.graphs.graph.or_edges_into_rows`, the one row
builder) and runs the mask-native monomorphism engine
(:func:`repro.patterns.matcher.find_copy_in_rows`).

The historical ``set[Edge]``-union referees live with the other
set-based oracles under ``tests/oracles/``; the differential tests prove
both kinds accept/reject identically on hypothesis-generated message
batches (they must: a triangle or copy exists in the union or it does
not, regardless of which one a referee reports first).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graphs.graph import closed_wedges, or_edges_into_rows, unique_keys
from repro.graphs.triangles import Triangle
from repro.obs import trace as obs_trace
from repro.patterns.catalog import SubgraphPattern
from repro.patterns.matcher import find_copy_in_rows

__all__ = [
    "WEDGE_BUDGET",
    "union_rows",
    "key_union_triangle_referee",
    "rows_union_subgraph_referee",
]

#: Most wedges the triangle referee materializes at once (a handful of
#: int64 arrays of this length, about 3 MiB in all).  Every Table 1
#: union fits in one chunk: the largest, X-1's whole n = 4800 graph
#: (quick and ``--full`` alike), has 27,738 wedges.
WEDGE_BUDGET = 1 << 16

_NO_KEYS = np.empty(0, dtype=np.int64)


def _union_keys(messages: Iterable[np.ndarray]) -> np.ndarray:
    """Sorted distinct keys of all messages."""
    return unique_keys(np.concatenate((_NO_KEYS, *messages)))


def union_rows(messages: Iterable[np.ndarray], n: int) -> list[int]:
    """Per-vertex adjacency masks of the key messages' union."""
    keys = _union_keys(messages)
    rows = [0] * n
    or_edges_into_rows(rows, keys // n, keys % n)
    return rows


def _first_closed_wedge(keys: np.ndarray, n: int) -> Triangle | None:
    """Lexicographically first triangle of sorted distinct edge keys."""
    for ab, ac, _ in closed_wedges(keys, n, WEDGE_BUDGET):
        if ab.size:
            a, b = divmod(int(keys[ab[0]]), n)
            return (a, b, int(keys[ac[0]]) % n)
    return None


def key_union_triangle_referee(messages: Iterable[np.ndarray],
                               n: int) -> Triangle | None:
    """The triangle referee: key union, first ascending triangle."""
    with obs_trace.span("referee"):
        return _first_closed_wedge(_union_keys(messages), n)


def rows_union_subgraph_referee(
    messages: Iterable[np.ndarray], n: int, pattern: SubgraphPattern,
) -> tuple[int, ...] | None:
    """The mask-native H referee: union as rows, canonical-first copy."""
    with obs_trace.span("referee"):
        return find_copy_in_rows(union_rows(messages, n), pattern)
