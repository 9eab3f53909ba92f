"""Referee-side message unions on the mask kernel.

Every simultaneous tester ends the same way: the referee unions the
players' edge messages and searches the union for a triangle.  That
union was once a ``set[Edge]`` kept purely so the *iteration order* —
and therefore which of several triangles got reported — matched the
recorded baselines.  The rows-union referee here replaces it: messages
are folded into per-vertex adjacency masks (one ``|`` of a bit per edge)
and :func:`~repro.graphs.triangles.find_triangle_in_rows` scans them in
ascending order, so the reported triangle is a deterministic function of
the union itself, independent of message order, hashing, or Python
version.  The recorded ``DetectionResult`` baselines were re-pinned to
this order (see ``tests/test_protocol_engine.py``).

The H-freeness generalization is the same fold:
:func:`rows_union_subgraph_referee` unions messages into rows and runs
the mask-native monomorphism engine
(:func:`repro.patterns.matcher.find_copy_in_rows`).

The historical ``set[Edge]``-union referees live with the other
set-based oracles under ``tests/oracles/``; the differential tests prove
both kinds accept/reject identically on hypothesis-generated message
batches (they must: a triangle or copy exists in the union or it does
not, regardless of which one a referee reports first).
"""

from __future__ import annotations

from typing import Iterable

from repro.graphs.graph import Edge
from repro.graphs.triangles import Triangle, find_triangle_in_rows
from repro.obs import trace as obs_trace
from repro.patterns.catalog import SubgraphPattern
from repro.patterns.matcher import find_copy_in_rows

__all__ = [
    "union_rows",
    "rows_union_triangle_referee",
    "rows_union_subgraph_referee",
]


def union_rows(messages: Iterable[Iterable[Edge]], n: int) -> list[int]:
    """Fold edge messages into per-vertex adjacency masks."""
    rows = [0] * n
    for message in messages:
        for u, v in message:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


def rows_union_triangle_referee(messages: Iterable[Iterable[Edge]],
                                n: int) -> Triangle | None:
    """The mask-native referee: union as rows, first ascending triangle."""
    with obs_trace.span("referee"):
        return find_triangle_in_rows(union_rows(messages, n))


def rows_union_subgraph_referee(
    messages: Iterable[Iterable[Edge]], n: int, pattern: SubgraphPattern,
) -> tuple[int, ...] | None:
    """The mask-native H referee: union as rows, canonical-first copy."""
    with obs_trace.span("referee"):
        return find_copy_in_rows(union_rows(messages, n), pattern)
