"""The historical ``set[Edge]``-union referees, kept for differential testing.

Before the rows-union referees of :mod:`repro.core.referee`, a referee
unioned the players' edge messages into a ``set[Edge]`` and searched the
union: for a triangle in hash iteration order, or for a copy of H with
networkx's VF2 matcher.  Both survive here as executable specifications.
The copy or triangle they report may differ from the rows referees'
canonical-first one, but found/not-found must agree on every message
batch (``tests/test_referee.py``); ``benchmarks/bench_patterns.py``
times the VF2 referee against the mask matcher.
"""

from __future__ import annotations

from typing import Iterable

from repro.graphs.graph import Edge
from repro.graphs.triangles import Triangle, find_triangle_among
from repro.patterns.catalog import SubgraphPattern

from oracles.patterns import find_copy_among_reference

__all__ = ["set_union_triangle_referee", "set_union_subgraph_referee"]


def _union(messages: Iterable[Iterable[Edge]]) -> set[Edge]:
    union: set[Edge] = set()
    for message in messages:
        union.update(message)
    return union


def set_union_triangle_referee(messages: Iterable[Iterable[Edge]]
                               ) -> Triangle | None:
    """The pre-rows referee: ``set[Edge]`` union, hash-order search."""
    return find_triangle_among(_union(messages))


def set_union_subgraph_referee(messages: Iterable[Iterable[Edge]],
                               pattern: SubgraphPattern
                               ) -> tuple[int, ...] | None:
    """The historical H referee: ``set[Edge]`` union + networkx VF2."""
    return find_copy_among_reference(_union(messages), pattern)
