"""The networkx VF2 reference matcher, kept for differential testing.

Until the mask-native engine existed, ``find_copy_among`` delegated the
H-copy search to networkx's generic VF2 matcher.  That implementation
survives here as the executable specification the differential tests
pin :mod:`repro.patterns.matcher` against.  Swapped in for a module's
``find_copy_in_rows`` (e.g. with pytest's ``monkeypatch``),
:func:`find_copy_in_rows_reference` runs
:func:`repro.core.subgraph_detection.find_subgraph_simultaneous` with a
VF2 referee.

networkx is an *optional* dependency (the ``reference`` extra in
``pyproject.toml``); without it these functions raise a pointed error
rather than a bare ``ModuleNotFoundError``.

VF2 reports whichever copy its own search order reaches first — NOT the
mask matcher's canonical-first copy — so differential tests compare
found/not-found and *validate* reported copies (via
:func:`repro.patterns.matcher.is_copy_in_rows`) instead of comparing
images bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.graphs.graph import Edge
from repro.patterns.catalog import SubgraphPattern

from oracles import require_networkx

__all__ = [
    "to_networkx",
    "find_copy_among_reference",
    "find_copy_in_rows_reference",
]


def to_networkx(pattern: SubgraphPattern):
    """``pattern`` as a ``networkx.Graph``, for the VF2 matcher."""
    nx = require_networkx("oracles.patterns")
    graph = nx.Graph()
    graph.add_nodes_from(range(pattern.num_vertices))
    graph.add_edges_from(pattern.edges)
    return graph


def find_copy_among_reference(edges: Iterable[Edge],
                              pattern: SubgraphPattern
                              ) -> tuple[int, ...] | None:
    """A monomorphic copy of H in a plain edge bag via VF2, or None.

    Returns the image vertices in pattern-vertex order.  The copy is
    whichever VF2 finds first; only found/not-found is specified.
    """
    nx = require_networkx("oracles.patterns")
    from networkx.algorithms import isomorphism

    host = nx.Graph()
    host.add_edges_from(edges)
    if host.number_of_edges() < pattern.num_edges:
        return None
    matcher = isomorphism.GraphMatcher(host, to_networkx(pattern))
    for mapping in matcher.subgraph_monomorphisms_iter():
        inverse = {pattern_v: host_v for host_v, pattern_v in mapping.items()}
        return tuple(inverse[i] for i in range(pattern.num_vertices))
    return None


def find_copy_in_rows_reference(rows: Sequence[int],
                                pattern: SubgraphPattern
                                ) -> tuple[int, ...] | None:
    """Rows-interface twin of :func:`find_copy_among_reference`.

    Unpacks the adjacency masks into an edge list and runs VF2 — a
    drop-in replacement for :func:`repro.patterns.matcher.find_copy_in_rows`.
    """
    edges = []
    for u, mask in enumerate(rows):
        upper = mask >> (u + 1)
        while upper:
            low = upper & -upper
            edges.append((u, u + low.bit_length()))
            upper ^= low
    return find_copy_among_reference(edges, pattern)
