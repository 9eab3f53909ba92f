"""Mask-native subgraph pattern matching.

The subsystem that closes the mask migration and opens pattern-diverse
workloads:

* :mod:`repro.patterns.catalog` — validated connected patterns with
  matcher-ready metadata (K_k, C_k, P_k, K_{1,k}, ``from_edges``);
* :mod:`repro.patterns.matcher` — the rows-native backtracking
  monomorphism engine (:func:`find_copy_in_rows` and friends), the
  pattern generalization of the triangle kernel's ascending scan;
* :mod:`repro.patterns.plant` — planted / mixed / free-by-removal
  scenario generators on the bulk row primitives.

The VF2 matcher the engine is pinned against lives with the
other test oracles under ``tests/oracles/``.
"""

from repro.patterns.catalog import (
    DEFAULT_CATALOG,
    FIVE_CYCLE,
    FOUR_CLIQUE,
    FOUR_CYCLE,
    TRIANGLE,
    SubgraphPattern,
    clique,
    cycle,
    from_edges,
    path,
    star,
)
from repro.patterns.matcher import (
    find_copy,
    find_copy_among,
    find_copy_in_rows,
    has_copy_in_rows,
    is_copy_in_rows,
)
from repro.patterns.plant import (
    MixedPatternInstance,
    PlantedSubgraphInstance,
    incidence_c4_free,
    planted_disjoint_subgraphs,
    planted_mixed_patterns,
    subgraph_free_by_removal,
)

__all__ = [
    "SubgraphPattern",
    "clique",
    "cycle",
    "path",
    "star",
    "from_edges",
    "TRIANGLE",
    "FOUR_CLIQUE",
    "FOUR_CYCLE",
    "FIVE_CYCLE",
    "DEFAULT_CATALOG",
    "find_copy",
    "find_copy_among",
    "find_copy_in_rows",
    "has_copy_in_rows",
    "is_copy_in_rows",
    "PlantedSubgraphInstance",
    "MixedPatternInstance",
    "planted_disjoint_subgraphs",
    "planted_mixed_patterns",
    "subgraph_free_by_removal",
    "incidence_c4_free",
]
