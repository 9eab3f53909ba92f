"""Tests for repro.patterns: catalog, mask matcher, planting, reference.

The differential suites pin the rows-native monomorphism engine against
networkx's VF2 matcher (the preserved reference) over random patterns
and hosts: found/not-found must agree everywhere, and every copy the
mask engine reports must be a certified monomorphism image.  VF2's own
copies are validated too, but never compared image-for-image — only the
mask engine promises canonical-first output.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import gnd
from repro.graphs.graph import Graph
from repro.patterns import (
    DEFAULT_CATALOG,
    FIVE_CYCLE,
    FOUR_CLIQUE,
    FOUR_CYCLE,
    TRIANGLE,
    SubgraphPattern,
    clique,
    cycle,
    find_copy,
    find_copy_among,
    find_copy_in_rows,
    from_edges,
    incidence_c4_free,
    is_copy_in_rows,
    path,
    planted_disjoint_subgraphs,
    planted_mixed_patterns,
    star,
    subgraph_free_by_removal,
)

from oracles import networkx_available
from oracles.patterns import (
    find_copy_among_reference,
    find_copy_in_rows_reference,
)

needs_networkx = pytest.mark.skipif(
    not networkx_available(), reason="optional reference dep networkx missing"
)


def rows_of(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_constructors_shapes(self):
        assert clique(4).num_edges == 6
        assert cycle(5).num_edges == 5
        assert path(4).num_edges == 3
        assert star(3).num_edges == 3
        assert star(3).num_vertices == 4
        assert from_edges("vee", [(0, 1), (1, 2)]).num_vertices == 3

    def test_builtin_names(self):
        assert TRIANGLE.name == "K3"
        assert FOUR_CLIQUE.name == "K4"
        assert FOUR_CYCLE.name == "C4"
        assert FIVE_CYCLE.name == "C5"

    def test_automorphism_counts(self):
        # Known orders: Aut(K_h) = h!, Aut(C_h) = 2h (dihedral),
        # Aut(P_h) = 2, Aut(K_{1,k}) = k!.
        assert TRIANGLE.automorphism_count == 6
        assert FOUR_CLIQUE.automorphism_count == 24
        assert FOUR_CYCLE.automorphism_count == 8
        assert FIVE_CYCLE.automorphism_count == 10
        assert path(4).automorphism_count == 2
        assert star(3).automorphism_count == 6

    def test_density(self):
        assert FOUR_CLIQUE.density == 1.0
        assert FOUR_CYCLE.density == pytest.approx(4 / 6)
        assert path(5).density == pytest.approx(4 / 10)

    def test_edges_canonicalized_and_sorted(self):
        scrambled = SubgraphPattern("K3", 3, ((2, 1), (1, 0), (2, 0)))
        assert scrambled == TRIANGLE
        assert scrambled.edges == ((0, 1), (0, 2), (1, 2))

    def test_invalid_edge_rejected(self):
        with pytest.raises(ValueError):
            SubgraphPattern("bad", 3, ((0, 3),))
        with pytest.raises(ValueError):
            SubgraphPattern("loop", 3, ((1, 1),))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            SubgraphPattern("empty", 3, ())

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            SubgraphPattern("dup", 2, ((0, 1), (1, 0)))

    def test_disconnected_rejected(self):
        # Two disjoint edges: one removal wounds a copy without killing a
        # connected piece — the counting argument the tester relies on
        # breaks, so construction must refuse.
        with pytest.raises(ValueError, match="disconnected"):
            SubgraphPattern("2K2", 4, ((0, 1), (2, 3)))

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            SubgraphPattern("iso", 3, ((0, 1),))

    def test_constructor_bounds(self):
        with pytest.raises(ValueError):
            clique(1)
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            path(1)
        with pytest.raises(ValueError):
            star(0)
        with pytest.raises(ValueError):
            from_edges("none", [])

    def test_matching_order_connectivity_respecting(self):
        for pattern in DEFAULT_CATALOG + (clique(5), path(6), star(5)):
            order = pattern.matching_order
            assert sorted(order) == list(range(pattern.num_vertices))
            placed = {order[0]}
            for v in order[1:]:
                assert any(
                    pattern.rows[v] >> u & 1 for u in placed
                ), f"{pattern.name}: {v} placed with no earlier neighbour"
                placed.add(v)

    def test_rows_symmetric(self):
        for pattern in DEFAULT_CATALOG:
            for u, v in pattern.edges:
                assert pattern.rows[u] >> v & 1
                assert pattern.rows[v] >> u & 1

    def test_pattern_picklable_with_cached_metadata(self):
        pattern = cycle(5)
        _ = pattern.rows, pattern.matching_order, pattern.automorphism_count
        clone = pickle.loads(pickle.dumps(pattern))
        assert clone == pattern
        assert clone.matching_order == pattern.matching_order


# ----------------------------------------------------------------------
# Matcher
# ----------------------------------------------------------------------
class TestMatcher:
    def test_finds_triangle(self):
        copy = find_copy_among([(0, 1), (1, 2), (0, 2)], TRIANGLE)
        assert copy is not None
        assert set(copy) == {0, 1, 2}

    def test_monomorphic_not_induced(self):
        # K4 contains C4 as a (non-induced) subgraph: must be found.
        k4_edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        assert find_copy_among(k4_edges, FOUR_CYCLE) is not None

    def test_none_when_absent(self):
        assert find_copy_among([(0, 1), (1, 2)], TRIANGLE) is None

    def test_pattern_larger_than_host(self):
        host = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert find_copy(host, FOUR_CLIQUE) is None
        assert find_copy_in_rows([3, 3], TRIANGLE) is None

    def test_empty_host(self):
        assert find_copy_in_rows([], TRIANGLE) is None
        assert find_copy_in_rows([0] * 8, TRIANGLE) is None

    def test_single_edge_pattern(self):
        p2 = path(2)
        assert find_copy_among([(2, 3), (0, 5)], p2) == (0, 5)
        assert find_copy_among([(7, 4)], p2) == (4, 7)
        assert find_copy_among([], p2, n=4) is None

    def test_canonical_first_k4_copy(self):
        # Two K4s; the canonical-first copy is the ascending one on the
        # lower vertex block regardless of insertion order.
        blocks = [(10, 11, 12, 13), (1, 3, 5, 7)]
        edges = [
            (block[a], block[b])
            for block in blocks
            for a in range(4)
            for b in range(a + 1, 4)
        ]
        for shuffle_seed in range(3):
            shuffled = edges[:]
            random.Random(shuffle_seed).shuffle(shuffled)
            assert find_copy_among(shuffled, FOUR_CLIQUE, n=14) == (1, 3, 5, 7)

    def test_canonical_first_c4_copy_deterministic(self):
        # C4 has 8 automorphisms; the engine must still report one fixed
        # image, a pure function of the edge set.
        host = Graph(8, [(1, 2), (2, 6), (6, 4), (4, 1), (0, 7)])
        expected = find_copy(host, FOUR_CYCLE)
        assert expected is not None
        assert is_copy_in_rows(host.adjacency_rows(), FOUR_CYCLE, expected)
        for _ in range(5):
            assert find_copy(host, FOUR_CYCLE) == expected
        rebuilt = Graph(8, list(reversed(sorted(host.edges()))))
        assert find_copy(rebuilt, FOUR_CYCLE) == expected

    def test_star_needs_degree(self):
        # K_{1,3} needs a degree-3 centre; a path has none.
        path_edges = [(i, i + 1) for i in range(5)]
        assert find_copy_among(path_edges, star(3)) is None
        assert find_copy_among(path_edges + [(1, 4)], star(3)) is not None

    def test_path_contains_no_cycles(self):
        path_edges = [(i, i + 1) for i in range(10)]
        for pattern in (TRIANGLE, FOUR_CYCLE, FIVE_CYCLE):
            assert find_copy_among(path_edges, pattern) is None

    def test_image_is_in_pattern_vertex_order(self):
        # P3 = 0-1-2: image[1] must be the middle vertex.
        copy = find_copy_among([(4, 9), (9, 6)], path(3))
        assert copy is not None
        assert copy[1] == 9

    def test_find_copy_among_duplicates_collapse(self):
        edges = [(0, 1), (1, 0), (1, 2), (0, 2), (2, 1)]
        assert find_copy_among(edges, TRIANGLE) == (0, 1, 2)

    def test_is_copy_in_rows_validator(self):
        rows = rows_of(4, [(0, 1), (1, 2), (0, 2)])
        assert is_copy_in_rows(rows, TRIANGLE, (0, 1, 2))
        assert not is_copy_in_rows(rows, TRIANGLE, (0, 1, 1))   # not injective
        assert not is_copy_in_rows(rows, TRIANGLE, (0, 1, 3))   # missing edge
        assert not is_copy_in_rows(rows, TRIANGLE, (0, 1))      # wrong arity
        assert not is_copy_in_rows(rows, TRIANGLE, (0, 1, 9))   # out of range


# ----------------------------------------------------------------------
# Differential vs networkx VF2 (the preserved reference)
# ----------------------------------------------------------------------
def connected_patterns() -> st.SearchStrategy[SubgraphPattern]:
    """Random connected H on 2..5 vertices: spanning tree + extras."""

    @st.composite
    def build(draw) -> SubgraphPattern:
        h = draw(st.integers(min_value=2, max_value=5))
        tree = [
            (draw(st.integers(min_value=0, max_value=v - 1)), v)
            for v in range(1, h)
        ]
        pool = [
            (u, v)
            for u in range(h)
            for v in range(u + 1, h)
            if (u, v) not in tree
        ]
        extras = draw(st.lists(st.sampled_from(pool), unique=True)
                      ) if pool else []
        return from_edges("H", tree + extras, num_vertices=h)

    return build()


def host_edge_sets() -> st.SearchStrategy[tuple[int, list]]:
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=13))
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pool), unique=True))
        return n, edges

    return build()


@needs_networkx
class TestDifferentialVsVF2:
    @given(host_edge_sets(), st.sampled_from(DEFAULT_CATALOG))
    @settings(max_examples=120, deadline=None)
    def test_catalog_patterns_agree(self, host, pattern):
        n, edges = host
        mask = find_copy_among(edges, pattern, n=n)
        reference = find_copy_among_reference(edges, pattern)
        assert (mask is None) == (reference is None)
        if mask is not None:
            rows = rows_of(n, edges)
            assert is_copy_in_rows(rows, pattern, mask)
            assert is_copy_in_rows(rows, pattern, reference)

    @given(host_edge_sets(), connected_patterns())
    @settings(max_examples=120, deadline=None)
    def test_random_patterns_agree(self, host, pattern):
        n, edges = host
        mask = find_copy_among(edges, pattern, n=n)
        reference = find_copy_among_reference(edges, pattern)
        assert (mask is None) == (reference is None)
        if mask is not None:
            assert is_copy_in_rows(rows_of(n, edges), pattern, mask)

    @given(host_edge_sets(), st.sampled_from(DEFAULT_CATALOG))
    @settings(max_examples=60, deadline=None)
    def test_rows_reference_seam_agrees(self, host, pattern):
        n, edges = host
        rows = rows_of(n, edges)
        mask = find_copy_in_rows(rows, pattern)
        seam = find_copy_in_rows_reference(rows, pattern)
        assert (mask is None) == (seam is None)


# ----------------------------------------------------------------------
# Planting
# ----------------------------------------------------------------------
def reference_planted(n, pattern, copies, seed, background_degree):
    """The historical per-edge construction, kept as the byte-identity
    reference for the bulk-row rewrite."""
    rng = random.Random(seed)
    vertices = list(range(n))
    rng.shuffle(vertices)
    graph = (
        gnd(n, background_degree, seed=seed + 1)
        if background_degree > 0
        else Graph(n)
    )
    h = pattern.num_vertices
    planted = []
    for index in range(copies):
        image = tuple(vertices[index * h: (index + 1) * h])
        for u, v in pattern.edges:
            graph.add_edge(image[u], image[v])
        planted.append(image)
    return graph, tuple(planted)


class TestPlanting:
    @pytest.mark.parametrize("pattern", [FOUR_CLIQUE, FOUR_CYCLE, star(3)])
    @pytest.mark.parametrize("background", [0.0, 2.0])
    def test_bulk_rows_byte_identical_to_per_edge(self, pattern, background):
        for seed in (0, 3, 11):
            instance = planted_disjoint_subgraphs(
                120, pattern, 8, seed=seed, background_degree=background
            )
            expected_graph, expected_planted = reference_planted(
                120, pattern, 8, seed, background
            )
            assert instance.planted_copies == expected_planted
            assert instance.graph == expected_graph
            assert instance.graph.adjacency_rows() == \
                expected_graph.adjacency_rows()
            assert instance.graph.num_edges == expected_graph.num_edges

    def test_copies_planted_and_disjoint(self):
        instance = planted_disjoint_subgraphs(200, FIVE_CYCLE, 12, seed=2)
        seen: set[int] = set()
        for image in instance.planted_copies:
            assert not (set(image) & seen)
            seen.update(image)
            for u, v in FIVE_CYCLE.edges:
                assert instance.graph.has_edge(image[u], image[v])

    def test_too_many_copies_rejected(self):
        with pytest.raises(ValueError):
            planted_disjoint_subgraphs(10, FOUR_CLIQUE, 3)

    def test_certificate(self):
        instance = planted_disjoint_subgraphs(100, FOUR_CYCLE, 5, seed=3)
        assert instance.epsilon_certified == pytest.approx(5 / 20)

    def test_mixed_patterns_disjoint_blocks(self):
        mixed = planted_mixed_patterns(
            300, [(FOUR_CLIQUE, 5), (FIVE_CYCLE, 6), (star(3), 4)], seed=4
        )
        seen: set[int] = set()
        for pattern, images in mixed.placements:
            assert len(images) == {"K4": 5, "C5": 6, "K1,3": 4}[pattern.name]
            for image in images:
                assert not (set(image) & seen)
                seen.update(image)
                for u, v in pattern.edges:
                    assert mixed.graph.has_edge(image[u], image[v])

    def test_mixed_patterns_accessors(self):
        mixed = planted_mixed_patterns(
            200, [(FOUR_CYCLE, 5), (TRIANGLE, 7)], seed=5
        )
        assert len(mixed.copies_of(FOUR_CYCLE)) == 5
        assert mixed.copies_of(FIVE_CYCLE) == ()
        assert mixed.epsilon_certified(TRIANGLE) == pytest.approx(
            7 / mixed.graph.num_edges
        )

    def test_mixed_patterns_overflow_rejected(self):
        with pytest.raises(ValueError):
            planted_mixed_patterns(20, [(FOUR_CLIQUE, 3), (FIVE_CYCLE, 2)])

    def test_removal_exactly_kills_disjoint_copies(self):
        # Vertex-disjoint copies, no background: one deletion per copy.
        instance = planted_disjoint_subgraphs(80, FOUR_CYCLE, 7, seed=6)
        free, removed = subgraph_free_by_removal(
            instance.graph, FOUR_CYCLE
        )
        assert removed == 7
        assert find_copy(free, FOUR_CYCLE) is None
        # The original graph is untouched.
        assert find_copy(instance.graph, FOUR_CYCLE) is not None

    def test_removal_sandwiches_distance(self):
        instance = planted_disjoint_subgraphs(
            90, TRIANGLE, 9, seed=7, background_degree=2.0
        )
        free, removed = subgraph_free_by_removal(instance.graph, TRIANGLE)
        assert removed >= 9  # >= the certified lower bound
        assert find_copy(free, TRIANGLE) is None

    def test_removal_deterministic(self):
        graph = gnd(60, 4.0, seed=8)
        first = subgraph_free_by_removal(graph, TRIANGLE)
        second = subgraph_free_by_removal(graph, TRIANGLE)
        assert first[1] == second[1]
        assert first[0] == second[0]


class TestIncidenceC4Free:
    def test_structure(self):
        q = 3
        graph = incidence_c4_free(q)
        count = q * q + q + 1
        assert graph.n == 2 * count
        assert all(graph.degree(v) == q + 1 for v in range(graph.n))
        assert graph.num_edges == count * (q + 1)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_c4_free(self, q):
        graph = incidence_c4_free(q)
        assert find_copy(graph, FOUR_CYCLE) is None
        # Bipartite and girth 6: no triangles either, but C6 exists.
        assert find_copy(graph, TRIANGLE) is None
        assert find_copy(graph, cycle(6)) is not None

    @needs_networkx
    def test_c4_free_confirmed_by_reference(self):
        graph = incidence_c4_free(3)
        assert find_copy_among_reference(
            sorted(graph.edges()), FOUR_CYCLE
        ) is None

    def test_non_prime_rejected(self):
        for bad in (1, 4, 6, 9):
            with pytest.raises(ValueError):
                incidence_c4_free(bad)
