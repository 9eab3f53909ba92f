"""Tests for the H-freeness extension (repro.core.subgraph_detection)."""

import pytest

from repro.core import subgraph_detection
from repro.core.subgraph_detection import (
    FIVE_CYCLE,
    FOUR_CLIQUE,
    FOUR_CYCLE,
    TRIANGLE,
    SubgraphParams,
    SubgraphPattern,
    find_copy_among,
    find_subgraph_simultaneous,
    planted_disjoint_subgraphs,
)
from repro.graphs.generators import bipartite_triangle_free
from repro.graphs.graph import Graph
from repro.graphs.partition import partition_disjoint
from repro.patterns.matcher import is_copy_in_rows

from oracles import networkx_available
from oracles.patterns import find_copy_in_rows_reference


class TestPatterns:
    def test_builtins_consistent(self):
        assert TRIANGLE.num_edges == 3
        assert FOUR_CLIQUE.num_edges == 6
        assert FOUR_CYCLE.num_edges == 4
        assert FIVE_CYCLE.num_vertices == 5

    def test_invalid_edge_rejected(self):
        with pytest.raises(ValueError):
            SubgraphPattern("bad", 3, ((0, 3),))
        with pytest.raises(ValueError):
            SubgraphPattern("loop", 3, ((1, 1),))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            SubgraphPattern("empty", 3, ())


class TestFindCopyAmong:
    def test_finds_triangle(self):
        copy = find_copy_among([(0, 1), (1, 2), (0, 2)], TRIANGLE)
        assert copy is not None
        assert set(copy) == {0, 1, 2}

    def test_finds_c4(self):
        copy = find_copy_among([(0, 1), (1, 2), (2, 3), (0, 3)], FOUR_CYCLE)
        assert copy is not None
        assert set(copy) == {0, 1, 2, 3}

    def test_monomorphic_not_induced(self):
        # K4 contains C4 as a (non-induced) subgraph: must be found.
        k4_edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        assert find_copy_among(k4_edges, FOUR_CYCLE) is not None

    def test_none_when_absent(self):
        assert find_copy_among([(0, 1), (1, 2)], TRIANGLE) is None

    def test_too_few_edges_short_circuit(self):
        assert find_copy_among([(0, 1)], FOUR_CLIQUE) is None


class TestPlantedInstances:
    @pytest.mark.parametrize("pattern", [FOUR_CLIQUE, FOUR_CYCLE, FIVE_CYCLE])
    def test_copies_planted(self, pattern):
        instance = planted_disjoint_subgraphs(200, pattern, 10, seed=1)
        assert len(instance.planted_copies) == 10
        for image in instance.planted_copies:
            for u, v in pattern.edges:
                assert instance.graph.has_edge(image[u], image[v])

    def test_copies_vertex_disjoint(self):
        instance = planted_disjoint_subgraphs(200, FOUR_CLIQUE, 12, seed=2)
        seen: set[int] = set()
        for image in instance.planted_copies:
            assert not (set(image) & seen)
            seen.update(image)

    def test_too_many_copies_rejected(self):
        with pytest.raises(ValueError):
            planted_disjoint_subgraphs(10, FOUR_CLIQUE, 3)

    def test_certificate(self):
        instance = planted_disjoint_subgraphs(100, FOUR_CYCLE, 5, seed=3)
        assert instance.epsilon_certified == pytest.approx(5 / 20)


class TestDetection:
    @pytest.mark.parametrize("pattern", [FOUR_CLIQUE, FOUR_CYCLE, FIVE_CYCLE])
    def test_detects_planted(self, pattern):
        instance = planted_disjoint_subgraphs(
            500, pattern, 30, seed=4, background_degree=1.0
        )
        partition = partition_disjoint(instance.graph, 3, seed=5)
        params = SubgraphParams(epsilon=0.15, c=2.0, rounds=4)
        hits = sum(
            find_subgraph_simultaneous(
                partition, pattern, params, seed=seed
            ).found
            for seed in range(4)
        )
        assert hits >= 3, f"{pattern.name} detection too weak"

    def test_witness_is_real(self):
        instance = planted_disjoint_subgraphs(400, FOUR_CYCLE, 25, seed=6)
        partition = partition_disjoint(instance.graph, 3, seed=7)
        result = find_subgraph_simultaneous(
            partition, FOUR_CYCLE, SubgraphParams(epsilon=0.2, c=2.0), seed=8
        )
        if result.found:
            for u, v in result.witness_edges:
                assert instance.graph.has_edge(u, v)

    def test_one_sided_k4_on_triangle_free(self):
        # Triangle-free graphs are K4-free a fortiori.
        control = bipartite_triangle_free(400, 6.0, seed=9)
        partition = partition_disjoint(control, 3, seed=10)
        for seed in range(3):
            result = find_subgraph_simultaneous(
                partition, FOUR_CLIQUE,
                SubgraphParams(epsilon=0.2, c=2.0), seed=seed,
            )
            assert not result.found

    def test_one_sided_c4_on_tree(self):
        tree = Graph(200, [(i, i + 1) for i in range(199)])
        partition = partition_disjoint(tree, 3, seed=11)
        for seed in range(3):
            assert not find_subgraph_simultaneous(
                partition, FOUR_CYCLE,
                SubgraphParams(epsilon=0.3, c=3.0), seed=seed,
            ).found

    def test_triangle_specialization_matches_alg9_shape(self):
        # For K3 the sampling probability has the Algorithm 9 form
        # (n^2/(eps d))^{1/3} / n = (1/(eps n d))^{1/3} up to constants.
        params = SubgraphParams(epsilon=0.2, c=1.0)
        n, d = 10_000, 100.0
        p = params.sample_probability(n, d, TRIANGLE)
        expected = (2 * 3 / (0.2 * n * d)) ** (1 / 3)
        assert p == pytest.approx(expected)

    def test_cost_reported(self):
        instance = planted_disjoint_subgraphs(300, FOUR_CYCLE, 15, seed=12)
        partition = partition_disjoint(instance.graph, 3, seed=13)
        result = find_subgraph_simultaneous(
            partition, FOUR_CYCLE, SubgraphParams(epsilon=0.2), seed=14
        )
        assert result.total_bits > 0
        assert result.details["pattern"] == "C4"

    def test_params_validated(self):
        with pytest.raises(ValueError):
            SubgraphParams(epsilon=0.0)
        with pytest.raises(ValueError):
            SubgraphParams(rounds=0)


# REGRESSION-TEST BASELINE (patterns PR, rows-native subgraph referee):
# recorded when find_subgraph_simultaneous moved from the set[Edge]
# union + networkx VF2 referee to the rows union + canonical-first mask
# matcher — the last set-based union in production code.  Messages and
# charges are untouched by the referee swap, so total_bits matches what
# the VF2 referee measured; the *copy* is now the canonical-first image
# (a deterministic function of the round's union — note the identical
# copies across protocol seeds below, where VF2 reported whatever its
# search order surfaced first).
# (pattern name, protocol seed) -> (found, copy, total_bits, round).
_BASELINE_PATTERNS = {"K4": FOUR_CLIQUE, "C4": FOUR_CYCLE, "C5": FIVE_CYCLE}
ROWS_REFEREE_BASELINE = {
    ("K4", 0): (True, (5, 58, 364, 386), 27000, 0),
    ("K4", 1): (True, (5, 58, 364, 386), 26784, 0),
    ("C4", 0): (True, (5, 58, 364, 386), 21924, 0),
    ("C4", 1): (True, (5, 58, 364, 386), 20142, 0),
    ("C5", 0): (True, (5, 119, 398, 129, 386), 26568, 0),
    ("C5", 1): (True, (5, 119, 398, 129, 386), 26568, 0),
}


class TestRowsRefereeBaseline:
    @pytest.mark.parametrize("point", sorted(ROWS_REFEREE_BASELINE))
    def test_detection_results_pinned(self, point):
        name, seed = point
        pattern = _BASELINE_PATTERNS[name]
        instance = planted_disjoint_subgraphs(
            400, pattern, 20, seed=9, background_degree=2.0
        )
        partition = partition_disjoint(instance.graph, 3, seed=10)
        result = find_subgraph_simultaneous(
            partition, pattern,
            SubgraphParams(epsilon=0.2, c=2.0, rounds=3), seed=seed,
        )
        got = (
            result.found, result.copy, result.total_bits,
            result.details["winning_round"],
        )
        assert got == ROWS_REFEREE_BASELINE[point]
        # The pinned copy is a genuine monomorphism image of the actual
        # input graph (the referee can only have found real edges).
        assert is_copy_in_rows(
            instance.graph.adjacency_rows(), pattern, result.copy
        )
        for u, v in result.witness_edges:
            assert instance.graph.has_edge(u, v)


@pytest.mark.skipif(not networkx_available(),
                    reason="optional reference dep networkx missing")
class TestMatcherSeamDifferential:
    """The preserved VF2 referee, swapped in for the rows matcher."""

    @pytest.mark.parametrize("pattern", [FOUR_CLIQUE, FOUR_CYCLE, FIVE_CYCLE])
    def test_vf2_referee_agrees_on_found_and_bits(self, pattern):
        instance = planted_disjoint_subgraphs(
            300, pattern, 15, seed=12, background_degree=1.5
        )
        partition = partition_disjoint(instance.graph, 3, seed=13)
        params = SubgraphParams(epsilon=0.2, c=2.0, rounds=3)
        for seed in range(3):
            mask = find_subgraph_simultaneous(
                partition, pattern, params, seed=seed
            )
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(subgraph_detection, "find_copy_in_rows",
                              find_copy_in_rows_reference)
                vf2 = find_subgraph_simultaneous(
                    partition, pattern, params, seed=seed
                )
            # Identical messages and charges; identical verdict and
            # winning round.  Only the reported image may differ, and
            # both must be genuine.
            assert mask.found == vf2.found
            assert mask.total_bits == vf2.total_bits
            assert mask.details == vf2.details
            if mask.found:
                rows = instance.graph.adjacency_rows()
                assert is_copy_in_rows(rows, pattern, mask.copy)
                assert is_copy_in_rows(rows, pattern, vf2.copy)

    def test_vf2_referee_agrees_on_h_free_control(self):
        control = bipartite_triangle_free(300, 5.0, seed=14)
        partition = partition_disjoint(control, 3, seed=15)
        params = SubgraphParams(epsilon=0.2, c=2.0, rounds=2)
        for pattern in (FOUR_CLIQUE, FIVE_CYCLE):
            mask = find_subgraph_simultaneous(
                partition, pattern, params, seed=16
            )
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(subgraph_detection, "find_copy_in_rows",
                              find_copy_in_rows_reference)
                vf2 = find_subgraph_simultaneous(
                    partition, pattern, params, seed=16
                )
            assert not mask.found and not vf2.found
            assert mask == vf2
