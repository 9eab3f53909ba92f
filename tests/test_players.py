"""Unit tests for the Player local-computation API (repro.comm.players)."""

import pytest

from repro.comm.players import Player, make_players
from repro.comm.randomness import SharedRandomness
from repro.graphs.generators import gnd
from repro.graphs.partition import partition_with_duplication


@pytest.fixture
def player() -> Player:
    return Player(0, 10, [(0, 1), (0, 2), (1, 2), (3, 4)])


class TestIntrospection:
    def test_edges_canonicalized(self):
        p = Player(0, 5, [(2, 1)])
        assert (1, 2) in p.edges

    def test_has_edge_symmetric(self, player):
        assert player.has_edge(1, 0)
        assert player.has_edge(0, 1)
        assert not player.has_edge(0, 3)

    def test_self_loop_false(self, player):
        assert not player.has_edge(1, 1)

    def test_local_degree(self, player):
        assert player.local_degree(0) == 2
        assert player.local_degree(9) == 0

    def test_local_neighbors(self, player):
        assert player.local_neighbors(0) == frozenset({1, 2})

    def test_average_local_degree(self, player):
        assert player.average_local_degree() == pytest.approx(8 / 10)

    def test_num_edges(self, player):
        assert player.num_edges == 4

    def test_duplicate_edges_count_once(self):
        p = Player(0, 5, [(0, 1), (1, 0), (0, 1), (3, 2)])
        assert p.num_edges == 2
        assert p.sorted_edges() == [(0, 1), (2, 3)]
        assert p.suspected_bucket(0, k=1) == {0, 1, 2, 3}


class TestMsb:
    def test_msb_of_zero_degree_is_none(self, player):
        assert player.degree_msb_index(9) is None

    def test_msb_values(self):
        p = Player(0, 20, [(0, i) for i in range(1, 6)])  # degree 5
        assert p.degree_msb_index(0) == 2  # 5 = 0b101

    def test_msb_degree_one(self, player):
        assert player.degree_msb_index(3) == 0


class TestSuspectedBucket:
    def test_uses_local_degrees(self):
        p = Player(0, 20, [(0, i) for i in range(1, 5)])  # d_0(0) = 4
        # bucket 2 = [3, 9): suspected band [3/2, 9] for k=2 -> 4 included
        assert 0 in p.suspected_bucket(2, k=2)
        # bucket 1 = [1, 3): suspected band [0.5, 3] -> 4 excluded
        assert 0 not in p.suspected_bucket(1, k=2)


class TestRankedMinima:
    def test_first_vertex_under_rank_agrees_across_players(self):
        shared_a = SharedRandomness(3)
        shared_b = SharedRandomness(3)
        rank_a = shared_a.permutation_rank(10, tag=1)
        rank_b = shared_b.permutation_rank(10, tag=1)
        p1 = Player(0, 10, [(0, 1), (2, 3)])
        p2 = Player(1, 10, [(0, 1), (2, 3)])
        assert p1.first_vertex_under_rank(
            [0, 2, 3], rank_a
        ) == p2.first_vertex_under_rank([0, 2, 3], rank_b)

    def test_first_vertex_empty_candidates(self, player):
        rank = SharedRandomness(0).permutation_rank(10)
        assert player.first_vertex_under_rank([], rank) is None

    def test_first_incident_edge(self, player):
        rank = SharedRandomness(1).permutation_rank(10)
        edge = player.first_incident_edge_under_rank(0, rank)
        assert edge in {(0, 1), (0, 2)}

    def test_first_incident_edge_isolated(self, player):
        rank = SharedRandomness(1).permutation_rank(10)
        assert player.first_incident_edge_under_rank(9, rank) is None

    def test_first_edge_under_rank(self, player):
        def rank(edge):
            return edge  # lexicographic
        assert player.first_edge_under_rank(rank) == (0, 1)

    def test_first_edge_empty_input(self):
        p = Player(0, 5, [])
        assert p.first_edge_under_rank(lambda e: e) is None


class TestHarvesting:
    def test_edges_at_vertex_in_sample(self, player):
        assert player.edges_at_vertex_in_sample(0, {1}) == {(0, 1)}
        assert player.edges_at_vertex_in_sample(0, {1, 2}) == {
            (0, 1), (0, 2)
        }

    def test_edges_within(self, player):
        assert player.edges_within({0, 1, 2}) == {(0, 1), (0, 2), (1, 2)}
        assert player.edges_within({3, 4}) == {(3, 4)}
        assert player.edges_within({5, 6}) == set()

    def test_edges_touching_both(self, player):
        # R = {0}, R u S = {0, 1}: only (0,1) qualifies.
        assert player.edges_touching_both({0}, {0, 1}) == {(0, 1)}

    def test_edges_touching_both_symmetry(self, player):
        result = player.edges_touching_both({4}, {3, 4})
        assert result == {(3, 4)}

    def test_sample_hits_vertex(self, player):
        assert player.sample_hits_vertex(0, {2})
        assert not player.sample_hits_vertex(0, {7})
        assert not player.sample_hits_vertex(9, {0, 1, 2})

    def test_any_incident_neighbor_in(self, player):
        assert player.any_incident_neighbor_in(0, lambda u: u == 2)
        assert not player.any_incident_neighbor_in(0, lambda u: u == 7)

    def test_any_edge_index_in(self, player):
        def index_of(edge):
            return edge[0] * 10 + edge[1]
        assert player.any_edge_index_in(index_of, lambda i: i == 1)
        assert not player.any_edge_index_in(index_of, lambda i: i == 99)


class TestClosing:
    def test_find_closing_edge(self, player):
        result = player.find_closing_edge([((3, 0), (3, 1))])
        # Vee at 3 over (0,1): player holds (0,1) -> closes.
        assert result is not None
        assert result[2] == (0, 1)

    def test_find_closing_edge_none(self, player):
        assert player.find_closing_edge([((5, 6), (5, 7))]) is None

    def test_non_vee_pairs_skipped(self, player):
        # Pair sharing no vertex is ignored, not crashed on.
        assert player.find_closing_edge([((0, 1), (2, 3))]) is None

    def test_find_closing_edge_for_pairs(self, player):
        result = player.find_closing_edge_for_pairs([(5, 0), (5, 1)])
        assert result is not None
        assert result[2] == (0, 1)

    def test_find_closing_edge_for_pairs_none(self, player):
        assert player.find_closing_edge_for_pairs([(5, 6), (6, 7)]) is None


class TestMakePlayers:
    def test_matches_partition(self):
        graph = gnd(50, 4.0, seed=1)
        partition = partition_with_duplication(graph, 3, seed=2)
        players = make_players(partition)
        assert len(players) == 3
        for player, view in zip(players, partition.views):
            assert player.edges == view
            assert player.n == 50


class TestPublicPredicateHarvests:
    """The array path of a ``PublicPredicate`` equals the per-item path.

    ``lambda u: pred(u)`` is a plain callable, so it takes the scalar
    loop; both must answer alike on every vertex, in range or not.
    """

    @staticmethod
    def _players():
        # n = 13 is not a multiple of 8, and vertex 12 (bit n-1) has
        # neighbours; vertex 11 has none.
        yield Player(0, 13, [(0, 12), (3, 12), (0, 1), (0, 5), (5, 7),
                             (2, 9), (1, 12)])
        yield Player(1, 13, [])
        partition = partition_with_duplication(gnd(61, 12.0, seed=4), 3,
                                               seed=1)
        yield from make_players(partition)
        # Dense enough that many rows reach the array hit test.
        partition = partition_with_duplication(gnd(125, 90.0, seed=2), 2,
                                               seed=3)
        yield from make_players(partition)

    def test_array_hit_test_is_exercised(self):
        from repro.comm.players import _ARRAY_HIT_MIN_KEYS

        degrees = [
            player.local_degree(v)
            for player in self._players() for v in range(player.n)
        ]
        assert sum(d >= _ARRAY_HIT_MIN_KEYS for d in degrees) > 100
        assert sum(0 < d < _ARRAY_HIT_MIN_KEYS for d in degrees) > 100

    @staticmethod
    def _predicates():
        for seed in (0, 3):
            shared = SharedRandomness(seed)
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                yield shared.bernoulli_predicate(p, tag=2)

    def test_neighbor_array_matches_mask(self):
        for player in self._players():
            for v in range(-2, player.n + 2):
                assert player.local_neighbor_array(v).tolist() == sorted(
                    player.local_neighbors(v)
                )

    def test_any_incident_neighbor_in(self):
        for player in self._players():
            for pred in self._predicates():
                for v in range(-2, player.n + 2):
                    assert player.any_incident_neighbor_in(v, pred) == (
                        player.any_incident_neighbor_in(
                            v, lambda u: pred(u)
                        )
                    )

    def test_capped_star(self):
        from repro.core.unrestricted import _capped_star

        for player in self._players():
            for pred in self._predicates():
                for v in range(-2, player.n + 2):
                    for cap in (1, 2, 3, 100):
                        assert _capped_star(player, v, pred, cap) == (
                            _capped_star(player, v, lambda u: pred(u), cap)
                        )

    def test_capped_star_keeps_lowest_neighbours(self):
        from repro.core.unrestricted import _capped_star

        player = Player(0, 13, [(12, 0), (12, 3), (12, 1), (12, 7)])
        always = SharedRandomness(0).bernoulli_predicate(1.0)
        assert _capped_star(player, 12, always, 2) == [(0, 12), (1, 12)]
        assert _capped_star(player, 3, always, 2) == [(3, 12)]
        assert _capped_star(player, 11, always, 2) == []
        assert _capped_star(player, 13, always, 2) == []
        assert _capped_star(player, -1, always, 2) == []


class TestBatchedHitTest:
    """``any_incident_neighbor_in_each`` answers predicate by predicate.

    The reference is the set-based ``SetPlayer`` oracle, which asks each
    predicate per neighbour; the mask-native one-predicate call must
    agree too.
    """

    PROBABILITIES = (0.0, 2.0**-60, 1 / 3, 1.0)

    @classmethod
    def _pred_lists(cls):
        shared = SharedRandomness(11)
        singles = [
            shared.bernoulli_predicate(p, tag=4) for p in cls.PROBABILITIES
        ]
        yield []
        for pred in singles:
            yield [pred]
        yield [singles[2]] * 6
        yield singles
        yield singles[::-1] * 3
        yield [shared.bernoulli_predicate(0.2, tag=5) for _ in range(6)]
        yield [shared.bernoulli_predicate(0.01, tag=6) for _ in range(40)]

    @staticmethod
    def _reference(player):
        from oracles.comm import SetPlayer

        return SetPlayer(player.player_id, player.n, player.edges)

    def _check(self, pred_lists):
        for player in TestPublicPredicateHarvests._players():
            reference = self._reference(player)
            for preds in pred_lists:
                for v in range(-2, player.n + 2):
                    expected = [
                        reference.any_incident_neighbor_in(v, pred)
                        for pred in preds
                    ]
                    assert reference.any_incident_neighbor_in_each(
                        v, preds
                    ) == expected
                    assert player.any_incident_neighbor_in_each(
                        v, preds
                    ) == expected
                    assert [
                        player.any_incident_neighbor_in(v, pred)
                        for pred in preds
                    ] == expected

    def test_public_predicates(self):
        self._check(list(self._pred_lists()))

    def test_plain_callables_fall_back(self):
        shared = SharedRandomness(12)
        pred = shared.bernoulli_predicate(1 / 3, tag=7)
        plain = [lambda u: pred(u), lambda u: u % 5 == 0]
        self._check([plain * 20, [pred] * 20 + plain[:1], plain[1:]])

    def test_both_sides_of_the_cutoff(self, monkeypatch):
        from repro.comm.players import _ARRAY_HIT_MIN_KEYS
        from repro.comm.randomness import PublicPredicate

        blocks = []
        any_pass = PublicPredicate.any_pass
        monkeypatch.setattr(
            PublicPredicate, "any_pass",
            staticmethod(lambda *args: blocks.append(1) or any_pass(*args)),
        )
        sides = {True: 0, False: 0}
        for player in TestPublicPredicateHarvests._players():
            for preds in self._pred_lists():
                for v in range(player.n):
                    keys = len(preds) * player.local_degree(v)
                    if keys:
                        keyed = keys >= _ARRAY_HIT_MIN_KEYS
                        sides[keyed] += 1
                        blocks.clear()
                        player.any_incident_neighbor_in_each(v, preds)
                        assert len(blocks) == keyed
        assert min(sides.values()) > 100
