"""Unit tests for shared public randomness (repro.comm.randomness)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.randomness import (
    PublicPredicate,
    SharedRandomness,
    counter_key,
    counter_key_grid,
    counter_keys,
)
from repro.graphs.generators import _WordStream

from oracles.comm import ScalarSharedRandomness


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = SharedRandomness(42)
        b = SharedRandomness(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seed_differs(self):
        a = SharedRandomness(1)
        b = SharedRandomness(2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_is_deterministic(self):
        a = SharedRandomness(7).fork(3)
        b = SharedRandomness(7).fork(3)
        assert a.random() == b.random()

    def test_fork_tags_independent(self):
        base = SharedRandomness(7)
        assert base.fork(1).random() != base.fork(2).random()


class TestPermutationRank:
    def test_all_parties_agree(self):
        a = SharedRandomness(5)
        b = SharedRandomness(5)
        rank_a = a.permutation_rank(100, tag=1)
        rank_b = b.permutation_rank(100, tag=1)
        for item in range(100):
            assert rank_a(item) == rank_b(item)

    def test_ranks_distinct(self):
        rank = SharedRandomness(5).permutation_rank(50)
        values = [rank(i) for i in range(50)]
        assert len(set(values)) == 50

    def test_min_is_roughly_uniform(self):
        # The item with minimal rank over repeated permutations should be
        # close to uniform; crude chi-square-free sanity check.
        counts = {i: 0 for i in range(10)}
        shared = SharedRandomness(9)
        for tag in range(600):
            rank = shared.permutation_rank(10, tag=tag)
            winner = min(range(10), key=rank)
            counts[winner] += 1
        for count in counts.values():
            assert 20 <= count <= 130  # expectation 60

    def test_out_of_universe_rejected(self):
        rank = SharedRandomness(0).permutation_rank(10)
        with pytest.raises(ValueError):
            rank(10)
        with pytest.raises(ValueError):
            rank(-1)


class TestCounterKeys:
    """SplitMix64 keys behind public_order / permutation_rank / predicates."""

    def test_splitmix64_reference_vectors(self):
        # SplitMix64 seeded with state 0: the first three outputs of the
        # reference implementation (Steele, Lea & Flood; Vigna's C code).
        assert [counter_key(0, i) for i in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        ]

    @given(
        base=st.integers(min_value=0, max_value=2**64 - 1),
        items=st.lists(st.integers(min_value=0, max_value=2**62), max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_numpy_keys_equal_scalar_keys(self, base, items):
        keys = counter_keys(base, np.asarray(items, dtype=np.int64))
        assert keys.dtype == np.uint64
        assert [int(key) for key in keys] == [
            counter_key(base, item) for item in items
        ]

    @given(
        seed=st.integers(min_value=0, max_value=2**40),
        universe=st.integers(min_value=1, max_value=3000),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_argmin_equals_scalar_min(self, seed, universe, data):
        members = data.draw(st.sets(
            st.one_of(
                st.sampled_from(sorted({0, universe - 1})),
                st.integers(min_value=0, max_value=universe - 1),
            ),
            max_size=60,
        ))
        indices = np.asarray(sorted(members), dtype=np.int64)
        order = SharedRandomness(seed).public_order(universe, tag=3)
        assert order.argmin(indices) == min(
            indices.tolist(), key=order, default=None
        )

    def test_argmin_edge_cases(self):
        order = SharedRandomness(2).public_order(10)
        assert order.argmin(np.empty(0, dtype=np.int64)) is None
        assert order.argmin(np.array([0])) == 0
        assert order.argmin(np.array([9])) == 9
        assert order.argmin(np.arange(10)) == min(range(10), key=order)

    def test_both_forms_reject_out_of_universe(self):
        order = SharedRandomness(0).public_order(10)
        for bad in (-1, 10):
            with pytest.raises(ValueError):
                order(bad)
            with pytest.raises(ValueError):
                order.argmin(np.array([0, bad]))

    def test_permutation_rank_is_the_public_order(self):
        order = SharedRandomness(4).public_order(100, tag=2)
        rank = SharedRandomness(4).permutation_rank(100, tag=2)
        assert [rank(i) for i in range(100)] == [order(i) for i in range(100)]
        assert rank.argmin(np.arange(100)) == order.argmin(np.arange(100))

    def test_rank_draws_one_nonce_like_subset_primitives(self):
        """A rank or predicate call advances the main stream by one
        nonce, so every later MT sub-stream draw is unaffected by which
        key construction the call uses."""
        a, b = SharedRandomness(8), SharedRandomness(8)
        a.permutation_rank(50, tag=1)
        a.bernoulli_predicate(0.5, tag=1)
        b._next_nonce()
        b._next_nonce()
        assert a.bernoulli_subset_mask(500, 0.3, tag=2) == \
            b.bernoulli_subset_mask(500, 0.3, tag=2)


class TestBernoulliSubset:
    def test_probability_zero_empty(self):
        assert SharedRandomness(1).bernoulli_subset(100, 0.0) == set()

    def test_probability_one_full(self):
        assert SharedRandomness(1).bernoulli_subset(10, 1.0) == set(range(10))

    def test_expected_size(self):
        sample = SharedRandomness(3).bernoulli_subset(10_000, 0.1)
        assert 800 <= len(sample) <= 1200

    def test_members_in_universe(self):
        sample = SharedRandomness(3).bernoulli_subset(50, 0.5)
        assert all(0 <= item < 50 for item in sample)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            SharedRandomness(0).bernoulli_subset(10, 1.5)


class TestBernoulliPredicate:
    def test_parties_agree(self):
        a = SharedRandomness(11)
        b = SharedRandomness(11)
        pred_a = a.bernoulli_predicate(0.3, tag=5)
        pred_b = b.bernoulli_predicate(0.3, tag=5)
        assert [pred_a(i) for i in range(200)] == [
            pred_b(i) for i in range(200)
        ]

    def test_hit_rate_close_to_p(self):
        pred = SharedRandomness(13).bernoulli_predicate(0.25)
        hits = sum(pred(i) for i in range(4000))
        assert 800 <= hits <= 1200

    def test_extreme_probabilities(self):
        always = SharedRandomness(0).bernoulli_predicate(1.0)
        never = SharedRandomness(0).bernoulli_predicate(0.0)
        assert all(always(i) for i in range(20))
        assert not any(never(i) for i in range(20))

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            SharedRandomness(0).bernoulli_predicate(-0.1)

    @given(seed=st.integers(min_value=0, max_value=2**40),
           items=st.lists(st.integers(min_value=0, max_value=2**62),
                          max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_endpoints_exact(self, seed, items):
        shared = SharedRandomness(seed)
        never = shared.bernoulli_predicate(0.0, tag=1)
        always = shared.bernoulli_predicate(1.0, tag=1)
        assert not any(never(item) for item in items)
        assert all(always(item) for item in items)


def _predicate_items():
    """Item arrays for the scalar-vs-array predicate identity."""
    rng = np.random.default_rng(7)
    n = 300
    return [
        np.empty(0, dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.arange(64 * 64, dtype=np.int64),
        np.append(rng.integers(0, n * n - 1, size=500), n * n - 1),
        np.append(rng.integers(0, 2**40, size=500), 2**40),
    ]


class TestPredicateArrayForm:
    """``pred.test(items)`` equals ``[pred(i) for i in items]``."""

    @pytest.mark.parametrize(
        "probability", [0.0, 2.0**-60, 1 / 3, 0.5, 1.0 - 2.0**-53, 1.0]
    )
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    def test_array_equals_scalar(self, probability, seed):
        pred = SharedRandomness(seed).bernoulli_predicate(probability, tag=3)
        assert isinstance(pred, PublicPredicate)
        for items in _predicate_items():
            tested = pred.test(items)
            assert tested.dtype == np.bool_
            assert tested.shape == items.shape
            assert tested.tolist() == [pred(int(i)) for i in items]

    def test_accepts_lists(self):
        pred = SharedRandomness(2).bernoulli_predicate(0.5)
        items = [3, 1, 4, 1, 5, 9, 2, 6]
        assert pred.test(items).tolist() == [pred(i) for i in items]

    def test_threshold_boundary(self):
        # key < threshold: an item whose key equals the threshold fails
        # in both forms, one below it passes in both.
        base = 12345
        items = np.arange(16, dtype=np.int64)
        key = counter_key(base, 5)
        for threshold in (key, key + 1):
            pred = PublicPredicate(base, threshold)
            assert pred.test(items).tolist() == [
                pred(int(i)) for i in items
            ]
        assert not PublicPredicate(base, key)(5)
        assert PublicPredicate(base, key + 1)(5)


class TestKeyGrid:
    """``counter_key_grid`` equals ``counter_key`` pair by pair."""

    BASES = [0, 1, 12345, 2**63 - 1, 2**63 + 11, 2**64 - 1, 2**64 + 5]

    def test_every_pair(self):
        for items in _predicate_items():
            grid = counter_key_grid(self.BASES, items)
            assert grid.dtype == np.uint64
            assert grid.shape == (len(self.BASES), items.size)
            for base, row in zip(self.BASES, grid.tolist()):
                assert row == [counter_key(base, int(i)) for i in items]

    def test_rows_are_counter_keys(self):
        items = np.arange(1000, dtype=np.int64)
        grid = counter_key_grid(self.BASES, items)
        for base, row in zip(self.BASES, grid):
            assert np.array_equal(row, counter_keys(base, items))

    def test_any_pass_threshold_boundary(self):
        base = 12345
        key = counter_key(base, 5)
        preds = [PublicPredicate(base, key), PublicPredicate(base, key + 1)]
        assert PublicPredicate.any_pass(preds, [5]) == [False, True]

    def test_any_pass_equals_per_predicate_test(self):
        shared = SharedRandomness(9)
        probabilities = (0.0, 2.0**-60, 1 / 3, 0.5, 1.0)
        mixed = [shared.bernoulli_predicate(p) for p in probabilities]
        for preds in ([], mixed, mixed[::-1], mixed[:1], mixed[-1:]):
            for items in _predicate_items():
                assert PublicPredicate.any_pass(preds, items) == [
                    bool(pred.test(items).any()) for pred in preds
                ]


class TestSampling:
    def test_without_replacement_size(self):
        sample = SharedRandomness(2).sample_without_replacement(100, 10)
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_oversized_count_clamped(self):
        sample = SharedRandomness(2).sample_without_replacement(5, 50)
        assert sorted(sample) == [0, 1, 2, 3, 4]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            SharedRandomness(2).sample_without_replacement(5, -1)

    def test_shuffled_preserves_items(self):
        shuffled = SharedRandomness(4).shuffled(range(20))
        assert sorted(shuffled) == list(range(20))

    def test_choice_and_randrange(self):
        shared = SharedRandomness(6)
        assert shared.randrange(10) in range(10)
        assert shared.choice([5, 6, 7]) in (5, 6, 7)


class TestVectorizedEquivalence:
    """The array replay of the subset draws is the per-index loop.

    Byte-identity of every record rests on this: each mask and set, and
    every later main-stream draw, must match the scalar oracle
    (:class:`oracles.comm.ScalarSharedRandomness`) bit for bit.
    """

    UNIVERSES = [0, 1, 7, 100, 2000, 4093]
    PROBABILITIES = [0.0, 1e-12, 0.001, 0.05, 0.3, 0.9, 0.999999, 1.0]

    def _pair(self, seed):
        return ScalarSharedRandomness(seed), SharedRandomness(seed)

    def test_masks_identical_across_representations(self):
        for seed in (0, 1, 17):
            scalar, vector = self._pair(seed)
            for universe in self.UNIVERSES:
                for p in self.PROBABILITIES:
                    assert scalar.bernoulli_subset_mask(
                        universe, p, tag=3
                    ) == vector.bernoulli_subset_mask(universe, p, tag=3)
                    assert scalar.bernoulli_subset(
                        universe, p, tag=4
                    ) == vector.bernoulli_subset(universe, p, tag=4)

    def test_closed_forms_skip_vectorization(self):
        scalar, vector = self._pair(5)
        assert vector.bernoulli_subset_mask(64, 0.0, tag=1) == 0
        assert vector.bernoulli_subset_mask(64, 1.0, tag=1) == (1 << 64) - 1
        assert scalar.bernoulli_subset_mask(64, 1.0, tag=1) == (1 << 64) - 1

    def test_denormal_probability(self):
        scalar, vector = self._pair(9)
        p = 5e-324  # smallest positive double: log1p(-p) == 0.0
        assert scalar.bernoulli_subset_mask(10**6, p, tag=2) == 0
        assert vector.bernoulli_subset_mask(10**6, p, tag=2) == 0

    def test_small_draws_match_scalar(self):
        """Draws expecting a handful of indices, or none, take the same
        array path and must match the loop there too."""
        for seed in (0, 3):
            scalar, vector = self._pair(seed)
            for universe in (1, 13, 200):
                for p in (0.001, 0.4, 0.97):
                    assert scalar.bernoulli_subset_mask(
                        universe, p, tag=7
                    ) == vector.bernoulli_subset_mask(universe, p, tag=7)

    def test_main_stream_order_unaffected(self):
        """Tagged mask draws must not perturb the main stream, whichever
        implementation produced them."""
        scalar, vector = self._pair(11)
        a = scalar.random()
        scalar.bernoulli_subset_mask(4000, 0.3, tag=1)
        vector.random()
        vector.bernoulli_subset_mask(4000, 0.3, tag=1)
        assert scalar.random() == vector.random()
        assert a == SharedRandomness(11).random()

    @pytest.mark.parametrize("size", [0, 1, 7, 313, 5000])
    def test_word_stream_replays_random(self, size):
        for seed in (0, 8, 2**40 + 1):
            local = random.Random(seed)
            local.random()
            twin = random.Random()
            twin.setstate(local.getstate())
            stream = _WordStream(local)
            first = stream.random_sample(size).tolist()
            second = stream.random_sample(3).tolist()
            assert first + second == [
                twin.random() for _ in range(size + 3)
            ]
            # The stream consumed exactly the words those draws take.
            assert local.getstate() == twin.getstate()


class TestBatchConstruction:
    """SharedRandomness.batch(seeds) streams == per-seed construction."""

    def test_batch_matches_individual_streams(self):
        seeds = [0, 1, 2, 3, 1 << 40]
        batched = SharedRandomness.batch(seeds)
        assert len(batched) == len(seeds)
        for seed, stream in zip(seeds, batched):
            reference = SharedRandomness(seed)
            assert stream.bernoulli_subset_mask(
                500, 0.3, tag=4
            ) == reference.bernoulli_subset_mask(500, 0.3, tag=4)
            assert [stream.random() for _ in range(5)] == [
                reference.random() for _ in range(5)
            ]

    def test_batch_streams_independent(self):
        left, right = SharedRandomness.batch([1, 2])
        assert left.random() != right.random()

    def test_empty_batch(self):
        assert SharedRandomness.batch([]) == []


class TestBatchHypothesis:
    """Hypothesis pin: batch() equals per-seed construction on any seeds."""

    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**63 - 1),
            min_size=1, max_size=6,
        ),
        universe=st.integers(min_value=0, max_value=3000),
        p=st.floats(min_value=0.0, max_value=1.0,
                    allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_draw_equivalence(self, seeds, universe, p):
        batched = SharedRandomness.batch(seeds)
        for seed, stream in zip(seeds, batched):
            reference = SharedRandomness(seed)
            assert stream.bernoulli_subset_mask(
                universe, p, tag=1
            ) == reference.bernoulli_subset_mask(universe, p, tag=1)
            assert stream.random() == reference.random()

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        universe=st.integers(min_value=1, max_value=5000),
        p=st.floats(min_value=1e-9, max_value=1.0,
                    allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_vectorized_scalar_equivalence(self, seed, universe, p):
        scalar = ScalarSharedRandomness(seed)
        vector = SharedRandomness(seed)
        assert scalar.bernoulli_subset_mask(
            universe, p, tag=2
        ) == vector.bernoulli_subset_mask(universe, p, tag=2)
