"""Shared (public) randomness for multiparty protocols.

The paper assumes the players and coordinator share a public random string:
sampling decisions are made by "interpreting the public bits" and cost zero
communication.  :class:`SharedRandomness` models that string as a seeded PRNG
that every party holds a reference to.  All sampling primitives the protocols
need — permutations over the vertex set, Bernoulli vertex samples, ranked
orders over potential edges — live here so that players provably agree on
them without exchanging bits.

Determinism contract: two ``SharedRandomness`` instances created with the
same seed produce identical sample sequences, which is what makes protocol
runs reproducible end to end.

Two constructions sit behind the primitives:

* **counter-based keys** for the per-item primitives
  (:meth:`SharedRandomness.public_order`, :meth:`~SharedRandomness.permutation_rank`,
  :meth:`~SharedRandomness.bernoulli_predicate`).  Item ``i``'s key is
  output ``i`` of a SplitMix64 stream (Steele, Lea & Flood, OOPSLA 2014)
  seeded by the call's base — a counter-based generator in the sense of
  Salmon et al., SC'11.  A key costs a few integer operations in Python
  and evaluates bit-identically as a numpy ``uint64`` expression over an
  index array, so a player ranks (:meth:`PublicOrder.argmin`) or tests
  (:meth:`PublicPredicate.test`) its whole candidate set in one pass;
* **Mersenne Twister sub-streams** for the subset primitives
  (``bernoulli_subset[_mask]``, ``sample_without_replacement[_mask]``,
  ``shuffled``, ``fork``).

The subset primitives have two execution paths honouring the contract:

* the **scalar** reference path draws one index at a time from
  ``random.Random`` (the historical implementation, always available);
* the **vectorized** path reads the very same MT19937 words in bulk
  (``getrandbits`` on a copy of the generator), builds the 53-bit
  doubles from the same word pairs ``random()`` uses, and replays the
  geometric-skipping recurrence as array operations.  Selected indices
  are equal element for element, so masks are byte-identical; the path
  is taken automatically for draws big enough to amortize the copy.

:meth:`SharedRandomness.batch` is the batched construction the trial
runtime uses: one call yields every trial's coin stream for a grid
point, each stream provably identical to ``SharedRandomness(seed)``.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, Sequence

import numpy as _np

__all__ = [
    "PublicOrder", "PublicPredicate", "SharedRandomness", "counter_key",
    "counter_key_grid", "counter_keys",
]

#: Expected selected-index count below which the scalar loop beats the
#: numpy path (copying the generator state costs a fixed ~tens of
#: microseconds).
_VECTOR_MIN_EXPECTED = 128

# A large prime used to build per-call independent sub-streams from
# (seed, tag) pairs without materializing n! permutations.  It is also
# SplitMix64's golden-gamma stream increment.
_MIX_PRIME = 0x9E3779B97F4A7C15

#: SplitMix64 finalizer multipliers.
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
_TWO_64 = float(1 << 64)


def counter_key(base: int, item: int) -> int:
    """Item ``item``'s 64-bit key: output ``item`` of SplitMix64(``base``).

    The counter steps by the golden gamma, not by one, so the finalizer
    never sees consecutive inputs.  The gamma is odd and the finalizer a
    bijection, so distinct items below 2^64 get distinct keys under one
    base.
    """
    z = (base + (item + 1) * _MIX_PRIME) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MUL_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL_2) & _MASK64
    return z ^ (z >> 31)


def counter_keys(base: int, items) -> "_np.ndarray":
    """:func:`counter_key` over an array of non-negative items, as uint64.

    numpy's ``uint64`` arithmetic wraps modulo 2^64, so every step equals
    its masked Python counterpart bit for bit.
    """
    z = _counters(items)
    z += _np.uint64(base & _MASK64)
    return _finalize(z)


def counter_key_grid(bases: Sequence[int], items) -> "_np.ndarray":
    """:func:`counter_key` for every (base, item) pair, as a uint64 block.

    Row ``r`` holds ``counter_keys(bases[r], items)``: the item counters
    are formed once and broadcast against the column of bases.
    """
    column = _np.array([base & _MASK64 for base in bases],
                       dtype=_np.uint64)[:, None]
    return _finalize(_counters(items) + column)


def _counters(items) -> "_np.ndarray":
    """SplitMix64 counters ``(item + 1) * gamma`` before the base is added."""
    z = _np.asarray(items, dtype=_np.int64).astype(_np.uint64)
    z += _np.uint64(1)
    z *= _np.uint64(_MIX_PRIME)
    return z


def _finalize(z: "_np.ndarray") -> "_np.ndarray":
    """The SplitMix64 finalizer, in place."""
    z ^= z >> _np.uint64(30)
    z *= _np.uint64(_MIX_MUL_1)
    z ^= z >> _np.uint64(27)
    z *= _np.uint64(_MIX_MUL_2)
    z ^= z >> _np.uint64(31)
    return z


class PublicOrder:
    """A public, uniformly random total order over ``range(universe)``.

    ``order(item)`` is the rank ``(key, item)``; keys are distinct, so the
    item never breaks a tie and ``min(items, key=order)`` is the unique
    lowest-keyed item.  :meth:`argmin` computes the same minimum in one
    numpy pass over an index array — the player side of Algorithm 1.
    """

    __slots__ = ("universe", "_base")

    def __init__(self, universe: int, base: int) -> None:
        self.universe = universe
        self._base = base

    def __call__(self, item: int) -> tuple[int, int]:
        if not 0 <= item < self.universe:
            raise ValueError(
                f"item {item} outside universe of size {self.universe}"
            )
        return (counter_key(self._base, item), item)

    def argmin(self, items) -> int | None:
        """The lowest-ranked of ``items`` (an index array), None if empty."""
        items = _np.asarray(items, dtype=_np.int64)
        if items.size == 0:
            return None
        low, high = int(items.min()), int(items.max())
        if low < 0 or high >= self.universe:
            bad = low if low < 0 else high
            raise ValueError(
                f"item {bad} outside universe of size {self.universe}"
            )
        return int(items[counter_keys(self._base, items).argmin()])


class PublicPredicate:
    """A public iid-Bernoulli(p) membership test over the integers.

    ``pred(item)`` is ``counter_key(base, item) < threshold`` with
    ``threshold = ceil(p * 2^64)``; :meth:`test` evaluates the same
    comparison over an index array in one numpy pass, so the scalar and
    array forms agree item for item.  At p = 1 the threshold is 2^64,
    which no ``uint64`` holds: every key passes, and :meth:`test` says
    so without computing keys.
    """

    __slots__ = ("_base", "_threshold")

    def __init__(self, base: int, threshold: int) -> None:
        self._base = base
        self._threshold = threshold

    def __call__(self, item: int) -> bool:
        return counter_key(self._base, item) < self._threshold

    def test(self, items) -> "_np.ndarray":
        """``[pred(i) for i in items]`` as a bool array."""
        items = _np.asarray(items, dtype=_np.int64)
        if self._threshold > _MASK64:
            return _np.ones(items.shape, dtype=_np.bool_)
        return counter_keys(self._base, items) < _np.uint64(self._threshold)

    @staticmethod
    def any_pass(preds: Sequence["PublicPredicate"], items) -> list[bool]:
        """``[bool(pred.test(items).any()) for pred in preds]``.

        One :func:`counter_key_grid` block keys every item under every
        predicate that needs keys; a p = 1 predicate passes any
        non-empty ``items`` without them.
        """
        items = _np.asarray(items, dtype=_np.int64)
        if not items.size:
            return [False] * len(preds)
        answers = [pred._threshold > _MASK64 for pred in preds]
        keyed = [j for j, passed in enumerate(answers) if not passed]
        if keyed:
            keys = counter_key_grid([preds[j]._base for j in keyed], items)
            thresholds = _np.array(
                [preds[j]._threshold for j in keyed], dtype=_np.uint64
            )
            hits = (keys < thresholds[:, None]).any(axis=1).tolist()
            for j, hit in zip(keyed, hits):
                answers[j] = hit
        return answers


def _mask_from_indices(indices: Iterable[int], universe_size: int) -> int:
    """Assemble a bitmask in a bytearray: O(universe) total, no
    O(universe²/word) repeated big-int shifts for dense index streams."""
    buffer = bytearray((universe_size >> 3) + 1)
    for index in indices:
        buffer[index >> 3] |= 1 << (index & 7)
    return int.from_bytes(buffer, "little")


def _geometric_indices(local: random.Random, universe_size: int,
                       probability: float) -> Iterator[int]:
    """Geometric skipping over ``range(universe_size)``: expected O(p·n).

    ``probability`` must lie strictly in (0, 1); the caller handles the
    endpoints in closed form.
    """
    index = -1
    log_q = math.log1p(-probability)
    if log_q == 0.0:
        # probability is denormal-small: log1p underflows to -0.0; a gap
        # division by it would raise — and no gap that large fits any
        # finite universe, so nothing is selected.
        return
    while True:
        raw_gap = math.log(max(local.random(), 1e-300)) / log_q
        if raw_gap >= universe_size:
            # Covers float overflow to inf at tiny probabilities, where
            # an un-guarded int() would raise.
            return
        index += int(raw_gap) + 1
        if index >= universe_size:
            return
        yield index


class _WordStream:
    """Doubles read in bulk from a copy of a ``random.Random`` stream.

    ``random_sample(k)`` equals ``[local.random() for _ in range(k)]``
    draw for draw: ``random()`` assembles a double as
    ``((a >> 5) * 2^26 + (b >> 6)) / 2^53`` from two consecutive 32-bit
    MT19937 outputs, and ``getrandbits(64 * k)`` hands out the next
    ``2k`` outputs as 32-bit words, first word least significant.
    """

    __slots__ = ("_rng",)

    def __init__(self, local: random.Random) -> None:
        self._rng = random.Random()
        self._rng.setstate(local.getstate())

    def random_sample(self, size: int) -> "_np.ndarray":
        words = _np.frombuffer(
            self._rng.getrandbits(64 * size).to_bytes(8 * size, "little"),
            dtype="<u4",
        )
        return (
            (words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)
        ) / 9007199254740992.0


def _numpy_stream(local: random.Random) -> _WordStream:
    """A double stream continuing ``local``'s exact MT19937 stream.

    ``stream.random_sample(k)`` equals ``[local.random()] * k`` draw for
    draw.  ``local`` itself is left untouched: the stream reads a copy.
    """
    return _WordStream(local)


def _geometric_indices_array(local: random.Random, universe_size: int,
                             probability: float) -> "_np.ndarray":
    """:func:`_geometric_indices` as one vectorized pass, equal output.

    Uniform draws come in chunks from the transplanted stream; gaps,
    cumulative positions, and the two termination conditions (a gap at
    least the universe, or a position past it) are array expressions.
    Gap entries at or beyond the terminator carry clamped garbage, but
    the first terminator cuts them off before they are emitted —
    exactly where the scalar generator returns.
    """
    log_q = math.log1p(-probability)
    if log_q == 0.0:
        return _np.empty(0, dtype=_np.int64)
    stream = _numpy_stream(local)
    chunks: list["_np.ndarray"] = []
    index = -1
    # Expected draw count is ~p·n + 1; the first chunk covers it with
    # slack so one pass almost always suffices.
    chunk = max(32, int(probability * universe_size * 1.25) + 16)
    while True:
        raw = _np.log(
            _np.maximum(stream.random_sample(chunk), 1e-300)
        ) / log_q
        overshoot = raw >= universe_size
        steps = _np.where(
            overshoot, 1,
            _np.minimum(raw, universe_size).astype(_np.int64) + 1,
        )
        positions = index + _np.cumsum(steps)
        terminal = _np.nonzero(overshoot | (positions >= universe_size))[0]
        if terminal.size:
            chunks.append(positions[: terminal[0]])
            break
        chunks.append(positions)
        index = int(positions[-1])
        chunk = 64
    return chunks[0] if len(chunks) == 1 else _np.concatenate(chunks)


def _mask_from_index_array(indices: "_np.ndarray", universe_size: int) -> int:
    """:func:`_mask_from_indices` for an index array: packbits assembly."""
    bits = _np.zeros(universe_size, dtype=_np.bool_)
    bits[indices] = True
    return int.from_bytes(
        _np.packbits(bits, bitorder="little").tobytes(), "little"
    )


class SharedRandomness:
    """Public-coin source shared by all parties of a protocol.

    Parameters
    ----------
    seed:
        Seed of the public random string.  Protocol executions with equal
        seeds are bitwise identical.
    vectorized:
        ``None`` (default) lets big subset draws take the numpy path;
        ``False`` forces the scalar reference path; ``True`` is the
        default made explicit.  All settings produce identical samples —
        the knob only trades implementations.
    """

    def __init__(self, seed: int = 0, *, vectorized: bool | None = None) -> None:
        self._seed = seed
        self._rng = random.Random(seed)
        self._draws = 0
        self._vectorized = True if vectorized is None else vectorized

    @property
    def seed(self) -> int:
        return self._seed

    @classmethod
    def batch(cls, seeds: Sequence[int], *,
              vectorized: bool | None = None) -> list["SharedRandomness"]:
        """One coin stream per seed — the grid-point batched construction.

        Each returned instance is draw-for-draw identical to
        ``SharedRandomness(seed)``: a protocol run against stream ``i``
        produces the same record as a fresh per-trial run with
        ``seeds[i]``, which is what keeps the batched execution path
        byte-identical to the per-trial one.  The heavy per-draw work
        (the geometric-skipping subset recurrence) runs vectorized, so a
        whole batch's public coins amount to one numpy pass per draw
        rather than per-element scalar loops.
        """
        return [cls(seed, vectorized=vectorized) for seed in seeds]

    def fork(self, tag: int) -> "SharedRandomness":
        """An independent public sub-stream labelled by ``tag``.

        Used when conceptually parallel sub-protocols (e.g. the ``O(log k)``
        simultaneous instances of Algorithm 11) must each see their own
        fresh public coins, agreed on by all players.
        """
        return SharedRandomness((self._seed * _MIX_PRIME + tag) & (2**63 - 1))

    # ------------------------------------------------------------------
    # Basic draws
    # ------------------------------------------------------------------
    def random(self) -> float:
        self._draws += 1
        return self._rng.random()

    def randrange(self, upper: int) -> int:
        self._draws += 1
        return self._rng.randrange(upper)

    def choice(self, items: Sequence[int]) -> int:
        self._draws += 1
        return self._rng.choice(items)

    # ------------------------------------------------------------------
    # Protocol-level primitives
    # ------------------------------------------------------------------
    def public_order(self, universe_size: int, tag: int = 0) -> PublicOrder:
        """A uniformly random total order over ``range(universe_size)``.

        Every player evaluates the *same* order, so "the first element of
        my set under the public permutation" is consistent across players
        — exactly the trick Algorithm 1 (SampleUniformFromB~i) relies on.
        Keys are computed lazily per item (or per index array through
        :meth:`PublicOrder.argmin`), so ranking a handful of elements of a
        huge universe is cheap.
        """
        base = (self._seed * _MIX_PRIME + (tag << 17) + self._next_nonce()) & (
            2**63 - 1
        )
        return PublicOrder(universe_size, base)

    def permutation_rank(self, universe_size: int, tag: int = 0):
        """:meth:`public_order` as a rank callable.

        Returns ``rank(item) -> (key, item)``: comparing ranks realizes a
        uniformly random permutation, and out-of-universe items raise
        ``ValueError``.
        """
        return self.public_order(universe_size, tag)

    def _bernoulli_local(self, probability: float, tag: int) -> random.Random:
        """Main-stream draws (one draw + nonce) behind both subset forms.

        Called eagerly by either representation, so the set and mask
        forms are draw-for-draw interchangeable: later public sampling
        decisions are unaffected by which one a protocol used.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self._draws += 1
        return random.Random(
            (self._seed * _MIX_PRIME + (tag << 21) + self._next_nonce())
            & (2**63 - 1)
        )

    def bernoulli_subset(self, universe_size: int, probability: float,
                         tag: int = 0) -> set[int]:
        """Include each of ``range(universe_size)`` independently w.p. ``p``.

        This is the public-coin "jointly generate a random set S ⊆ V" step
        used throughout Section 3.  All parties calling this with the same
        tag and draw order obtain the same set.
        """
        local = self._bernoulli_local(probability, tag)
        if probability == 0.0:
            return set()
        if probability == 1.0:
            return set(range(universe_size))
        return set(_geometric_indices(local, universe_size, probability))

    def bernoulli_subset_mask(self, universe_size: int, probability: float,
                              tag: int = 0) -> int:
        """:meth:`bernoulli_subset` as a bitmask, identical draw order.

        The mask form the mask-native players harvest against.  The mask
        is assembled in a bytearray (O(universe) total) rather than by
        repeated ``|= 1 << i`` shifts (O(universe²/word) for dense
        samples), and the all/none endpoints are closed forms.
        """
        local = self._bernoulli_local(probability, tag)
        if probability == 0.0:
            return 0
        if probability == 1.0:
            return (1 << universe_size) - 1
        if (
            self._vectorized
            and probability * universe_size >= _VECTOR_MIN_EXPECTED
        ):
            return _mask_from_index_array(
                _geometric_indices_array(local, universe_size, probability),
                universe_size,
            )
        return _mask_from_indices(
            _geometric_indices(local, universe_size, probability),
            universe_size,
        )

    def bernoulli_predicate(self, probability: float,
                            tag: int = 0) -> PublicPredicate:
        """A public iid-Bernoulli(p) membership predicate over the integers.

        Returns ``pred(item) -> bool`` deciding whether ``item`` belongs to
        the public random sample, *without* materializing the sample.  All
        parties evaluating the predicate agree, so a player can check only
        the elements it cares about (e.g. its own incident edges in the
        Theorem 3.1 degree-approximation experiments) in time proportional
        to its own input — the trick that keeps public sampling free.
        ``pred.test(items)`` answers for a whole index array at once.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        base = (self._seed * _MIX_PRIME + (tag << 19) + self._next_nonce()) & (
            2**63 - 1
        )
        # key < p·2^64 (exact: p·2^64 is a float product by a power of
        # two, and key is an integer): p=0 never passes, p=1 always does.
        return PublicPredicate(base, math.ceil(probability * _TWO_64))

    def sample_without_replacement(self, universe_size: int, count: int,
                                   tag: int = 0) -> list[int]:
        """A uniformly random ``count``-subset of ``range(universe_size)``.

        Used by Algorithm 7 ("a uniformly random set of vertices of size
        |S|").  ``count`` is clamped to the universe size — at reproduction
        scales the paper's sample-size formulas routinely exceed n, which
        simply means "take everything".
        """
        count = min(count, universe_size)
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._draws += 1
        local = random.Random(
            (self._seed * _MIX_PRIME + (tag << 13) + self._next_nonce())
            & (2**63 - 1)
        )
        return local.sample(range(universe_size), count)

    def sample_without_replacement_mask(self, universe_size: int, count: int,
                                        tag: int = 0) -> int:
        """:meth:`sample_without_replacement` as a bitmask, same draws.

        Membership is all the mask-native harvests need, so the sampled
        order is folded away; the underlying draw sequence is identical
        to the list form.
        """
        return _mask_from_indices(
            self.sample_without_replacement(universe_size, count, tag),
            universe_size,
        )

    def shuffled(self, items: Iterable[int], tag: int = 0) -> list[int]:
        """A uniformly random ordering of ``items`` (public)."""
        self._draws += 1
        local = random.Random(
            (self._seed * _MIX_PRIME + (tag << 9) + self._next_nonce())
            & (2**63 - 1)
        )
        result = list(items)
        local.shuffle(result)
        return result

    def _next_nonce(self) -> int:
        # Advance the main stream so successive primitive calls are
        # independent while remaining reproducible.
        return self._rng.getrandbits(48)
