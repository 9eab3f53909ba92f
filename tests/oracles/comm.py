"""Reference ``set``-based player backend for differential testing.

:class:`SetPlayer` is the pre-bitset implementation of
:class:`~repro.comm.players.Player` — a ``frozenset[Edge]`` input plus dict
adjacency, with every harvest method doing per-edge Python set work — kept
as an executable specification, mirroring
:class:`~oracles.graphs.SetGraph`:

* ``tests/test_protocol_engine.py`` drives random edge partitions and
  sample sets through both backends and asserts identical harvests,
  identical protocol messages, and identical ``DetectionResult``s,
* ``benchmarks/bench_protocol_engine.py`` measures whole-protocol trials
  (sim-low, sim-high, oblivious) with mask players against this baseline.

``SetPlayer`` also implements the mask-form harvest API (``*_mask``
methods, :meth:`sorted_edges`, :meth:`edge_keys`) the rebuilt protocols
call, computed the slow way — masks are expanded to vertex sets, the
original set algorithms run, and results are order-normalized to the
kernel's ascending canonical order (the sample-wide harvests and
:meth:`edge_keys` as sorted canonical key arrays, the players' message
form) — so every protocol entry point runs unmodified on either
backend.
:func:`set_players` makes the swap: inside it, a protocol module's
``make_players`` builds set players.

:class:`ScalarSharedRandomness` is the public-coin source with the
per-index Bernoulli subset loop (:func:`geometric_indices_reference`)
that :class:`~repro.comm.randomness.SharedRandomness` replays as array
operations; ``tests/test_randomness.py`` pins the two draw for draw.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.comm.randomness import SharedRandomness, _mask_from_indices
from repro.graphs.buckets import degrees_from_view, player_suspected_bucket
from repro.graphs.graph import Edge, canonical_edge, mask_of

__all__ = [
    "ScalarSharedRandomness",
    "SetPlayer",
    "geometric_indices_reference",
    "make_set_players",
    "set_players",
    "post_edges_in_turns_reference",
]

_BYTE_BITS = {
    byte: tuple(b for b in range(8) if byte >> b & 1) for byte in range(256)
}


def _mask_to_set(mask: int) -> set[int]:
    """Expand a vertex mask to a Python set via a linear byte scan."""
    result: set[int] = set()
    for offset, byte in enumerate(
        mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    ):
        if byte:
            base = offset << 3
            for bit in _BYTE_BITS[byte]:
                result.add(base + bit)
    return result


class SetPlayer:
    """One player of a number-in-hand protocol (original set backend)."""

    def __init__(self, player_id: int, n: int, edges: Iterable[Edge]) -> None:
        self.player_id = player_id
        self.n = n
        self._edges: frozenset[Edge] = frozenset(
            canonical_edge(u, v) for u, v in edges
        )
        self._adjacency: dict[int, set[int]] = {}
        for u, v in self._edges:
            self._adjacency.setdefault(u, set()).add(v)
            self._adjacency.setdefault(v, set()).add(u)
        self._degrees = degrees_from_view(self._edges)

    # ------------------------------------------------------------------
    # Introspection (local, free)
    # ------------------------------------------------------------------
    @property
    def edges(self) -> frozenset[Edge]:
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def sorted_edges(self) -> list[Edge]:
        """All local edges in ascending canonical order."""
        return sorted(self._edges)

    def _keys_of(self, edges: Iterable[Edge]) -> np.ndarray:
        """Canonical edges as a sorted int64 key array ``u * n + v``."""
        n = self.n
        return np.array(sorted(u * n + v for u, v in edges), dtype=np.int64)

    def edge_keys(self) -> np.ndarray:
        """All local edges as sorted canonical keys."""
        return self._keys_of(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return canonical_edge(u, v) in self._edges

    def local_degree(self, v: int) -> int:
        """d_j(v): degree of v in this player's view."""
        return self._degrees.get(v, 0)

    def local_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self._adjacency.get(v, ()))

    def local_neighbor_mask(self, v: int) -> int:
        """N_j(v) as a bitmask, assembled bit by bit."""
        return mask_of(self._adjacency.get(v, ()))

    def local_neighbor_array(self, v: int):
        """N_j(v) as an ascending int64 array, sorted from the set."""
        return np.array(sorted(self._adjacency.get(v, ())), dtype=np.int64)

    def average_local_degree(self) -> float:
        """d-bar_j = 2|E_j| / n, the §3.4.3 per-player density estimate."""
        if self.n == 0:
            return 0.0
        return 2.0 * len(self._edges) / self.n

    def degree_msb_index(self, v: int) -> int | None:
        """Index of the most significant bit of d_j(v); None if d_j(v)=0."""
        degree = self.local_degree(v)
        if degree == 0:
            return None
        return degree.bit_length() - 1

    def suspected_bucket(self, index: int, k: int) -> set[int]:
        """B~_i^j: vertices with 3^i / k <= d_j(v) <= 3^(i+1)."""
        return player_suspected_bucket(self._degrees, index, k)

    # ------------------------------------------------------------------
    # Permutation-ranked minima (Algorithm 1 and the §3.1 primitives)
    # ------------------------------------------------------------------
    def first_in_suspected_bucket(self, index: int, k: int,
                                  order: Callable[[int], tuple]
                                  ) -> int | None:
        """Lowest-ranked vertex of B~_i^j, one scalar rank per member."""
        return min(self.suspected_bucket(index, k), key=order, default=None)

    def first_vertex_under_rank(self, candidates: Iterable[int],
                                rank: Callable[[int], tuple]) -> int | None:
        """Lowest-ranked vertex among ``candidates`` (public order)."""
        best: int | None = None
        best_rank: tuple | None = None
        for v in candidates:
            r = rank(v)
            if best_rank is None or r < best_rank:
                best, best_rank = v, r
        return best

    def first_incident_edge_under_rank(self, v: int,
                                       rank: Callable[[int], tuple]
                                       ) -> Edge | None:
        """Lowest-ranked edge of E_j incident to v, ranking by far endpoint."""
        best_neighbor = self.first_vertex_under_rank(
            self._adjacency.get(v, ()), rank
        )
        if best_neighbor is None:
            return None
        return canonical_edge(v, best_neighbor)

    def first_edge_under_rank(self, rank: Callable[[Edge], tuple]
                              ) -> Edge | None:
        """Lowest-ranked edge of E_j under a public order on edges."""
        best: Edge | None = None
        best_rank: tuple | None = None
        for edge in self._edges:
            r = rank(edge)
            if best_rank is None or r < best_rank:
                best, best_rank = edge, r
        return best

    # ------------------------------------------------------------------
    # Edge harvesting against public vertex samples
    # ------------------------------------------------------------------
    def edges_at_vertex_in_sample(self, v: int, sample: set[int]
                                  ) -> set[Edge]:
        """E_j ∩ ({v} × S): Algorithm 4's per-vertex edge sample."""
        return {
            canonical_edge(v, u)
            for u in self._adjacency.get(v, ())
            if u in sample
        }

    def edges_within(self, sample: set[int]) -> set[Edge]:
        """E_j ∩ S²: the induced-subgraph harvest of Algorithms 7 and 9."""
        found: set[Edge] = set()
        for u, v in self._edges:
            if u in sample and v in sample:
                found.add((u, v))
        return found

    def edges_touching_both(self, r_sample: set[int], rs_sample: set[int]
                            ) -> set[Edge]:
        """Edges with one endpoint in R and the other in R ∪ S (Alg 8/10)."""
        found: set[Edge] = set()
        for u, v in self._edges:
            if (u in r_sample and v in rs_sample) or (
                v in r_sample and u in rs_sample
            ):
                found.add((u, v))
        return found

    # Mask-form harvests: expand masks, run the set algorithms, sort
    # (the sample-wide two into key arrays).
    # The expansion uses the byte-scan below (not per-bit int peeling) so
    # benchmark baselines measure the original per-edge set work, not an
    # artificial conversion tax the old protocols never paid.
    def edges_at_vertex_in_mask(self, v: int, sample_mask: int) -> list[Edge]:
        return sorted(
            self.edges_at_vertex_in_sample(v, _mask_to_set(sample_mask))
        )

    def edges_within_mask(self, sample_mask: int) -> np.ndarray:
        return self._keys_of(self.edges_within(_mask_to_set(sample_mask)))

    def edges_touching_both_mask(self, r_mask: int, rs_mask: int
                                 ) -> np.ndarray:
        return self._keys_of(
            self.edges_touching_both(
                _mask_to_set(r_mask), _mask_to_set(rs_mask)
            )
        )

    def sample_hits_vertex(self, v: int, sample: set[int]) -> bool:
        """Is S ∩ (edges of E_j at v) non-empty?  One Theorem 3.1 experiment."""
        neighbours = self._adjacency.get(v)
        if not neighbours:
            return False
        if len(sample) < len(neighbours):
            return any(u in neighbours for u in sample)
        return any(u in sample for u in neighbours)

    def any_incident_neighbor_in(self, v: int,
                                 pred: Callable[[int], bool]) -> bool:
        """Does any local neighbour of v satisfy the public predicate?"""
        return any(pred(u) for u in self._adjacency.get(v, ()))

    def any_incident_neighbor_in_each(
            self, v: int, preds: Sequence[Callable[[int], bool]]
    ) -> list[bool]:
        """One round of Theorem 3.1 experiments, one predicate at a time."""
        return [self.any_incident_neighbor_in(v, pred) for pred in preds]

    def any_edge_index_in(self, edge_index: Callable[[Edge], int],
                          pred: Callable[[int], bool]) -> bool:
        """Does any local edge's public index satisfy the predicate?"""
        return any(pred(edge_index(edge)) for edge in self._edges)

    # ------------------------------------------------------------------
    # Triangle closing
    # ------------------------------------------------------------------
    def find_closing_edge(self, vees: Iterable[tuple[Edge, Edge]]
                          ) -> tuple[Edge, Edge, Edge] | None:
        """Check the local input for an edge closing any posted vee."""
        for e1, e2 in vees:
            shared = set(e1) & set(e2)
            if len(shared) != 1:
                continue
            (u,) = set(e1) - shared
            (w,) = set(e2) - shared
            if self.has_edge(u, w):
                return (e1, e2, canonical_edge(u, w))
        return None

    def find_closing_edge_for_pairs(self, edges: Sequence[Edge]
                                    ) -> tuple[Edge, Edge, Edge] | None:
        """Scan all vee-shaped pairs among ``edges`` for a local closer."""
        adjacency: dict[int, set[int]] = {}
        for u, v in edges:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        for source, neighbours in adjacency.items():
            ordered = sorted(neighbours)
            for i, u in enumerate(ordered):
                for w in ordered[i + 1:]:
                    if self.has_edge(u, w):
                        return (
                            canonical_edge(source, u),
                            canonical_edge(source, w),
                            canonical_edge(u, w),
                        )
        return None

    def __repr__(self) -> str:
        return (
            f"SetPlayer(id={self.player_id}, n={self.n}, "
            f"|E_j|={len(self._edges)})"
        )


def make_set_players(partition) -> list[SetPlayer]:
    """Build the k reference players of an :class:`EdgePartition`."""
    n = partition.graph.n
    return [
        SetPlayer(j, n, view) for j, view in enumerate(partition.views)
    ]


@contextmanager
def set_players(*modules):
    """Run the protocols of ``modules`` on :class:`SetPlayer`s.

    Swaps each module's ``make_players`` attribute for
    :func:`make_set_players` and puts the originals back on exit.
    """
    originals = [(module, module.make_players) for module in modules]
    try:
        for module, _ in originals:
            module.make_players = make_set_players
        yield
    finally:
        for module, original in originals:
            module.make_players = original


def post_edges_in_turns_reference(runtime, harvest, per_edge_bits: int,
                                  label: str = "blackboard-edges",
                                  cap: int | None = None) -> set[Edge]:
    """The pre-PR 4 set-of-tuples blackboard posting round.

    Operates on a :class:`~repro.comm.blackboard.BlackboardRuntime`
    (posting to its board and charging its ledger) but dedupes via a
    Python ``set[Edge]`` exactly as
    ``BlackboardRuntime.post_edges_in_turns`` did before the posted-rows
    board — the baseline the differential tests and
    ``benchmarks/bench_mask_migration.py`` compare against.  (It also
    reproduces the historical cap quirk: in-harvest duplicates counted
    toward the cap and were charged.)
    """
    posted: set[Edge] = set()
    for player in runtime.players:
        fresh = [e for e in harvest(player) if e not in posted]
        if cap is not None:
            remaining = cap - len(posted)
            if remaining <= 0:
                break
            fresh = fresh[:remaining]
        if not fresh:
            continue
        runtime.post(
            player.player_id, tuple(fresh), per_edge_bits * len(fresh),
            label,
        )
        posted.update(fresh)
    return posted


def geometric_indices_reference(local: random.Random, universe_size: int,
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


class ScalarSharedRandomness(SharedRandomness):
    """:class:`SharedRandomness` whose Bernoulli subsets draw one index
    at a time through :func:`geometric_indices_reference`."""

    def bernoulli_subset(self, universe_size: int, probability: float,
                         tag: int = 0) -> set[int]:
        local = self._bernoulli_local(probability, tag)
        if probability == 0.0:
            return set()
        if probability == 1.0:
            return set(range(universe_size))
        return set(
            geometric_indices_reference(local, universe_size, probability)
        )

    def bernoulli_subset_mask(self, universe_size: int, probability: float,
                              tag: int = 0) -> int:
        local = self._bernoulli_local(probability, tag)
        if probability == 0.0:
            return 0
        if probability == 1.0:
            return (1 << universe_size) - 1
        return _mask_from_indices(
            geometric_indices_reference(local, universe_size, probability),
            universe_size,
        )
