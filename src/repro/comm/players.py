"""Players: strictly-local computation over a private edge view.

A :class:`Player` wraps one player's input ``E_j`` and exposes exactly the
local computations the paper's protocols perform "for free" (computation on
one's own input costs nothing; only communication is charged).  Protocol
code must route every piece of information that leaves a player through the
model runtimes, which charge the ledger — the Player API deliberately never
reveals anything about other players or the ground-truth graph.

The methods mirror the local steps of Sections 3.1, 3.3 and 3.4:

* degree bookkeeping (``local_degree``, ``degree_msb_index``, ``B~_i^j``),
* permutation-ranked minima (Algorithm 1's unbiased sampling trick; the
  suspected-bucket pick is one numpy pass over a memoized degree array),
* edge harvesting against publicly sampled vertex sets (Algorithms 4, 7-10),
* the closing-edge check that finishes the unrestricted protocol
  ("each player examines its own input ... for an edge that closes a
  triangle together with some vee").

A player holds its view twice: as the bitset kernel of
:class:`~repro.graphs.graph.Graph` (one adjacency-mask int per vertex, so
``has_edge`` is a shift-and-test and ``local_degree`` a popcount) and as
the sorted canonical edge-key array it was built from.  The sample-wide
harvests — the protocol hot path — test the key array against the
samples' membership arrays in a few numpy passes instead of per-edge
Python set work.  The mask-form harvests (``edges_within_mask`` and
friends) return edges in ascending canonical order, which is exactly the
``sorted(...)`` order the protocols previously imposed, so messages (and
cap truncations) are byte-identical to the set-based ``SetPlayer``
preserved under ``tests/oracles/``.

Players built via :func:`make_players` reuse the per-player adjacency rows
cached on the :class:`~repro.graphs.partition.EdgePartition`, so repeated
trials on the same partition never re-shred the edge views.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.comm.randomness import PublicOrder, PublicPredicate
from repro.graphs.buckets import suspected_degree_bounds
from repro.graphs.graph import (
    Edge,
    canonical_edge,
    iter_bits,
    mask_of,
    unique_keys,
)
from repro.graphs.kernels.bigint import or_edges_into_rows

__all__ = ["Player", "make_players"]

#: Local degree from which a Theorem 3.1 hit test keys v's neighbours as
#: one array: below it the fixed cost of the numpy passes (unpacking all
#: n bits of the row, a dozen uint64 ufuncs) exceeds a scalar key per
#: neighbour.  Both forms compute the same keys.
_ARRAY_HIT_MIN_DEGREE = 32


class Player:
    """One player of a number-in-hand protocol.

    Parameters
    ----------
    player_id:
        Index in ``0 .. k-1``.
    n:
        Number of vertices of the (publicly known) vertex universe.
    edges:
        The player's private edge view ``E_j`` (any orientation,
        duplicates allowed).  Ignored when ``rows`` and ``keys`` are
        given.
    rows, keys:
        Optional prebuilt form of the view, given together: per-vertex
        adjacency masks and the sorted canonical edge keys
        ``u * n + v`` (the cached
        :meth:`~repro.graphs.partition.EdgePartition.adjacency_rows` and
        :attr:`~repro.graphs.partition.EdgePartition.view_keys`).
        Treated as read-only and may be shared between Player instances.
        Built from ``edges`` otherwise.  The edge count is the key
        count and the degree array one ``bincount`` over the keys.
    """

    __slots__ = (
        "player_id", "n", "_rows", "_keys", "_num_edges", "_edges_cache",
        "_ends", "_degrees",
    )

    def __init__(self, player_id: int, n: int, edges: Iterable[Edge] = (),
                 *, rows: list[int] | None = None,
                 keys: np.ndarray | None = None) -> None:
        self.player_id = player_id
        self.n = n
        if (rows is None) != (keys is None):
            raise TypeError("rows and keys are given together")
        if rows is None:
            flat = []
            for u, v in edges:
                if u == v:
                    raise ValueError(f"self-loop ({u}, {v}) is not a valid edge")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(
                        f"edge ({u}, {v}) outside the vertex universe [0, {n})"
                    )
                flat.append(u * n + v if u < v else v * n + u)
            keys = unique_keys(np.array(flat, dtype=np.int64))
            rows = [0] * n
            or_edges_into_rows(rows, keys // n, keys % n)
        self._rows = rows
        self._keys = keys
        self._num_edges = int(keys.size)
        self._edges_cache: frozenset[Edge] | None = None
        self._ends: tuple[np.ndarray, np.ndarray] | None = None
        self._degrees: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Introspection (local, free)
    # ------------------------------------------------------------------
    @property
    def edges(self) -> frozenset[Edge]:
        if self._edges_cache is None:
            self._edges_cache = frozenset(self._iter_edges())
        return self._edges_cache

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def _iter_edges(self):
        for u, row in enumerate(self._rows):
            upper = row >> (u + 1)
            while upper:
                low = upper & -upper
                yield (u, u + low.bit_length())
                upper ^= low

    def sorted_edges(self) -> list[Edge]:
        """All local edges in ascending canonical order."""
        return list(self._iter_edges())

    def _row(self, v: int) -> int:
        """Row of ``v``, empty for out-of-universe vertices.

        Matches the reference SetPlayer, whose dict adjacency answers
        unknown-vertex queries with "no neighbours" — in particular a
        negative id must not wrap around to vertex ``n + v``.
        """
        if 0 <= v < self.n:
            return self._rows[v]
        return 0

    def adjacency_rows(self) -> list[int]:
        """The per-vertex adjacency masks — treat as READ-ONLY."""
        return self._rows

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or v < 0:
            return False
        return bool(self._row(u) >> v & 1)

    def local_degree(self, v: int) -> int:
        """d_j(v): degree of v in this player's view."""
        return self._row(v).bit_count()

    def local_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(iter_bits(self._row(v)))

    def local_neighbor_mask(self, v: int) -> int:
        """N_j(v) as a bitmask — the raw kernel word."""
        return self._row(v)

    def local_neighbor_array(self, v: int) -> np.ndarray:
        """N_j(v) as an ascending int64 array, unpacked from v's row.

        One ``np.unpackbits`` over the row's bytes, not memoized: the
        array is built per call so players hold no second index.
        """
        row = self._row(v)
        raw = np.frombuffer(
            row.to_bytes((row.bit_length() + 7) >> 3, "little"),
            dtype=np.uint8,
        )
        return np.flatnonzero(np.unpackbits(raw, bitorder="little"))

    def average_local_degree(self) -> float:
        """d-bar_j = 2|E_j| / n, the §3.4.3 per-player density estimate."""
        if self.n == 0:
            return 0.0
        return 2.0 * self.num_edges / self.n

    def degree_msb_index(self, v: int) -> int | None:
        """Index of the most significant bit of d_j(v); None if d_j(v)=0.

        Phase one of Theorem 3.1: each player reports only the MSB index,
        costing O(log log d) bits.
        """
        degree = self._row(v).bit_count()
        if degree == 0:
            return None
        return degree.bit_length() - 1

    def _suspected_indices(self, index: int, k: int) -> np.ndarray:
        """B~_i^j as an ascending vertex array over the memoized degrees."""
        degrees = self._degrees
        if degrees is None:
            n = self.n
            us, vs = self._endpoints()
            degrees = np.bincount(us, minlength=n) + np.bincount(
                vs, minlength=n
            )
            self._degrees = degrees
        lower, upper = suspected_degree_bounds(index, k)
        return np.flatnonzero((degrees >= lower) & (degrees <= upper))

    def suspected_bucket(self, index: int, k: int) -> set[int]:
        """B~_i^j: vertices with 3^i / k <= d_j(v) <= 3^(i+1)."""
        return set(self._suspected_indices(index, k).tolist())

    # ------------------------------------------------------------------
    # Permutation-ranked minima (Algorithm 1 and the §3.1 primitives)
    # ------------------------------------------------------------------
    def first_in_suspected_bucket(self, index: int, k: int,
                                  order: PublicOrder) -> int | None:
        """Algorithm 1's local step: the lowest-ranked vertex of B~_i^j.

        One degree-array scan for the bucket and one ``argmin`` over its
        public keys; equal to ``first_vertex_under_rank(
        suspected_bucket(index, k), order)``.
        """
        return order.argmin(self._suspected_indices(index, k))

    def first_vertex_under_rank(self, candidates: Iterable[int],
                                rank: Callable[[int], tuple]) -> int | None:
        """Lowest-ranked vertex among ``candidates`` (public order).

        Because every player evaluates the same public rank, the minimum
        over all players' minima is the global minimum — an unbiased,
        duplication-immune uniform sample.
        """
        return min(candidates, key=rank, default=None)

    def first_incident_edge_under_rank(self, v: int,
                                       rank: Callable[[int], tuple]
                                       ) -> Edge | None:
        """Lowest-ranked edge of E_j incident to v, ranking by far endpoint.

        Primitive "choose a uniformly random edge adjacent to v" (§3.1):
        the public rank orders the n-1 potential incident edges; the
        coordinator then takes the global minimum over players' minima.
        """
        best_neighbor = self.first_vertex_under_rank(
            iter_bits(self._row(v)), rank
        )
        if best_neighbor is None:
            return None
        return canonical_edge(v, best_neighbor)

    def first_edge_under_rank(self, rank: Callable[[Edge], tuple]
                              ) -> Edge | None:
        """Lowest-ranked edge of E_j under a public order on edges."""
        return min(self._iter_edges(), key=rank, default=None)

    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """The keys split into endpoint arrays ``(us, vs)``, memoized."""
        ends = self._ends
        if ends is None:
            n, keys = self.n, self._keys
            ends = self._ends = (keys // n, keys % n)
        return ends

    def _members(self, mask: int) -> np.ndarray:
        """Membership of each vertex ``0 .. n-1`` in ``mask`` as 0/1 bytes."""
        n = self.n
        size = max(n, mask.bit_length())
        raw = np.frombuffer(mask.to_bytes((size + 7) >> 3, "little"),
                            dtype=np.uint8)
        return np.unpackbits(raw, count=n, bitorder="little")

    # ------------------------------------------------------------------
    # Edge harvesting against public vertex samples
    #
    # The mask forms are the hot path.  The two sample-wide harvests
    # test every edge of the key array against the samples' membership
    # arrays in a few numpy passes and emit the survivors in key order,
    # which is ascending canonical order (== the ``sorted`` order
    # protocol messages are priced and capped in).  The set forms keep
    # the original API for callers that still hold Python sets.
    # ------------------------------------------------------------------
    def edges_at_vertex_in_mask(self, v: int, sample_mask: int) -> list[Edge]:
        """E_j ∩ ({v} × S) as a sorted list, S given as a mask."""
        hits = self._row(v) & sample_mask
        return [
            (v, u) if v < u else (u, v) for u in iter_bits(hits)
        ]

    def edges_at_vertex_in_sample(self, v: int, sample: set[int]
                                  ) -> set[Edge]:
        """E_j ∩ ({v} × S): Algorithm 4's per-vertex edge sample."""
        return set(self.edges_at_vertex_in_mask(v, mask_of(sample)))

    def edges_within_mask(self, sample_mask: int) -> list[Edge]:
        """E_j ∩ S² as a sorted list: Algorithms 7 and 9's harvest."""
        us, vs = self._endpoints()
        in_s = self._members(sample_mask)
        hit = (in_s.take(us) & in_s.take(vs)).view(bool)
        return list(zip(us[hit].tolist(), vs[hit].tolist()))

    def edges_within(self, sample: set[int]) -> set[Edge]:
        """E_j ∩ S²: the induced-subgraph harvest of Algorithms 7 and 9."""
        return set(self.edges_within_mask(mask_of(sample)))

    def edges_touching_both_mask(self, r_mask: int, rs_mask: int
                                 ) -> list[Edge]:
        """Edges with one endpoint in R, the other in R ∪ S, sorted.

        An edge {a, b} qualifies when a ∈ R and b ∈ RS or b ∈ R and
        a ∈ RS; the two arguments need not be nested.
        """
        us, vs = self._endpoints()
        # Bit 0 marks R, bit 1 marks RS: one gather per endpoint.
        code = self._members(r_mask) | (self._members(rs_mask) << 1)
        cu = code.take(us)
        cv = code.take(vs)
        hit = ((cu & (cv >> 1)) | (cv & (cu >> 1))).view(bool)
        return list(zip(us[hit].tolist(), vs[hit].tolist()))

    def edges_touching_both(self, r_sample: set[int], rs_sample: set[int]
                            ) -> set[Edge]:
        """Edges with one endpoint in R and the other in R ∪ S (Alg 8/10)."""
        return set(
            self.edges_touching_both_mask(
                mask_of(r_sample), mask_of(rs_sample)
            )
        )

    def sample_hits_vertex_mask(self, v: int, sample_mask: int) -> bool:
        """Mask form of :meth:`sample_hits_vertex`: one ``&`` and a test."""
        return bool(self._row(v) & sample_mask)

    def sample_hits_vertex(self, v: int, sample: set[int]) -> bool:
        """Is S ∩ (edges of E_j at v) non-empty?  One Theorem 3.1 experiment.

        ``sample`` is a public set of *potential neighbours* of v; the
        player answers with a single bit.
        """
        row = self._row(v)
        if not row:
            return False
        if len(sample) < row.bit_count():
            return any(row >> u & 1 for u in sample)
        return any(u in sample for u in iter_bits(row))

    def any_incident_neighbor_in(self, v: int,
                                 pred: Callable[[int], bool]) -> bool:
        """Does any local neighbour of v satisfy the public predicate?

        The lazy-predicate form of :meth:`sample_hits_vertex`: one
        Theorem 3.1 experiment, evaluated in O(d_j(v)) local time.  A
        :class:`~repro.comm.randomness.PublicPredicate` tests the whole
        neighbour array at once when v has at least
        ``_ARRAY_HIT_MIN_DEGREE`` local neighbours; any other callable,
        and a predicate over fewer neighbours, is asked per neighbour.
        """
        row = self._row(v)
        if (
            isinstance(pred, PublicPredicate)
            and row.bit_count() >= _ARRAY_HIT_MIN_DEGREE
        ):
            return bool(pred.test(self.local_neighbor_array(v)).any())
        return any(pred(u) for u in iter_bits(row))

    def any_edge_index_in(self, edge_index: Callable[[Edge], int],
                          pred: Callable[[int], bool]) -> bool:
        """Does any local edge's public index satisfy the predicate?

        Used by the distinct-elements / |E|-estimation generalization of
        Theorem 3.1 ("this approximation procedure can be applied to any
        subset of vertex pairs, including estimating the total number of
        edges in the graph").
        """
        return any(pred(edge_index(edge)) for edge in self._iter_edges())

    # ------------------------------------------------------------------
    # Triangle closing
    # ------------------------------------------------------------------
    def find_closing_edge(self, vees: Iterable[tuple[Edge, Edge]]
                          ) -> tuple[Edge, Edge, Edge] | None:
        """Check the local input for an edge closing any posted vee.

        Returns (vee edge 1, vee edge 2, closing edge) or None.  This is
        the final interactive round of the unrestricted protocol: the
        coordinator posted candidate vees, each player scans its own input.
        """
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
        """Scan all vee-shaped pairs among ``edges`` for a local closer.

        Convenience for protocols that post a bag of edges rather than
        explicit vees; quadratic in len(edges), used only on small bags.
        """
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
            f"Player(id={self.player_id}, n={self.n}, "
            f"|E_j|={self.num_edges})"
        )


def make_players(partition) -> list[Player]:
    """Build the k Player objects of an :class:`EdgePartition`.

    The player list itself is memoized on the partition (players are
    read-only views over the partition's cached adjacency rows, and
    their internal caches memoize pure functions of those rows), so the
    repetition axis of a batched grid point shares one set of Player
    objects — repeated trials pay nothing for player construction or row
    re-shredding.
    """
    cached = partition._players_cache
    if cached is not None:
        return cached
    n = partition.graph.n
    players = [
        Player(
            j, n, rows=partition.adjacency_rows(j),
            keys=partition.view_keys[j],
        )
        for j in range(partition.k)
    ]
    partition._players_cache = players
    return players
