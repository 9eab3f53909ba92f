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

A player holds its view as the sorted canonical edge-key array
``u * n + v`` it was built from, and derives everything else from it on
first use.  The sample-wide harvests — the protocol hot path — test the
key array against the samples' membership arrays in a few numpy passes
instead of per-edge Python set work.  Per-vertex queries read arrays: a
``bincount`` degree array and a neighbour index (an ``indptr`` plus one
stable argsort of the endpoints), so ``local_neighbor_array(v)`` is a
slice.  The bitset form of :class:`~repro.graphs.graph.Graph` (one
adjacency-mask int per vertex) is built only where a caller reads it:
one row per vertex asked for (``local_neighbor_mask``, ``has_edge``),
or all n rows at once for whole-view consumers (``adjacency_rows``,
``sorted_edges``).  Every row read is the same int either way.

The sample-wide mask harvests (``edges_within_mask``,
``edges_touching_both_mask``) return the matching slice of the key array
itself: a sorted int64 array of canonical keys, which is ascending
canonical edge order, so ``[:cap]`` truncations and ``len()`` pricing
mean what they meant for the sorted edge lists the protocols sent
before.  Simultaneous messages are these key arrays; the referee
(:mod:`repro.core.referee`) unions them without building rows.  The
set-based ``SetPlayer`` preserved under ``tests/oracles/`` returns the
same arrays.

Players built via :func:`make_players` are memoized on the
:class:`~repro.graphs.partition.EdgePartition` until
:meth:`~repro.graphs.partition.EdgePartition.release_players`.  The
trial executor releases them when a trial batch ends, so the trials of
one batch share whatever the first trial built, and a partition kept in
the instance cache holds only its key arrays between batches.
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
    key_edges,
    mask_of,
    unique_keys,
)
from repro.graphs.kernels.bigint import or_edges_into_rows

__all__ = ["Player", "make_players"]

#: Keys (predicates times v's local degree) from which Theorem 3.1 hit
#: tests key v's neighbours as one array: below it the fixed cost of the
#: numpy passes (a dozen uint64 ufuncs over v's neighbour slice) exceeds
#: a scalar key per neighbour.  Both forms compute the same keys.
_ARRAY_HIT_MIN_KEYS = 32


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
        duplicates allowed).  Ignored when ``keys`` is given.
    keys:
        Optional prebuilt form of the view: the sorted canonical edge
        keys ``u * n + v`` (the partition's
        :attr:`~repro.graphs.partition.EdgePartition.view_keys`).
        Treated as read-only and may be shared between Player instances.
        Built from ``edges`` otherwise.  The edge count is the key
        count; degrees, neighbour lists and adjacency rows are derived
        from the keys on first use.
    """

    __slots__ = (
        "player_id", "n", "_keys", "_num_edges", "_edges_cache", "_ends",
        "_degrees", "_neighbours", "_rows", "_row_memo",
    )

    def __init__(self, player_id: int, n: int, edges: Iterable[Edge] = (),
                 *, keys: np.ndarray | None = None) -> None:
        self.player_id = player_id
        self.n = n
        if keys is None:
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
            keys.flags.writeable = False
        self._keys = keys
        self._num_edges = int(keys.size)
        self._edges_cache: frozenset[Edge] | None = None
        self._ends: tuple[np.ndarray, np.ndarray] | None = None
        self._degrees: np.ndarray | None = None
        self._neighbours: tuple[np.ndarray, np.ndarray] | None = None
        self._rows: list[int] | None = None
        self._row_memo: dict[int, int] = {}

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
        for u, row in enumerate(self.adjacency_rows()):
            upper = row >> (u + 1)
            while upper:
                low = upper & -upper
                yield (u, u + low.bit_length())
                upper ^= low

    def sorted_edges(self) -> list[Edge]:
        """All local edges in ascending canonical order."""
        return list(self._iter_edges())

    def edge_keys(self) -> np.ndarray:
        """All local edges as the sorted, read-only canonical key array.

        The whole view in message form, with no rows or tuples built:
        the exact baseline sends it as is.
        """
        return self._keys

    def adjacency_rows(self) -> list[int]:
        """The per-vertex adjacency masks — treat as READ-ONLY.

        All n rows are built on the first call and memoized; the
        per-vertex rows built before it are dropped.
        """
        rows = self._rows
        if rows is None:
            us, vs = self._endpoints()
            rows = [0] * self.n
            or_edges_into_rows(rows, us, vs)
            self._rows = rows
            self._row_memo.clear()
        return rows

    def _row(self, v: int) -> int:
        """Row of ``v``, empty for out-of-universe vertices.

        Read from :meth:`adjacency_rows` once that exists, else ORed
        from v's neighbour slice on first use and memoized per vertex.
        Matches the reference SetPlayer, whose dict adjacency answers
        unknown-vertex queries with "no neighbours" — in particular a
        negative id must not wrap around to vertex ``n + v``.
        """
        if not 0 <= v < self.n:
            return 0
        rows = self._rows
        if rows is not None:
            return rows[v]
        row = self._row_memo.get(v)
        if row is None:
            row = self._row_memo[v] = mask_of(
                self.local_neighbor_array(v).tolist()
            )
        return row

    def _mask_in_universe(self, vertices: Iterable[int]) -> int:
        """``mask_of(vertices)`` without the ids outside ``[0, n)``.

        Such ids hold no edges here (the rule :meth:`_row` applies), and
        a negative one has no bit to set.
        """
        n = self.n
        return mask_of(u for u in vertices if 0 <= u < n)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or v < 0:
            return False
        return bool(self._row(u) >> v & 1)

    def _degree_array(self) -> np.ndarray:
        """d_j(v) for every vertex ``0 .. n-1``: one ``bincount``, memoized."""
        degrees = self._degrees
        if degrees is None:
            us, vs = self._endpoints()
            degrees = self._degrees = np.bincount(
                us, minlength=self.n
            ) + np.bincount(vs, minlength=self.n)
        return degrees

    def local_degree(self, v: int) -> int:
        """d_j(v): degree of v in this player's view."""
        if 0 <= v < self.n:
            return int(self._degree_array()[v])
        return 0

    def local_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self.local_neighbor_array(v).tolist())

    def local_neighbor_mask(self, v: int) -> int:
        """N_j(v) as a bitmask — the raw kernel word."""
        return self._row(v)

    def local_neighbor_array(self, v: int) -> np.ndarray:
        """N_j(v) as an ascending, read-only int64 array.

        A slice of the neighbour index, built on the first call: the
        ``indptr`` is the cumulative degree array, and one stable
        argsort groups the key endpoints by vertex.  Sources run
        ``vs`` before ``us``, so each slice lists v's lower neighbours
        (ascending, from keys ``(u, v)``) before its upper ones.
        """
        if not 0 <= v < self.n:
            return np.empty(0, dtype=np.int64)
        index = self._neighbours
        if index is None:
            us, vs = self._endpoints()
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(self._degree_array(), out=indptr[1:])
            order = np.argsort(np.concatenate((vs, us)), kind="stable")
            targets = np.concatenate((us, vs))[order]
            targets.flags.writeable = False
            index = self._neighbours = (indptr, targets)
        indptr, targets = index
        return targets[indptr[v]:indptr[v + 1]]

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
        degree = self.local_degree(v)
        if degree == 0:
            return None
        return degree.bit_length() - 1

    def _suspected_indices(self, index: int, k: int) -> np.ndarray:
        """B~_i^j as an ascending vertex array over the memoized degrees."""
        degrees = self._degree_array()
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
            self.local_neighbor_array(v).tolist(), rank
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
    # arrays in a few numpy passes and return the surviving keys, in
    # key order, which is ascending canonical order (== the ``sorted``
    # order protocol messages are priced and capped in).  The set forms
    # keep the original API for callers that still hold Python sets.
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
        return set(
            self.edges_at_vertex_in_mask(v, self._mask_in_universe(sample))
        )

    def edges_within_mask(self, sample_mask: int) -> np.ndarray:
        """E_j ∩ S² as sorted edge keys: Algorithms 7 and 9's harvest."""
        us, vs = self._endpoints()
        in_s = self._members(sample_mask)
        hit = (in_s.take(us) & in_s.take(vs)).view(bool)
        return self._keys[hit]

    def edges_within(self, sample: set[int]) -> set[Edge]:
        """E_j ∩ S²: the induced-subgraph harvest of Algorithms 7 and 9."""
        keys = self.edges_within_mask(self._mask_in_universe(sample))
        return set(key_edges(keys, self.n))

    def edges_touching_both_mask(self, r_mask: int, rs_mask: int
                                 ) -> np.ndarray:
        """Edges with one endpoint in R, the other in R ∪ S, as sorted keys.

        An edge {a, b} qualifies when a ∈ R and b ∈ RS or b ∈ R and
        a ∈ RS; the two arguments need not be nested.
        """
        us, vs = self._endpoints()
        # Bit 0 marks R, bit 1 marks RS: one gather per endpoint.
        code = self._members(r_mask) | (self._members(rs_mask) << 1)
        cu = code.take(us)
        cv = code.take(vs)
        hit = ((cu & (cv >> 1)) | (cv & (cu >> 1))).view(bool)
        return self._keys[hit]

    def edges_touching_both(self, r_sample: set[int], rs_sample: set[int]
                            ) -> set[Edge]:
        """Edges with one endpoint in R and the other in R ∪ S (Alg 8/10)."""
        keys = self.edges_touching_both_mask(
            self._mask_in_universe(r_sample),
            self._mask_in_universe(rs_sample),
        )
        return set(key_edges(keys, self.n))

    def sample_hits_vertex_mask(self, v: int, sample_mask: int) -> bool:
        """Mask form of :meth:`sample_hits_vertex`: one ``&`` and a test."""
        return bool(self._row(v) & sample_mask)

    def sample_hits_vertex(self, v: int, sample: set[int]) -> bool:
        """Is S ∩ (edges of E_j at v) non-empty?  One Theorem 3.1 experiment.

        ``sample`` is a public set of *potential neighbours* of v; the
        player answers with a single bit.
        """
        return self.sample_hits_vertex_mask(v, self._mask_in_universe(sample))

    def any_incident_neighbor_in(self, v: int,
                                 pred: Callable[[int], bool]) -> bool:
        """Does any local neighbour of v satisfy the public predicate?

        The lazy-predicate form of :meth:`sample_hits_vertex`: one
        Theorem 3.1 experiment, evaluated in O(d_j(v)) local time; the
        one-predicate case of :meth:`any_incident_neighbor_in_each`.
        """
        return self.any_incident_neighbor_in_each(v, [pred])[0]

    def any_incident_neighbor_in_each(
            self, v: int, preds: Sequence[Callable[[int], bool]]
    ) -> list[bool]:
        """``[any_incident_neighbor_in(v, pred) for pred in preds]``.

        A round of Theorem 3.1 experiments answered together.  When every
        predicate is a :class:`~repro.comm.randomness.PublicPredicate`
        and ``len(preds)`` times v's local degree reaches
        ``_ARRAY_HIT_MIN_KEYS``, v's neighbour array is keyed under all
        of them in one block; otherwise each predicate is asked per
        neighbour.
        """
        neighbours = self.local_neighbor_array(v)
        if not neighbours.size:
            return [False] * len(preds)
        if (
            len(preds) * neighbours.size >= _ARRAY_HIT_MIN_KEYS
            and all(isinstance(pred, PublicPredicate) for pred in preds)
        ):
            return PublicPredicate.any_pass(preds, neighbours)
        neighbours = neighbours.tolist()
        return [any(pred(u) for u in neighbours) for pred in preds]

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

    Each player is built from its sorted key array alone, so this costs
    no row building.  The player list itself is memoized on the
    partition (players are read-only views over the partition's key
    arrays, and their internal caches memoize pure functions of those
    keys) until :meth:`EdgePartition.release_players
    <repro.graphs.partition.EdgePartition.release_players>`.
    :meth:`~repro.runtime.executor.TrialTask.run_batch` releases the
    batch's partitions when it returns, so the repetition axis of a
    batched grid point shares one set of Player objects and whatever
    rows and indexes earlier trials built, and no later batch reads or
    pins them.
    """
    cached = partition._players_cache
    if cached is not None:
        return cached
    n = partition.graph.n
    players = [
        Player(j, n, keys=partition.view_keys[j])
        for j in range(partition.k)
    ]
    partition._players_cache = players
    return players
