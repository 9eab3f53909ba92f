"""Distributing a graph's edges among k players.

The model (Section 2): each player j receives a subset ``E_j ⊆ E``; the
logical OR of the players' characteristic vectors is ``E``.  Edges may be
*duplicated* (several players hold the same edge) and no vertex's incident
edges need to be co-located.  This module produces the per-player views under
several regimes the paper analyzes:

* ``partition_disjoint`` — the no-duplication variant (Corollaries 3.25,
  3.27, Lemma 3.2): each edge to exactly one player.
* ``partition_with_duplication`` — each edge to a random non-empty subset of
  players, the general model where e.g. exact degree costs Ω(k·d(v)).
* ``partition_all_to_all`` — worst-case duplication: everyone sees all edges.
* ``partition_adversarial_skew`` — most edges to one player; stresses the
  "relevant player" analysis of the degree-oblivious protocol (§3.4.3).
* ``partition_concentrate_edges`` — a *chosen* edge set (e.g. every
  planted-triangle edge) to one player, the rest spread over the others;
  the targeted adversary the failure-injection suite uses to probe
  soundness when no single other player can witness a triangle.
* ``partition_by_vertex`` — CONGEST-like vertex locality, as a contrast case
  explicitly *not* guaranteed by the model.

Each returns an :class:`EdgePartition` that remembers the ground truth and
checks the covering invariant (union of views == E) eagerly.
"""

from __future__ import annotations

import random
from typing import Iterable

import numpy as np

from repro.graphs.graph import (
    Edge,
    Graph,
    canonical_edge,
    key_edges,
    unique_keys,
)

__all__ = [
    "EdgePartition",
    "partition_disjoint",
    "partition_with_duplication",
    "partition_all_to_all",
    "partition_adversarial_skew",
    "partition_concentrate_edges",
    "partition_by_vertex",
]


class EdgePartition:
    """Ground truth graph + the k per-player edge views.

    Each view is held as a sorted int64 array of canonical edge keys
    ``u * n + v`` (``u < v``), the form :meth:`Graph.edge_keys` uses.
    ``EdgePartition(graph, views)`` takes views as edge iterables (any
    orientation); the partitioners below build key arrays directly
    through :meth:`from_keys`.  :attr:`views` hands the edges out as
    frozensets, built on first use.  Players
    (:func:`~repro.comm.players.make_players`) are built from the key
    arrays and memoized here until :meth:`release_players`; the trial
    executor releases them after the last trial of the batch that
    built them.
    """

    def __init__(self, graph: Graph,
                 views: Iterable[Iterable[Edge]]) -> None:
        views = tuple(frozenset(view) for view in views)
        n = graph.n
        keys = []
        outside: set[Edge] = set()
        for view in views:
            flat = []
            for u, v in view:
                u, v = canonical_edge(u, v)
                if u < 0 or v >= n:
                    outside.add((u, v))  # spurious by definition
                else:
                    flat.append(u * n + v)
            keys.append(unique_keys(np.array(flat, dtype=np.int64)))
        self._init(graph, tuple(keys), len(outside))
        self._views = views

    @classmethod
    def from_keys(cls, graph: Graph,
                  keys: Iterable[np.ndarray]) -> "EdgePartition":
        """A partition from per-player sorted, unique edge-key arrays."""
        partition = cls.__new__(cls)
        partition._init(graph, tuple(keys), 0)
        return partition

    def _init(self, graph: Graph, keys: tuple[np.ndarray, ...],
              outside: int) -> None:
        self.graph = graph
        self.view_keys = keys
        self._views = None
        self._players_cache = None
        for array in keys:
            array.flags.writeable = False
        self._check_covering(outside)

    def _check_covering(self, outside: int) -> None:
        # Covering invariant: the union of the players' keys equals the
        # graph's keys.  ``outside`` counts distinct edges with an
        # endpoint outside the vertex universe, spurious by definition.
        truth = self.graph.edge_keys()
        union = unique_keys(np.concatenate((truth[:0],) + self.view_keys))
        if not outside and np.array_equal(union, truth):
            return
        common = np.intersect1d(union, truth, assume_unique=True).size
        missing = truth.size - common
        spurious = union.size - common + outside
        raise ValueError(
            "partition does not cover the graph exactly: "
            f"{missing} missing, {spurious} spurious edges"
        )

    @property
    def views(self) -> tuple[frozenset[Edge], ...]:
        """The k views as frozensets of canonical edges, built lazily."""
        if self._views is None:
            self._views = tuple(
                self._view_of(keys) for keys in self.view_keys
            )
        return self._views

    def _view_of(self, keys: np.ndarray) -> frozenset[Edge]:
        return frozenset(key_edges(keys, self.graph.n))

    @property
    def k(self) -> int:
        return len(self.view_keys)

    @property
    def nbytes(self) -> int:
        """Bytes of the graph (:attr:`Graph.nbytes`) plus the view key
        arrays, each distinct array once; a view that is the graph's own
        key array (``partition_all_to_all``) adds nothing.  Player state
        is scratch and not counted."""
        distinct = {id(keys): keys for keys in self.view_keys}
        distinct.pop(id(self.graph.edge_keys()), None)
        return self.graph.nbytes + sum(
            int(keys.nbytes) for keys in distinct.values()
        )

    def release_players(self) -> None:
        """End the memoized player list's lifetime.

        The players, and every row and index they built, become garbage
        once their protocol run lets go of them; the next
        :func:`~repro.comm.players.make_players` call builds fresh
        players from the key arrays, which are kept.
        """
        self._players_cache = None

    @property
    def has_duplication(self) -> bool:
        total = sum(int(keys.size) for keys in self.view_keys)
        return total > self.graph.num_edges

    def view(self, player: int) -> frozenset[Edge]:
        return self.views[player]

    def multiplicity(self, edge: Edge) -> int:
        """How many players hold ``edge``."""
        return sum(1 for view in self.views if edge in view)


def _require_players(k: int) -> None:
    if k < 1:
        raise ValueError(f"need at least one player, got k={k}")


def _replayed_randrange(rng: random.Random, k: int,
                        count: int) -> np.ndarray:
    """``[rng.randrange(k) for _ in range(count)]`` as one array.

    CPython's ``randrange(k)`` draws ``getrandbits(b)`` with
    ``b = k.bit_length()`` — the top ``b`` bits of the next 32-bit
    MT19937 word — and rejects values ``>= k``.  Here the words come in
    bulk from ``rng.getrandbits(32 * words)`` (first word least
    significant) and one mask does the rejection, so every value equals
    the scalar draw.  ``rng`` ends past the words read and is not meant
    for reuse.  ``k`` must be below ``2**32`` (one word per draw).
    """
    bits = k.bit_length()
    if bits > 32:
        raise ValueError(f"at most 2**32 - 1 players, got k={k}")
    parts = [np.empty(0, dtype=np.int64)]
    found = 0
    while found < count:
        # Expected words for the remaining draws, plus slack so one
        # pass almost always suffices.
        words = (count - found) * (1 << bits) * 11 // (10 * k) + 64
        raw = np.frombuffer(
            rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
            dtype="<u4",
        )
        draws = (raw >> (32 - bits)).astype(np.int64)
        accepted = draws[draws < k]
        parts.append(accepted)
        found += accepted.size
    return np.concatenate(parts)[:count]


def _split_by_owner(keys: np.ndarray, owners: np.ndarray,
                    k: int) -> tuple[np.ndarray, ...]:
    """Player j's keys are ``keys[owners == j]``, still sorted.

    The owners are sorted as the smallest unsigned dtype that holds
    ``k - 1``: numpy's stable sort is a radix sort on 8- and 16-bit
    integers, and a stable sort's permutation does not depend on the
    dtype.
    """
    order = np.argsort(owners.astype(np.min_scalar_type(k - 1)),
                       kind="stable")
    bounds = np.cumsum(np.bincount(owners, minlength=k))[:-1]
    return tuple(np.split(keys[order], bounds))


def _key_arrays(buckets: list[list[int]]) -> tuple[np.ndarray, ...]:
    return tuple(np.array(bucket, dtype=np.int64) for bucket in buckets)


def partition_disjoint(graph: Graph, k: int, seed: int = 0) -> EdgePartition:
    """Each edge assigned to exactly one uniformly random player.

    Edge ``i`` in ascending canonical order goes to the ``i``-th
    ``randrange(k)`` draw of ``random.Random(seed)``, replayed in bulk.
    """
    _require_players(k)
    keys = graph.edge_keys()
    owners = _replayed_randrange(random.Random(seed), k, int(keys.size))
    return EdgePartition.from_keys(graph, _split_by_owner(keys, owners, k))


def partition_with_duplication(graph: Graph, k: int, seed: int = 0,
                               duplication_probability: float = 0.3
                               ) -> EdgePartition:
    """Each edge to one random owner, plus each other player w.p. ``p``.

    Guarantees coverage (the owner) while exercising the duplicated-input
    code paths (degree approximation, permutation-based unbiased sampling).
    """
    _require_players(k)
    if not 0.0 <= duplication_probability <= 1.0:
        raise ValueError(
            f"duplication probability must be in [0,1], "
            f"got {duplication_probability}"
        )
    rng = random.Random(seed)
    buckets: list[list[int]] = [[] for _ in range(k)]
    for key in graph.edge_keys().tolist():
        owner = rng.randrange(k)
        buckets[owner].append(key)
        for other in range(k):
            if other != owner and rng.random() < duplication_probability:
                buckets[other].append(key)
    return EdgePartition.from_keys(graph, _key_arrays(buckets))


def partition_all_to_all(graph: Graph, k: int) -> EdgePartition:
    """Maximal duplication: every player sees every edge."""
    _require_players(k)
    return EdgePartition.from_keys(graph, (graph.edge_keys(),) * k)


def partition_adversarial_skew(graph: Graph, k: int, seed: int = 0,
                               heavy_fraction: float = 0.9) -> EdgePartition:
    """Player 0 gets ~``heavy_fraction`` of edges, the rest spread thin.

    Models the irrelevant-player regime of §3.4.3: most players observe a
    local average degree far below the global one.
    """
    _require_players(k)
    if not 0.0 < heavy_fraction <= 1.0:
        raise ValueError(
            f"heavy fraction must be in (0,1], got {heavy_fraction}"
        )
    rng = random.Random(seed)
    buckets: list[list[int]] = [[] for _ in range(k)]
    for key in graph.edge_keys().tolist():
        if k == 1 or rng.random() < heavy_fraction:
            buckets[0].append(key)
        else:
            buckets[1 + rng.randrange(k - 1)].append(key)
    return EdgePartition.from_keys(graph, _key_arrays(buckets))


def partition_concentrate_edges(graph: Graph, k: int,
                                focus_edges, seed: int = 0) -> EdgePartition:
    """Give all of ``focus_edges`` to player 0, the rest to players 1..k-1.

    The targeted adversary: concentrating e.g. every planted-triangle
    edge on a single player means no *other* player's view contains a
    full triangle, and cross-player detection paths carry the entire
    burden.  Protocols may lose completeness under this split (the
    planted structure hides in one view) but must stay sound — a
    guarantee the failure-injection suite asserts.

    ``focus_edges`` may list edges in either orientation; edges not in
    the graph are rejected (a typo'd focus set silently vanishing into
    player 0 would defang the adversary).  With ``k == 1`` every edge
    lands on player 0 and the split degenerates to all-to-one.
    """
    _require_players(k)
    n = graph.n
    focus: set[int] = set()
    for u, v in focus_edges:
        edge = canonical_edge(u, v)
        if not graph.has_edge(*edge):
            raise ValueError(f"focus edge {edge} is not in the graph")
        focus.add(edge[0] * n + edge[1])
    rng = random.Random(seed)
    buckets: list[list[int]] = [[] for _ in range(k)]
    for key in graph.edge_keys().tolist():
        if k == 1 or key in focus:
            buckets[0].append(key)
        else:
            buckets[1 + rng.randrange(k - 1)].append(key)
    return EdgePartition.from_keys(graph, _key_arrays(buckets))


def partition_by_vertex(graph: Graph, k: int, seed: int = 0) -> EdgePartition:
    """Assign vertices to players; each edge to its lower endpoint's player.

    A CONGEST-flavoured locality pattern.  The paper's model explicitly does
    *not* promise this; it is provided as a contrast workload.
    """
    _require_players(k)
    owner = _replayed_randrange(random.Random(seed), k, graph.n)
    keys = graph.edge_keys()
    return EdgePartition.from_keys(
        graph, _split_by_owner(keys, owner[keys // graph.n], k)
    )
