"""Compact undirected graph used throughout the reproduction.

Vertices are integers ``0 .. n-1``; edges are canonical ordered pairs
``(u, v)`` with ``u < v``.  :class:`Graph` stores one arbitrary-precision
Python int per vertex whose bit ``v`` is set iff edge ``{u, v}``
exists: ``has_edge`` is a shift-and-test, ``degree`` is
``int.bit_count()``, and a common neighbourhood is a single ``&``
executed word-at-a-time in C.  These int rows are also the exchange
form every mask-native caller reads.

Graphs built from edge arrays are *keys-first*, like the players cut
from them: :meth:`Graph.from_edge_arrays` keeps the validated, sorted
edge-key array, and the rows are built from those keys the first time
a query needs them — so their build time lands in the first reader's
trace span, not the generator's.  ``n``, ``num_edges``, ``edge_keys``,
``average_degree``, ``nbytes``, ``copy``, ``==``, pickling and
:meth:`Graph.add_edge_arrays` work on the keys alone; the scalar
mutators build first, then mutate.  Most generated instances are only
ever partitioned into players and never build rows, which is what
keeps hosts of n = 10^6 vertices cheap: an n-bit row per vertex would
cost n²/8 bytes, the keys cost 8 bytes an edge.

The paper's model hands each player a *characteristic vector* over potential
edges; :class:`Graph` is the ground-truth union of those vectors, and
:mod:`repro.graphs.partition` produces the per-player views.

Bulk primitives (:meth:`Graph.neighbor_mask`, :meth:`Graph.common_neighbors`,
:meth:`Graph.add_edges`, :meth:`Graph.add_neighbors`,
:meth:`Graph.adjacency_rows`, :meth:`Graph.induced_subgraph_mask_rows`,
:meth:`Graph.edge_keys`, plus the module-level :func:`iter_bits`,
:func:`mask_of` and :func:`or_edges_into_rows`) expose the masks and
edge keys directly so the triangle layer, generators, bucketing, the
players and the streaming reduction can stay on the fast path without
reaching into private state.  A pure-Python ``set``-based twin,
``SetGraph``, lives with the test oracles under ``tests/oracles/`` for
differential testing.
"""
from __future__ import annotations

import sys
from typing import Iterable, Iterator

__all__ = ["Graph", "canonical_edge", "iter_bits", "mask_of"]

Edge = tuple[int, int]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """The bitmask with exactly the bits in ``vertices`` set."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def or_edges_into_rows(rows: list[int], us, vs) -> None:
    """Set both directions of every edge ``(us[i], vs[i])`` in ``rows``.

    The one array-to-bignum builder: a keys-first graph's rows and a
    player's whole row list (:meth:`~repro.comm.players.Player.adjacency_rows`)
    share it.  A plain loop over ``tolist()`` values beats per-vertex
    numpy byte buffers on sparse rows, where most vertices have few
    neighbours.
    """
    for u, v in zip(us.tolist(), vs.tolist()):
        rows[u] |= 1 << v
        rows[v] |= 1 << u


def _row_edges(rows: list[int]) -> Iterator[Edge]:
    """The canonical edges of symmetric ``rows``, ascending."""
    for u, mask in enumerate(rows):
        upper = mask >> (u + 1)
        while upper:
            low = upper & -upper
            yield (u, u + low.bit_length())
            upper ^= low


def unique_keys(keys):
    """Sorted distinct values of an int64 key array.

    ``np.unique`` by one sort and a neighbour compare: numpy 2.x's
    hash-based ``np.unique`` is over an order of magnitude slower on
    int64 keys.
    """
    import numpy as np

    keys = np.sort(keys)
    if keys.size > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def key_edges(keys, n: int) -> Iterator[Edge]:
    """The ``(u, v)`` tuples of canonical edge keys ``u * n + v``, in
    key order."""
    return zip((keys // n).tolist(), (keys % n).tolist())


def closed_wedges(keys, n: int, budget: int):
    """The triangles of sorted distinct edge keys, ``budget`` wedges at a time.

    Each key (a, b) pairs with the later keys (a, c) that share its
    lower endpoint; the wedge (a, b, c) closes iff the key of (b, c) is
    present, one ``searchsorted``.  Yields, per chunk of at most
    ``budget`` wedges (open ones included), the index arrays
    ``(ab, ac, bc)`` into ``keys`` of the chunk's closed wedges, in
    (a, b, c) order; a chunk may yield empty arrays.
    """
    import numpy as np

    m = int(keys.size)
    if m < 3:
        return
    lows = keys // n
    highs = keys - lows * n
    # later[i]: keys after i with the same lower endpoint, i.e. the
    # wedges key i is the base of; ends[i]: wedges of keys 0..i.
    later = np.searchsorted(lows, lows, side="right") - np.arange(1, m + 1)
    ends = np.cumsum(later)
    total = int(ends[-1])
    for start in range(0, total, budget):
        wedge = np.arange(start, min(total, start + budget))
        base = np.searchsorted(ends, wedge, side="right")
        other = wedge + base + 1 - (ends[base] - later[base])
        closing = highs[base] * n + highs[other]
        found = np.searchsorted(keys, closing)
        np.minimum(found, m - 1, out=found)
        hit = keys[found] == closing
        yield base[hit], other[hit], found[hit]


def canonical_edge(u: int, v: int) -> Edge:
    """The canonical representation of the undirected edge {u, v}."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.  Fixed at construction; the paper's model has a
        known vertex universe and only the edge set is distributed.
    edges:
        Optional iterable of edges (any orientation; canonicalized).
    """

    # _rows is the adjacency row list once built, else None; an unbuilt
    # graph always holds its _edge_keys, and the rows are built from them.
    __slots__ = ("_n", "_rows", "_edge_count", "_edge_keys")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self._n = n
        self._rows: list[int] | None = [0] * n
        self._edge_count = 0
        self._edge_keys = None
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def _wrap(cls, n: int, rows: list[int] | None, edge_count: int,
              edge_keys=None) -> "Graph":
        graph = cls.__new__(cls)
        graph._n = n
        graph._rows = rows
        graph._edge_count = edge_count
        graph._edge_keys = edge_keys
        return graph

    # The state is the slot tuple; a graph that holds its keys pickles
    # without its rows and rebuilds them on first read.
    def __getstate__(self):
        rows = self._rows if self._edge_keys is None else None
        return (self._n, rows, self._edge_count, self._edge_keys)

    def __setstate__(self, state) -> None:
        self._n, self._rows, self._edge_count, self._edge_keys = state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Insert {u, v}; returns True if the edge was new."""
        u, v = canonical_edge(u, v)
        self._check_vertex(u)
        self._check_vertex(v)
        rows = self.adjacency_rows()
        if rows[u] >> v & 1:
            return False
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        self._edge_count += 1
        self._edge_keys = None
        return True

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Bulk insert; returns the number of edges that were new."""
        added = 0
        for u, v in edges:
            added += self.add_edge(u, v)
        return added

    def add_neighbors(self, u: int, mask: int) -> int:
        """Attach every vertex in ``mask`` to ``u``; returns #new edges.

        The bulk form generators use to commit a whole sampled row at
        once instead of edge-by-edge.
        """
        self._check_vertex(u)
        if mask < 0 or mask >> self._n:
            raise ValueError(
                f"neighbor mask has bits outside [0, {self._n})"
            )
        if mask >> u & 1:
            raise ValueError(f"self-loop ({u}, {u}) is not a valid edge")
        rows = self.adjacency_rows()
        new = mask & ~rows[u]
        if not new:
            return 0
        rows[u] |= new
        bit_u = 1 << u
        for v in iter_bits(new):
            rows[v] |= bit_u
        added = new.bit_count()
        self._edge_count += added
        self._edge_keys = None
        return added

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete {u, v}; returns True if the edge was present."""
        u, v = canonical_edge(u, v)
        self._check_vertex(u)
        self._check_vertex(v)
        rows = self.adjacency_rows()
        if not rows[u] >> v & 1:
            return False
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        self._edge_count -= 1
        self._edge_keys = None
        return True

    def copy(self) -> "Graph":
        """An independent copy; an unbuilt graph shares its read-only
        keys and stays unbuilt."""
        rows = None if self._rows is None else self._rows.copy()
        return Graph._wrap(self._n, rows, self._edge_count,
                           self._edge_keys)

    @staticmethod
    def _canonical_keys(n: int, us, vs):
        """Validate numpy endpoint arrays into sorted canonical edge keys.

        Returns the read-only, sorted, unique int64 array of
        ``lo * n + hi`` with ``lo < hi`` — the form :meth:`edge_keys`
        memoizes.  Raises on shape mismatch, out-of-range vertices, and
        self-loops, matching the scalar :meth:`add_edge` checks.
        """
        import numpy as np

        us = np.asarray(us, dtype=np.int64).ravel()
        vs = np.asarray(vs, dtype=np.int64).ravel()
        if us.shape != vs.shape:
            raise ValueError(
                f"endpoint arrays differ in length: {us.size} vs {vs.size}"
            )
        if us.size:
            if int(us.min()) < 0 or int(vs.min()) < 0 \
                    or int(us.max()) >= n or int(vs.max()) >= n:
                raise ValueError(f"edge endpoint outside range [0, {n})")
            if bool((us == vs).any()):
                loop = int(us[np.argmax(us == vs)])
                raise ValueError(
                    f"self-loop ({loop}, {loop}) is not a valid edge"
                )
        keys = unique_keys(np.minimum(us, vs) * n + np.maximum(us, vs))
        keys.flags.writeable = False
        return keys

    @classmethod
    def from_edge_arrays(cls, n: int, us, vs) -> "Graph":
        """Bulk-build a graph from numpy endpoint arrays.

        The vectorized-generation entry point: endpoints may come in
        any orientation with duplicates; they are canonicalized,
        deduplicated and validated once — O(m log m) array work instead
        of m Python-level inserts.  The graph keeps the canonical keys
        as its :meth:`edge_keys`; :func:`or_edges_into_rows` turns them
        into rows the first time a query needs rows (see the module
        docstring), so instances that are only partitioned never build
        them.  The result equals ``Graph(n, zip(us, vs))``.
        """
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        keys = cls._canonical_keys(n, us, vs)
        return cls._wrap(n, None, int(keys.size), keys)

    def add_edge_arrays(self, us, vs) -> int:
        """Bulk insert from numpy endpoint arrays; returns #new edges.

        The array twin of :meth:`add_edges`: the input is filtered
        against :meth:`edge_keys` and the memoized keys absorb the new
        edges.  Built rows take them in one :func:`or_edges_into_rows`
        call; an unbuilt graph merges keys only and stays unbuilt.
        """
        import numpy as np

        n = self._n
        keys = self._canonical_keys(n, us, vs)
        old = self.edge_keys()
        fresh = np.setdiff1d(keys, old, assume_unique=True)
        if fresh.size == 0:
            return 0
        if self._rows is not None:
            or_edges_into_rows(self._rows, fresh // n, fresh % n)
        merged = np.sort(np.concatenate((old, fresh)))
        merged.flags.writeable = False
        self._edge_keys = merged
        self._edge_count += int(fresh.size)
        return int(fresh.size)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        """K_n in one bulk fill: the all-ones row mask is built once
        and each vertex's bit cleared out of it, instead of n bignum
        rebuilds."""
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        total = n * (n - 1) // 2
        full = (1 << n) - 1
        return cls._wrap(n, [full ^ (1 << u) for u in range(n)], total)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def num_edges(self) -> int:
        return self._edge_count

    @property
    def nbytes(self) -> int:
        """Approximate adjacency-storage bytes this graph holds.

        The ``sys.getsizeof`` sum of the rows once built (a bookkeeping
        estimate of the bignum digits, not an allocator measurement),
        plus the bytes of the edge-key array while the graph holds it
        (an unbuilt graph holds only the keys).  Surfaced per instance
        in ``InstanceCache.stats()`` so sweep logs show memory at scale.
        """
        keys = self._edge_keys
        total = 0 if keys is None else int(keys.nbytes)
        if self._rows is not None:
            total += sum(sys.getsizeof(row) for row in self._rows)
        return total

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adjacency_rows()[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adjacency_rows()[v].bit_count()

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(iter_bits(self.adjacency_rows()[v]))

    def neighbor_mask(self, v: int) -> int:
        """N(v) as a bitmask — row ``v`` in exchange form."""
        self._check_vertex(v)
        return self.adjacency_rows()[v]

    def adjacency_rows(self) -> list[int]:
        """The adjacency masks, indexed by vertex — treat as READ-ONLY.

        Built from the edge keys on first read.  This is the live row
        list: the hot loops index it directly to skip per-call bounds
        checks; mutating it would desynchronise the edge count and the
        symmetry invariant.
        """
        rows = self._rows
        if rows is None:
            keys = self._edge_keys
            n = self._n
            rows = [0] * n
            or_edges_into_rows(rows, keys // n, keys % n)
            self._rows = rows
        return rows

    def common_neighbors(self, u: int, v: int) -> int:
        """N(u) ∩ N(v) as a bitmask: one AND of two rows."""
        self._check_vertex(u)
        self._check_vertex(v)
        rows = self.adjacency_rows()
        return rows[u] & rows[v]

    def average_degree(self) -> float:
        """``2|E| / n`` — the ``d`` of the paper's complexity bounds."""
        if self._n == 0:
            return 0.0
        return 2.0 * self._edge_count / self._n

    def edges(self) -> Iterator[Edge]:
        """All edges in canonical orientation, ascending."""
        return _row_edges(self.adjacency_rows())

    def edge_keys(self):
        """The edges as a sorted read-only int64 array of ``u * n + v``.

        The array form of :meth:`edges` (same order: canonical ``u < v``,
        ascending).  Graphs built from edge arrays already hold it;
        otherwise it is extracted from the rows once and memoized
        until the next mutation.
        """
        keys = self._edge_keys
        if keys is None:
            import numpy as np

            n = self._n
            keys = np.fromiter(
                (u * n + v for u, v in _row_edges(self._rows)),
                dtype=np.int64, count=self._edge_count,
            )
            keys.flags.writeable = False
            self._edge_keys = keys
        return keys

    def edge_set(self) -> set[Edge]:
        """Compatibility wrapper: the edges as a plain set.

        Mask-native callers should iterate :meth:`edges` or take
        :meth:`adjacency_rows`; this survives for tests and callers that
        genuinely want set algebra.
        """
        return set(self.edges())

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adjacency_rows()]

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph_mask_rows(self, vertex_mask: int) -> list[int]:
        """Adjacency rows of the induced subgraph on a vertex *mask*.

        The mask-native form of the Section 3.1 primitive: row ``u`` of
        the result is ``N(u) ∩ vertex_mask`` for ``u`` in the mask and
        ``0`` elsewhere, ready for :func:`repro.graphs.triangles.\
find_triangle_in_rows` or the patterns matcher — no edge tuples are
        materialised.
        """
        self._check_mask(vertex_mask)
        rows = self.adjacency_rows()
        induced = [0] * self._n
        for u in iter_bits(vertex_mask):
            induced[u] = rows[u] & vertex_mask
        return induced

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __contains__(self, edge: Edge) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self._n != other._n:
            return False
        if self._edge_keys is not None or other._edge_keys is not None:
            # A key-holding side compares by keys: no rows are built.
            import numpy as np

            return np.array_equal(self.edge_keys(), other.edge_keys())
        return self._rows == other._rows

    def __hash__(self) -> int:  # pragma: no cover - graphs used as dict keys rarely
        return hash((self._n, frozenset(self.edges())))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._edge_count})"

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} outside range [0, {self._n})")

    def _check_mask(self, mask: int) -> None:
        if mask < 0 or mask >> self._n:
            raise ValueError(
                f"vertex mask has bits outside [0, {self._n})"
            )
