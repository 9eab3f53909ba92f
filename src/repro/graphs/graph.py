"""Compact undirected graph used throughout the reproduction.

Vertices are integers ``0 .. n-1``; edges are canonical ordered pairs
``(u, v)`` with ``u < v``.  The class is deliberately small and keeps
only the *semantics* — validation, edge counting, canonical orientation;
storage and bulk mask arithmetic live in a pluggable *mask kernel*
(:mod:`repro.graphs.kernels`), selected per instance:

* ``bigint`` — one arbitrary-precision Python int per vertex whose bit
  ``v`` is set iff edge ``{u, v}`` exists; ``has_edge`` is a
  shift-and-test, ``degree`` is ``int.bit_count()``, and a common
  neighbourhood is a single ``&`` executed word-at-a-time in C.
* ``csr`` — sorted numpy neighbour-index arrays, O(m) memory; the
  large sparse-host backend.

``Graph(n, backend=...)`` picks explicitly; otherwise the
``REPRO_GRAPH_BACKEND`` environment variable, then the ``auto`` policy
(csr for large sparse hosts, see :func:`repro.graphs.kernels.get_kernel`)
decide.  Whatever the backend, every query speaks the Python-int
mask exchange format, so pinned-seed runs are byte-identical across
backends and callers never see which kernel is underneath.

Graphs built from edge arrays are *keys-first*, like the players cut
from them: :meth:`Graph.from_edge_arrays` keeps the validated, sorted
edge-key array and the kernel class the policy picks at that moment
(the ``kernel.selected`` event and ``kernel.select.*`` counters fire
there), and the kernel itself is built from those keys the first time
a query needs it — so its build time lands in the first reader's trace
span, not the generator's.  ``n``, ``num_edges``, ``edge_keys``,
``average_degree``, ``backend``, ``nbytes``, ``copy``, ``==``,
pickling and :meth:`Graph.add_edge_arrays` work on the keys alone; the
scalar mutators build first, then mutate.  Most generated instances
are only ever partitioned into players and never build a kernel.

The paper's model hands each player a *characteristic vector* over potential
edges; :class:`Graph` is the ground-truth union of those vectors, and
:mod:`repro.graphs.partition` produces the per-player views.

Bulk primitives (:meth:`Graph.neighbor_mask`, :meth:`Graph.common_neighbors`,
:meth:`Graph.add_edges`, :meth:`Graph.add_neighbors`,
:meth:`Graph.adjacency_rows`, :meth:`Graph.induced_subgraph_mask_rows`,
:meth:`Graph.edges_touching_mask`, :meth:`Graph.edge_keys`, plus the
module-level :func:`iter_bits` / :func:`mask_of`) expose the masks and
edge keys directly so the
triangle layer, generators, bucketing, and the streaming reduction can stay
on the fast path without reaching into private state.  A pure-Python
``set``-based twin, ``SetGraph``, lives with the test oracles under
``tests/oracles/`` for differential testing.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.graphs.kernels import get_kernel
from repro.graphs.kernels.base import Edge, MaskKernel, iter_bits, mask_of

__all__ = ["Graph", "canonical_edge", "iter_bits", "mask_of"]


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
    backend:
        Mask-kernel name (``"bigint"``, ``"csr"``, ``"auto"``) or
        ``None`` to defer to ``REPRO_GRAPH_BACKEND`` / the auto policy.
    expected_edges:
        Optional density hint for the ``auto`` policy (generators pass
        their expected edge count so large sparse hosts land on the
        csr kernel).  Never changes the edge set, only the storage.
    """

    # _built is the kernel once built, else None; an unbuilt graph
    # always holds its _edge_keys, and _kernel_cls builds them.
    __slots__ = ("_n", "_kernel_cls", "_built", "_edge_count", "_edge_keys")

    def __init__(self, n: int, edges: Iterable[Edge] = (),
                 backend: str | None = None,
                 expected_edges: int | None = None) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self._n = n
        self._kernel_cls = get_kernel(backend, n, expected_edges)
        self._built: MaskKernel | None = self._kernel_cls(n)
        self._edge_count = 0
        self._edge_keys = None
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def _wrap(cls, n: int, kernel: MaskKernel | None, edge_count: int,
              edge_keys=None, kernel_cls: type | None = None) -> "Graph":
        graph = cls.__new__(cls)
        graph._n = n
        graph._kernel_cls = type(kernel) if kernel_cls is None else kernel_cls
        graph._built = kernel
        graph._edge_count = edge_count
        graph._edge_keys = edge_keys
        return graph

    @property
    def _kernel(self) -> MaskKernel:
        """The mask kernel, built from the edge keys on first read."""
        kernel = self._built
        if kernel is None:
            keys = self._edge_keys
            n = self._n
            kernel = self._built = self._kernel_cls.from_edge_array(
                n, keys // n, keys % n
            )
        return kernel

    # The state is the slot tuple; a graph that holds its keys pickles
    # without its kernel and rebuilds it on first read.
    def __getstate__(self):
        built = self._built if self._edge_keys is None else None
        return (self._n, self._kernel_cls, built, self._edge_count,
                self._edge_keys)

    def __setstate__(self, state) -> None:
        (self._n, self._kernel_cls, self._built, self._edge_count,
         self._edge_keys) = state

    # ------------------------------------------------------------------
    # Backend seam
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Name of the mask kernel this instance runs on."""
        return self._kernel_cls.name

    @property
    def kernel(self) -> MaskKernel:
        """The underlying mask kernel (for dispatch to native paths)."""
        return self._kernel

    def to_backend(self, backend: str) -> "Graph":
        """A copy of this graph on the named backend.

        A graph that holds its keys hands them over unbuilt; otherwise
        rows convert losslessly through the Python-int exchange format.
        Either way the result is == to the source whatever the two
        kernels.
        """
        cls = get_kernel(backend, self._n)
        kernel = None
        if self._edge_keys is None:
            kernel = cls.from_rows(self._n, self._built.rows())
        return Graph._wrap(self._n, kernel, self._edge_count,
                           self._edge_keys, cls)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Insert {u, v}; returns True if the edge was new."""
        u, v = canonical_edge(u, v)
        self._check_vertex(u)
        self._check_vertex(v)
        if not self._kernel.set_edge(u, v):
            return False
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
        added = self._kernel.merge_row(u, mask)
        if added:
            self._edge_count += added
            self._edge_keys = None
        return added

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete {u, v}; returns True if the edge was present."""
        u, v = canonical_edge(u, v)
        self._check_vertex(u)
        self._check_vertex(v)
        if not self._kernel.clear_edge(u, v):
            return False
        self._edge_count -= 1
        self._edge_keys = None
        return True

    def copy(self) -> "Graph":
        """An independent copy; an unbuilt graph shares its read-only
        keys and stays unbuilt."""
        kernel = None if self._built is None else self._built.copy()
        return Graph._wrap(self._n, kernel, self._edge_count,
                           self._edge_keys, self._kernel_cls)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        return cls(n, edges)

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
    def from_edge_arrays(cls, n: int, us, vs,
                         backend: str | None = None,
                         expected_edges: int | None = None) -> "Graph":
        """Bulk-build a graph from numpy endpoint arrays.

        The vectorized-generation entry point: endpoints may come in
        any orientation with duplicates; they are canonicalized,
        deduplicated and validated once — O(m log m) array work instead
        of m Python-level inserts.  The graph keeps the canonical keys
        as its :meth:`edge_keys` and the kernel class the policy picks
        now; the kernel's ``from_edge_array`` runs on those keys the
        first time a query needs the kernel (see the module docstring),
        so instances that are only partitioned never build one.  The
        result equals ``Graph(n, zip(us, vs), backend=...)`` on every
        backend.

        ``expected_edges`` overrides the ``auto`` density hint (the
        deduplicated count is used when omitted), letting callers keep
        backend selection identical across scalar and vectorized paths.
        """
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        keys = cls._canonical_keys(n, us, vs)
        if expected_edges is None:
            expected_edges = int(keys.size)
        return cls._wrap(n, None, int(keys.size), keys,
                         get_kernel(backend, n, expected_edges))

    def add_edge_arrays(self, us, vs) -> int:
        """Bulk insert from numpy endpoint arrays; returns #new edges.

        The array twin of :meth:`add_edges`: the input is filtered
        against :meth:`edge_keys` and the memoized keys absorb the new
        edges.  A built kernel merges them in one call; an unbuilt
        graph merges keys only and stays unbuilt.
        """
        import numpy as np

        n = self._n
        keys = self._canonical_keys(n, us, vs)
        old = self.edge_keys()
        fresh = np.setdiff1d(keys, old, assume_unique=True)
        if fresh.size == 0:
            return 0
        if self._built is not None:
            self._built.merge_edge_array(fresh // n, fresh % n)
        merged = np.sort(np.concatenate((old, fresh)))
        merged.flags.writeable = False
        self._edge_keys = merged
        self._edge_count += int(fresh.size)
        return int(fresh.size)

    @classmethod
    def complete(cls, n: int, backend: str | None = None) -> "Graph":
        """K_n in one bulk fill: the all-ones row mask is built once
        and each vertex's bit cleared out of it, instead of n bignum
        rebuilds."""
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        total = n * (n - 1) // 2
        full = (1 << n) - 1
        kernel = get_kernel(backend, n, total).from_rows(
            n, (full ^ (1 << u) for u in range(n))
        )
        return cls._wrap(n, kernel, total)

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

        The kernel's ``memory_bytes()`` once built, plus the bytes of
        the edge-key array while the graph holds it (an unbuilt graph
        holds only the keys).  Surfaced per instance in
        ``InstanceCache.stats()`` so sweep logs show memory at scale.
        """
        keys = self._edge_keys
        total = 0 if keys is None else int(keys.nbytes)
        if self._built is not None:
            total += int(self._built.memory_bytes())
        return total

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        self._check_vertex(u)
        self._check_vertex(v)
        return self._kernel.has_edge(u, v)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._kernel.popcount(v)

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(iter_bits(self._kernel.row(v)))

    def neighbor_mask(self, v: int) -> int:
        """N(v) as a bitmask — the kernel row in exchange form."""
        self._check_vertex(v)
        return self._kernel.row(v)

    def adjacency_rows(self) -> list[int]:
        """The adjacency masks, indexed by vertex — treat as READ-ONLY.

        On the bigint backend this is the live kernel list (the hot
        loops index it directly to skip per-call bounds checks; mutating
        it would desynchronise the edge count and the symmetry
        invariant); on other backends it is a converted snapshot.
        """
        return self._kernel.rows()

    def common_neighbors(self, u: int, v: int) -> int:
        """N(u) ∩ N(v) as a bitmask: one kernel AND."""
        self._check_vertex(u)
        self._check_vertex(v)
        return self._kernel.row_and(u, v)

    def average_degree(self) -> float:
        """``2|E| / n`` — the ``d`` of the paper's complexity bounds."""
        if self._n == 0:
            return 0.0
        return 2.0 * self._edge_count / self._n

    def edges(self) -> Iterator[Edge]:
        """All edges in canonical orientation, ascending."""
        return self._kernel.iter_edges()

    def edge_keys(self):
        """The edges as a sorted read-only int64 array of ``u * n + v``.

        The array form of :meth:`edges` (same order: canonical ``u < v``,
        ascending).  Graphs built from edge arrays already hold it;
        otherwise it is extracted from the kernel once and memoized
        until the next mutation.
        """
        keys = self._edge_keys
        if keys is None:
            import numpy as np

            n = self._n
            keys = np.fromiter(
                (u * n + v for u, v in self._kernel.iter_edges()),
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
        return self._kernel.popcounts()

    def isolated_vertices(self) -> list[int]:
        return [
            v for v, deg in enumerate(self._kernel.popcounts()) if not deg
        ]

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
        rows = [0] * self._n
        kernel = self._kernel
        for u in iter_bits(vertex_mask):
            rows[u] = kernel.row(u) & vertex_mask
        return rows

    def edges_touching_mask(self, vertex_mask: int) -> list[int]:
        """Adjacency rows of the subgraph of edges meeting a vertex mask.

        Mask-native twin of :meth:`edges_touching`: the result contains
        exactly the edges with at least one endpoint in ``vertex_mask``,
        as symmetric per-vertex rows (outside endpoints keep only their
        bits towards the mask).
        """
        self._check_mask(vertex_mask)
        rows = [0] * self._n
        kernel = self._kernel
        for u in iter_bits(vertex_mask):
            row = kernel.row(u)
            rows[u] |= row
            bit_u = 1 << u
            for v in iter_bits(row & ~vertex_mask):
                rows[v] |= bit_u
        return rows

    def induced_subgraph_edges(self, vertices: Iterable[int]) -> set[Edge]:
        """Compatibility wrapper over :meth:`induced_subgraph_mask_rows`.

        Returns the induced edges as a set of canonical tuples; new
        callers should take the mask-rows form and stay on the kernel.
        """
        vertex_mask = self._checked_mask(vertices)
        found: set[Edge] = set()
        for u in iter_bits(vertex_mask):
            inner = (self._kernel.row(u) & vertex_mask) >> (u + 1)
            while inner:
                low = inner & -inner
                found.add((u, u + low.bit_length()))
                inner ^= low
        return found

    def edges_touching(self, vertices: Iterable[int]) -> set[Edge]:
        """Compatibility wrapper over :meth:`edges_touching_mask`.

        Returns the touching edges as a set of canonical tuples; new
        callers should take the mask-rows form and stay on the kernel.
        """
        vertex_mask = self._checked_mask(vertices)
        found: set[Edge] = set()
        for u in iter_bits(vertex_mask):
            for v in iter_bits(self._kernel.row(u)):
                found.add((u, v) if u < v else (v, u))
        return found

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, preserving vertex ids (others become isolated)."""
        vertex_mask = self._checked_mask(vertices)
        kernel, edge_count = self._kernel.induced(vertex_mask)
        return Graph._wrap(self._n, kernel, edge_count)

    def union(self, other: "Graph") -> "Graph":
        if other.n != self._n:
            raise ValueError(
                f"vertex-count mismatch: {self._n} vs {other.n}"
            )
        other_kernel = other._kernel
        if type(other_kernel) is not type(self._kernel):
            other_kernel = type(self._kernel).from_rows(
                self._n, other_kernel.rows()
            )
        kernel, edge_count = self._kernel.union_with(other_kernel)
        return Graph._wrap(self._n, kernel, edge_count)

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
            # A key-holding side compares by keys: no kernel is built.
            import numpy as np

            return np.array_equal(self.edge_keys(), other.edge_keys())
        if type(self._kernel) is type(other._kernel):
            return self._kernel.rows_equal(other._kernel)
        # Cross-backend: compare through the int exchange format.
        return self._kernel.rows() == other._kernel.rows()

    def __hash__(self) -> int:  # pragma: no cover - graphs used as dict keys rarely
        return hash((self._n, frozenset(self.edges())))

    def __repr__(self) -> str:
        return (
            f"Graph(n={self._n}, m={self._edge_count}, "
            f"backend={self.backend!r})"
        )

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} outside range [0, {self._n})")

    def _check_mask(self, mask: int) -> None:
        if mask < 0 or mask >> self._n:
            raise ValueError(
                f"vertex mask has bits outside [0, {self._n})"
            )

    def _checked_mask(self, vertices: Iterable[int]) -> int:
        mask = 0
        for v in vertices:
            self._check_vertex(v)
            mask |= 1 << v
        return mask
