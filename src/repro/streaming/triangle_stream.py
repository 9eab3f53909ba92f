"""Sampling-based streaming triangle-edge detection.

A concrete :class:`~repro.streaming.stream.StreamingAlgorithm` in the
spirit of the sampling schemes the paper cites ([27], Kallaugher–Price):
keep a uniform reservoir of edges; every arriving edge is checked against
all vee-shaped pairs it forms with reservoir edges — if the closing pair is
already stored (or the arrival closes a stored vee), a triangle edge has
been found.  Space is Θ(reservoir · log n) bits; detection probability
grows with the reservoir, which is exactly the space/success trade-off the
Ω(n^{1/4}) lower bound constrains on µ-distributed inputs.

Both finders index their stored edges as per-vertex bitmasks (the same
kernel representation as :class:`~repro.graphs.graph.Graph`), so the
per-arrival closure check is a single ``&`` of two ints.
"""

from __future__ import annotations

import random

from repro.comm.encoding import edge_bits
from repro.graphs.graph import Edge, canonical_edge, iter_bits
from repro.streaming.stream import StreamingAlgorithm

__all__ = ["ReservoirTriangleFinder", "CountingExactFinder"]


def _slot_below(getrandbits, seen: int) -> int:
    """``rng.randrange(seen)`` for ``seen >= 1``, reading the same words.

    CPython's ``randrange(seen)`` (3.10 through 3.13) is
    ``_randbelow_with_getrandbits``: draw ``getrandbits(b)`` with
    ``b = seen.bit_length()`` until the value is below ``seen``.  Inlined
    here so the per-edge reservoir draw skips ``randrange``'s argument
    checks; ``getrandbits`` is the bound method of the finder's RNG.
    """
    bits = seen.bit_length()
    slot = getrandbits(bits)
    while slot >= seen:
        slot = getrandbits(bits)
    return slot


class ReservoirTriangleFinder(StreamingAlgorithm):
    """Reservoir-sampled triangle-edge finder.

    Parameters
    ----------
    n:
        Vertex-universe size (for bit accounting).
    reservoir_size:
        Number of edges kept; space is ``reservoir_size * 2 log n`` bits
        plus the O(log n) bits of the found-edge register.
    seed:
        Reservoir-sampling randomness.
    """

    def __init__(self, n: int, reservoir_size: int, seed: int = 0) -> None:
        if reservoir_size < 2:
            raise ValueError(
                f"reservoir must hold at least 2 edges, got {reservoir_size}"
            )
        self.n = n
        self.reservoir_size = reservoir_size
        self._rng = random.Random(seed)
        self._reservoir: list[Edge] = []
        self._seen = 0
        self._found: tuple[int, int, int] | None = None
        self._adjacency: dict[int, int] = {}

    def process(self, edge: Edge) -> None:
        edge = canonical_edge(*edge)
        self._seen += 1
        if self._found is None:
            self._check_closure(edge)
        # Classic reservoir update.
        if len(self._reservoir) < self.reservoir_size:
            self._insert(edge)
        else:
            slot = _slot_below(self._rng.getrandbits, self._seen)
            if slot < self.reservoir_size:
                self._evict(self._reservoir[slot])
                self._reservoir[slot] = edge
                self._index(edge)
                return
        return

    def process_row(self, v: int, partners_mask: int) -> None:
        """Row-native form: canonical batches skip per-edge normalization.

        Reservoir sampling is inherently per-edge (one RNG draw per
        element keeps the sample uniform), so the batch is unrolled
        in-place — but the caller's canonical-order guarantee removes
        the ``canonical_edge`` normalization and dispatch per edge, and
        the closure probe reads the adjacency dict once per partner.
        The RNG draw sequence is identical to the per-edge stream.
        """
        adjacency = self._adjacency
        getrandbits = self._rng.getrandbits
        reservoir = self._reservoir
        size = self.reservoir_size
        seen = self._seen
        found = self._found
        row_v = adjacency.get(v, 0)
        remaining = partners_mask
        while remaining:
            lowbit = remaining & -remaining
            remaining ^= lowbit
            u = lowbit.bit_length() - 1
            seen += 1
            if found is None:
                common = row_v & adjacency.get(u, 0)
                if common:
                    low = common & -common
                    a, b, c = sorted((v, u, low.bit_length() - 1))
                    found = (a, b, c)
            if len(reservoir) < size:
                self._insert((v, u))
                row_v = adjacency.get(v, 0)
            else:
                slot = _slot_below(getrandbits, seen)
                if slot < size:
                    self._evict(reservoir[slot])
                    reservoir[slot] = (v, u)
                    self._index((v, u))
                    # The eviction may have touched v's row.
                    row_v = adjacency.get(v, 0)
        self._seen = seen
        self._found = found

    def _check_closure(self, edge: Edge) -> None:
        """Does ``edge`` close a vee whose two arms are in the reservoir?"""
        u, v = edge
        common = self._adjacency.get(u, 0) & self._adjacency.get(v, 0)
        if common:
            low = common & -common
            a, b, c = sorted((u, v, low.bit_length() - 1))
            self._found = (a, b, c)

    def _insert(self, edge: Edge) -> None:
        self._reservoir.append(edge)
        self._index(edge)

    def _index(self, edge: Edge) -> None:
        u, v = edge
        self._adjacency[u] = self._adjacency.get(u, 0) | (1 << v)
        self._adjacency[v] = self._adjacency.get(v, 0) | (1 << u)

    def _evict(self, edge: Edge) -> None:
        u, v = edge
        self._adjacency[u] = self._adjacency.get(u, 0) & ~(1 << v)
        self._adjacency[v] = self._adjacency.get(v, 0) & ~(1 << u)

    def state_bits(self) -> int:
        stored = len(self._reservoir) * edge_bits(self.n)
        register = edge_bits(self.n) if self._found else 1
        return stored + register

    def result(self) -> tuple[int, int, int] | None:
        """A triangle whose three edges appeared in the stream, or None."""
        return self._found

    def export_state(self) -> dict:
        return {
            "reservoir": list(self._reservoir),
            "seen": self._seen,
            "found": self._found,
        }

    def import_state(self, state: dict) -> None:
        self._reservoir = list(state["reservoir"])
        self._seen = state["seen"]
        self._found = state["found"]
        self._adjacency = {}
        for edge in self._reservoir:
            self._index(edge)


class CountingExactFinder(StreamingAlgorithm):
    """Exact finder storing the whole graph — the Θ(m log n) space ceiling.

    The contrast baseline: exact detection needs essentially the whole
    stream in memory, which the testing relaxation escapes.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._num_edges = 0
        self._adjacency: dict[int, int] = {}
        self._found: tuple[int, int, int] | None = None

    def process(self, edge: Edge) -> None:
        u, v = canonical_edge(*edge)
        adjacency = self._adjacency
        row_u = adjacency.get(u, 0)
        if self._found is None:
            common = row_u & adjacency.get(v, 0)
            if common:
                low = common & -common
                a, b, c = sorted((u, v, low.bit_length() - 1))
                self._found = (a, b, c)
        if not row_u >> v & 1:
            self._num_edges += 1
            adjacency[u] = row_u | (1 << v)
            adjacency[v] = adjacency.get(v, 0) | (1 << u)

    def process_row(self, v: int, partners_mask: int) -> None:
        """Row-native form: one closure probe per partner, bulk insert.

        Per-edge semantics feed each edge ``(v, u_i)`` a closure check
        against the adjacency *after* the batch's earlier inserts; since
        those inserts only grow ``v``'s own row (by ``u_1 .. u_{i-1}``)
        and set bit ``v`` in rows the checks never read, an accumulator
        mask replays them exactly — and the whole batch then lands as
        one word-wide row update instead of 2·|batch| dict writes.

        Once a triangle is found the mirror bits (bit ``v`` of each
        partner's row) are dead state: closure probes are the only
        reader of a row's below-diagonal bits, dedup tests and
        ``export_state`` read lower-endpoint rows only, and ``_found``
        is monotone.  The post-find fast path therefore commits a whole
        batch as a single row update — the regime a far-instance stream
        spends almost the entire pass in.
        """
        adjacency = self._adjacency
        row_v = adjacency.get(v, 0)
        if self._found is None:
            acc = row_v
            remaining = partners_mask
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                u = low.bit_length() - 1
                common = acc & adjacency.get(u, 0)
                if common:
                    apex = common & -common
                    a, b, c = sorted((v, u, apex.bit_length() - 1))
                    self._found = (a, b, c)
                    break
                acc |= low
        new = partners_mask & ~row_v
        if new:
            self._num_edges += new.bit_count()
            adjacency[v] = row_v | new
            if self._found is None:
                bit_v = 1 << v
                for u in iter_bits(new):
                    adjacency[u] = adjacency.get(u, 0) | bit_v

    def state_bits(self) -> int:
        return max(1, self._num_edges * edge_bits(self.n))

    def result(self) -> tuple[int, int, int] | None:
        return self._found

    def export_state(self) -> dict:
        """Serialize as upper-bit rows keyed by lower endpoint, sorted.

        One mask per inhabited vertex instead of one tuple per edge:
        the edge set an O(m)-space algorithm forwards across a hop is
        exactly its canonical lower-endpoint rows, so serialization is
        two word-wide ops per vertex.  Both feed paths (edge and row)
        export identical states — mirror bits are masked out here, so
        the post-find mirror-skipping fast path is invisible.
        """
        rows = {}
        for u in sorted(self._adjacency):
            upper = (self._adjacency[u] >> (u + 1)) << (u + 1)
            if upper:
                rows[u] = upper
        return {"rows": rows, "found": self._found}

    def import_state(self, state: dict) -> None:
        self._found = state["found"]
        adjacency: dict[int, int] = {}
        num_edges = 0
        if "rows" in state:
            items = state["rows"].items()
        else:  # per-edge form (hand-built states in older callers)
            legacy: dict[int, int] = {}
            for u, v in state["edges"]:
                if v < u:
                    u, v = v, u
                legacy[u] = legacy.get(u, 0) | (1 << v)
            items = legacy.items()
        for u, row in items:
            adjacency[u] = adjacency.get(u, 0) | row
            num_edges += row.bit_count()
        if self._found is None:
            # Mirror bits feed the closure probes; once a triangle is
            # found they are dead state and the rebuild is skipped.
            for u, row in list(adjacency.items()):
                bit_u = 1 << u
                rest = (row >> (u + 1)) << (u + 1)
                while rest:
                    low = rest & -rest
                    rest ^= low
                    v = low.bit_length() - 1
                    adjacency[v] = adjacency.get(v, 0) | bit_u
        self._adjacency = adjacency
        self._num_edges = num_edges
