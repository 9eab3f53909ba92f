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
row-mask representation as :class:`~repro.graphs.graph.Graph`), so in the
per-edge and row forms an arrival's closure check is a single ``&`` of
two ints.  :meth:`ReservoirTriangleFinder.process_keys` runs a whole
canonical edge-key stream without per-edge Python: it replays the slot
draws from bulk RNG words, records only the reservoir's insertions and
evictions, and finds the first closing arrival with array operations
over the stream's triangle table (:func:`triangle_arrivals`).
"""

from __future__ import annotations

import random

import numpy as np

from repro.comm.encoding import edge_bits
from repro.graphs.graph import Edge, canonical_edge, closed_wedges, iter_bits
from repro.streaming.stream import StreamingAlgorithm

__all__ = [
    "ReservoirTriangleFinder",
    "CountingExactFinder",
    "triangle_arrivals",
]

#: Wedges :func:`triangle_arrivals` materializes at once: a few int64
#: arrays of this length, so a µ sample's table build holds about
#: 0.4 MiB at its peak (1.4 MiB at ``1 << 16`` for a part size of 144)
#: and runs no slower.
_WEDGE_CHUNK = 1 << 12


def triangle_arrivals(keys: np.ndarray, n: int) -> np.ndarray:
    """The triangle table of an ascending canonical edge-key stream.

    ``keys`` are sorted distinct ``u * n + v`` keys (``u < v``), read as
    a stream in that order.  Returns an ``(T, 3)`` int64 array with one
    row ``(closing, first_arm, second_arm)`` of arrival indices per
    triangle {a, b, c} (a < b < c): the closing edge is (b, c), the
    last of the three to arrive, and the arms are (a, b) and (a, c), so
    ``a`` is the apex the closing arrival probes.  Rows are ordered by
    closing index, then apex — the order in which a per-edge reservoir
    finder would discover them.  A triangle-free stream gives ``T = 0``.
    """
    chunks = list(closed_wedges(keys, n, _WEDGE_CHUNK))
    if not chunks:
        return np.empty((0, 3), dtype=np.int64)
    ab, ac, bc = (np.concatenate(part) for part in zip(*chunks))
    # Same closing edge: the lower apex a has the lower (a, b) key.
    order = np.lexsort((ab, bc))
    return np.stack((bc[order], ab[order], ac[order]), axis=1)


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


def _reservoir_draws(getrandbits, seen: int, last: int,
                     size: int) -> tuple[list[int], list[int]]:
    """:func:`_slot_below` for ``seen .. last`` in turn, from bulk words.

    For ``b = seen.bit_length() <= 32``, ``getrandbits(b)`` consumes
    one 32-bit MT19937 output and returns its top ``b`` bits, and
    ``getrandbits(32 * W)`` hands out the next ``W`` outputs, least
    significant first.  Every draw takes at least one word, so a batch
    of as many words as draws remain is never over-read: the generator
    ends exactly where the per-draw loop leaves it (``seen`` must stay
    below ``2^32``: past it the shift turns negative and raises).
    Returns the ``(arrival index, slot)`` pairs of the draws that land
    in the reservoir (slot below ``size``); the rest are only counted.
    """
    arrivals: list[int] = []
    slots: list[int] = []
    while seen <= last:
        count = last - seen + 1
        words = np.frombuffer(
            getrandbits(32 * count).to_bytes(4 * count, "little"),
            dtype="<u4",
        ).tolist()
        shift = 32 - seen.bit_length()
        limit = 1 << seen.bit_length()
        for word in words:
            slot = word >> shift
            if slot < seen:
                if slot < size:
                    arrivals.append(seen - 1)
                    slots.append(slot)
                seen += 1
                if seen == limit:
                    shift -= 1
                    limit <<= 1
    return arrivals, slots


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
        # Stored copies per edge: a repeated edge keeps its bits until
        # its last copy leaves the reservoir.
        self._copies: dict[Edge, int] = {}

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

    def process_keys(self, keys: np.ndarray,
                     triangles: np.ndarray | None = None) -> None:
        """Stream a canonical edge-key array from the fresh state, in bulk.

        ``keys`` are sorted distinct ``u * n + v`` keys (``u < v``, this
        finder's ``n``); the stream is their edges in that order.
        ``triangles`` is the stream's :func:`triangle_arrivals` table,
        built here when not given (a caller streaming one array many
        times builds it once).  The outcome equals :meth:`process` edge
        by edge — the same :meth:`result`, reservoir, seen count,
        :meth:`export_state` and RNG position — in three steps:

        1. the slot draws at seen counts ``R + 1 .. m`` are replayed from
           bulk words (:func:`_reservoir_draws`), keeping only those
           that land in the reservoir;
        2. each edge that entered the reservoir gets the arrival whose
           update evicts it (the next occupant of its slot);
        3. a triangle closes at its closing arrival ``t`` iff both arms
           entered and neither was evicted before ``t`` — the probe runs
           before ``t``'s own update, so an arm evicted *by* ``t`` still
           counts.  The first closing row of the table wins: the
           earliest arrival, then the lowest apex, which is the lowest
           set bit the per-edge ``&`` probe reads.
        """
        if self._seen:
            raise ValueError("process_keys streams from the fresh state only")
        m = int(keys.size)
        if m > 1 and not (keys[1:] > keys[:-1]).all():
            raise ValueError("edge keys must be strictly ascending")
        n = self.n
        if triangles is None:
            triangles = triangle_arrivals(keys, n)
        size = self.reservoir_size
        arrivals, slots = _reservoir_draws(
            self._rng.getrandbits, size + 1, m, size
        )
        filled = min(m, size)
        # Every occupant of every slot: the initial fill, then the draws
        # in arrival order; a stable sort groups them by slot.
        slot = np.concatenate((np.arange(filled), np.array(slots, np.int64)))
        order = np.argsort(slot, kind="stable")
        slot = slot[order]
        arrival = np.concatenate(
            (np.arange(filled), np.array(arrivals, np.int64))
        )[order]
        current = np.ones(arrival.size, dtype=bool)
        current[:-1] = slot[1:] != slot[:-1]
        # until[e]: the arrival whose update evicts e (m if none), or -1
        # for an edge that never entered.
        evictor = np.empty_like(arrival)
        evictor[:-1] = arrival[1:]
        evictor[current] = m
        until = np.full(m, -1, dtype=np.int64)
        until[arrival] = evictor
        if triangles.size:
            live = np.minimum(
                until[triangles[:, 1]], until[triangles[:, 2]]
            ) >= triangles[:, 0]
            if live.any():
                _, arm, other = triangles[live.argmax()].tolist()
                a, b = divmod(int(keys[arm]), n)
                self._found = (a, b, int(keys[other]) % n)
        kept = keys[arrival[current]]
        self._reservoir = list(zip((kept // n).tolist(), (kept % n).tolist()))
        self._seen = m
        for edge in self._reservoir:
            self._index(edge)

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
        copies = self._copies.get(edge, 0)
        self._copies[edge] = copies + 1
        if copies:
            return
        u, v = edge
        self._adjacency[u] = self._adjacency.get(u, 0) | (1 << v)
        self._adjacency[v] = self._adjacency.get(v, 0) | (1 << u)

    def _evict(self, edge: Edge) -> None:
        copies = self._copies.pop(edge) - 1
        if copies:
            self._copies[edge] = copies
            return
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
        """Reservoir, seen count, found register and the RNG position.

        The RNG state is public coins: a resumed finder must draw the
        slots a single pass would, but the coins are not charged in
        :meth:`state_bits`.
        """
        return {
            "reservoir": list(self._reservoir),
            "seen": self._seen,
            "found": self._found,
            "rng": self._rng.getstate(),
        }

    def import_state(self, state: dict) -> None:
        self._reservoir = list(state["reservoir"])
        self._seen = state["seen"]
        self._found = state["found"]
        self._rng.setstate(state["rng"])
        self._adjacency = {}
        self._copies = {}
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
