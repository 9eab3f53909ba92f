"""Workload generators.

Every experiment in the paper is parameterized by (n, d, epsilon) plus a
structural story about where the triangles live.  The generators here cover
each story the paper tells:

* ``gnp`` / ``gnd`` — plain random graphs (background noise, controls).
* ``planted_disjoint_triangles`` — the canonical epsilon-far instance: a
  packing of vertex-disjoint triangles planted by construction, optionally
  padded with triangle-sparse background edges to dial the density and
  epsilon independently.
* ``skewed_hub_graph`` — the Section 3.3 hard case for naive sampling: a few
  high-degree hubs are the sources of (almost) all triangle-vees, so a
  uniformly random vertex is useless and bucketing is required.
* ``tripartite_mu`` — the Section 4.2.1 lower-bound distribution µ: a
  tripartite graph U ∪ V1 ∪ V2 with each cross-part edge present iid with
  probability gamma/sqrt(n).
* ``bipartite_triangle_free`` — triangle-free control of a given density.
* ``powerlaw_host`` — Chung–Lu style heavy-tailed expected-degree host,
  the adversarial workload for degree-oblivious protocols.
* ``embed_in_larger_graph`` — the Lemma 4.17 embedding: a dense hard core
  plus isolated vertices, lowering the average degree without changing the
  problem.

All generators take an explicit ``seed`` and are deterministic given it,
and thread an optional ``backend=`` through to ``Graph`` — the sampled
edge set depends only on the seed, never on the kernel, so pinned-seed
instances are identical across backends.

The heavy samplers (``gnp``/``gnd``, ``tripartite_mu``,
``powerlaw_host``) additionally carry a ``vectorized`` knob in the
:class:`~repro.comm.randomness.SharedRandomness` style: ``None``
(default) takes a numpy edge-array path when the expected draw volume
clears :data:`_VECTOR_MIN_EXPECTED`, ``False`` forces the scalar
reference loop, ``True`` forces the numpy path.  The vectorized paths
read the scalar generator's exact MT19937 stream in bulk
(:func:`repro.comm.randomness._numpy_stream`) and replay the same
recurrences as array expressions, so the sampled edge set is
draw-for-draw identical across {scalar, vectorized} × every backend —
the knob only trades implementations, never outputs.
"""

from __future__ import annotations

import bisect
import logging
import math
import random
from dataclasses import dataclass

import numpy as _np

from repro.graphs.graph import Graph
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = [
    "gnp",
    "gnd",
    "planted_disjoint_triangles",
    "planted_triangles_at_degree",
    "disjoint_cliques",
    "PlantedInstance",
    "far_instance",
    "skewed_hub_graph",
    "powerlaw_host",
    "tripartite_mu",
    "TripartiteParts",
    "mu_parts",
    "bipartite_triangle_free",
    "triangle_free_degree_spread",
    "embed_in_larger_graph",
]

#: Expected scalar work (selected edges for geometric skipping, raw
#: draws for dense Bernoulli sweeps) below which the scalar loop beats
#: the vectorized path — the MT19937 state transplant plus array setup
#: costs a fixed few tens of microseconds.
_VECTOR_MIN_EXPECTED = 1024

#: Uniform draws per numpy chunk on the dense Bernoulli paths; bounds
#: peak draw-buffer memory without changing any sampled value.
_DRAW_CHUNK = 1 << 20

_LOGGER = logging.getLogger(__name__)


def _use_vectorized(vectorized: bool | None, expected_work: float,
                    generator: str = "") -> bool:
    if vectorized is None:
        chosen = expected_work >= _VECTOR_MIN_EXPECTED
    else:
        chosen = bool(vectorized)
    path = "vectorized" if chosen else "scalar"
    obs_metrics.inc(f"generator.path.{path}")
    obs_trace.event("generator.path", generator=generator, path=path,
                    expected_work=expected_work,
                    forced=vectorized is not None)
    return chosen


def _transplanted_stream(rng: random.Random):
    """A bulk double stream continuing ``rng``'s exact MT19937 stream.

    Imported lazily from the randomness module (call-time, so the
    graphs package never imports the comm package at module load).
    """
    from repro.comm.randomness import _numpy_stream

    return _numpy_stream(rng)


def _gnp_edge_arrays(rng: random.Random, n: int, log_q: float,
                     total_pairs: int, expected: int):
    """The scalar geometric-skipping recurrence as one vectorized pass.

    Chunked uniforms come from the transplanted stream; gaps and
    cumulative pair indices are array expressions with the same
    truncation and termination decisions as the scalar loop (a raw gap
    at or past ``total_pairs`` clamps to a terminating step, exactly
    where the scalar ``int()`` overshoot returns).  Unranking maps pair
    index to (u, v) through the precomputed row-start table
    ``S[u] = u(n-1) - u(u-1)/2`` with one ``searchsorted``.
    """
    stream = _transplanted_stream(rng)
    chunks: list["_np.ndarray"] = []
    index = -1
    chunk = max(32, int(expected * 1.1) + 32)
    while True:
        raw = _np.log(
            _np.maximum(stream.random_sample(chunk), 1e-300)
        ) / log_q
        steps = _np.minimum(raw, total_pairs).astype(_np.int64) + 1
        positions = index + _np.cumsum(steps)
        terminal = _np.nonzero(positions >= total_pairs)[0]
        if terminal.size:
            chunks.append(positions[: terminal[0]])
            break
        chunks.append(positions)
        index = int(positions[-1])
        chunk = 4096
    indices = chunks[0] if len(chunks) == 1 else _np.concatenate(chunks)
    row = _np.arange(n, dtype=_np.int64)
    starts = row * (n - 1) - (row * (row - 1)) // 2
    us = _np.searchsorted(starts, indices, side="right") - 1
    vs = indices - starts[us] + us + 1
    return us, vs


def gnp(n: int, p: float, seed: int = 0,
        backend: str | None = None, *,
        vectorized: bool | None = None) -> Graph:
    """Erdős–Rényi G(n, p).

    Both execution paths sample by geometric skipping over the ordered
    upper-pair list; the vectorized one replays the identical
    recurrence on the transplanted RNG stream, so the edge set depends
    only on the seed (see the module docstring's contract).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    rng = random.Random(seed)
    if p == 0.0 or n < 2:
        return Graph(n, backend=backend)
    log_q = math.log1p(-p) if p < 1.0 else None
    total_pairs = n * (n - 1) // 2
    if log_q is None:
        # p == 1.0: K_n via one bulk fill — the all-ones mask is built
        # once, not rebuilt per vertex.
        return Graph.complete(n, backend=backend)
    expected = int(p * total_pairs)
    if _use_vectorized(vectorized, expected, "gnp"):
        us, vs = _gnp_edge_arrays(rng, n, log_q, total_pairs, expected)
        return Graph.from_edge_arrays(
            n, us, vs, backend=backend, expected_edges=expected
        )
    graph = Graph(n, backend=backend, expected_edges=expected)
    # Unranking state carried across hits: sampled indices are strictly
    # increasing, so (u, row_start, row_len) only ever move forward —
    # amortized O(1) per hit instead of O(n) re-unranking.
    index = -1
    u = 0
    row_start = 0
    row_len = n - 1
    while True:
        gap = int(math.log(max(rng.random(), 1e-300)) / log_q) + 1
        index += gap
        if index >= total_pairs:
            return graph
        while index - row_start >= row_len:
            row_start += row_len
            u += 1
            row_len -= 1
        graph.add_edge(u, u + 1 + (index - row_start))


def gnd(n: int, d: float, seed: int = 0,
        backend: str | None = None, *,
        vectorized: bool | None = None) -> Graph:
    """Random graph with expected average degree ``d``."""
    if n < 2:
        return Graph(n, backend=backend)
    p = min(1.0, d / (n - 1))
    return gnp(n, p, seed, backend=backend, vectorized=vectorized)


@dataclass(frozen=True)
class PlantedInstance:
    """An epsilon-far-by-construction instance with its certificate."""

    graph: Graph
    planted_triangles: tuple[tuple[int, int, int], ...]
    epsilon_certified: float
    """Certified farness: planted disjoint triangles / |E|."""


def planted_disjoint_triangles(n: int, num_triangles: int, seed: int = 0,
                               background_degree: float = 0.0,
                               backend: str | None = None
                               ) -> PlantedInstance:
    """Plant ``num_triangles`` vertex-disjoint triangles, plus background.

    The planted triangles are vertex-disjoint hence edge-disjoint, so the
    instance is certifiably ``num_triangles / |E|``-far from triangle-free
    regardless of what the background edges add (extra triangles only make
    the graph farther).  ``background_degree`` adds a G(n, p) layer of that
    expected average degree to dial d independently of epsilon.
    """
    if 3 * num_triangles > n:
        raise ValueError(
            f"cannot plant {num_triangles} vertex-disjoint triangles "
            f"on {n} vertices"
        )
    rng = random.Random(seed)
    vertices = list(range(n))
    rng.shuffle(vertices)
    graph = (
        gnd(n, background_degree, seed=seed + 1, backend=backend)
        if background_degree > 0
        else Graph(n, backend=backend)
    )
    # Triangle t is the sorted shuffled slice vertices[3t : 3t + 3],
    # committed through one bulk edge-array insert.
    members = _np.sort(
        _np.array(
            vertices[: 3 * num_triangles], dtype=_np.int64
        ).reshape(-1, 3),
        axis=1,
    )
    graph.add_edge_arrays(
        members[:, (0, 0, 1)].ravel(), members[:, (1, 2, 2)].ravel()
    )
    planted = [tuple(row) for row in members.tolist()]
    epsilon = num_triangles / max(1, graph.num_edges)
    return PlantedInstance(graph, tuple(planted), epsilon)


def far_instance(n: int, d: float, epsilon: float, seed: int = 0,
                 strict: bool = False,
                 backend: str | None = None) -> PlantedInstance:
    """An instance with average degree ≈ d that is ≈ epsilon-far.

    Total edges ≈ nd/2; we plant ``epsilon * nd / 2`` disjoint triangles
    (3 edges each) and fill the remaining density with background noise.
    The returned certificate reports the farness actually achieved.

    Vertex-disjointness caps the plantable triangles at ``n // 3``, so at
    high ``epsilon * d`` the certified farness can undershoot the request.
    That shortfall used to be silent; now any certified epsilon below
    90% of the request logs a warning on this module's logger (mirrored
    into the active trace as an event — see :mod:`repro.obs.trace`), or
    raises ``ValueError`` under ``strict=True``.
    """
    if epsilon <= 0 or epsilon > 1:
        raise ValueError(f"epsilon must be in (0,1], got {epsilon}")
    target_edges = n * d / 2.0
    requested_triangles = max(1, int(epsilon * target_edges))
    num_triangles = min(requested_triangles, n // 3)
    triangle_edges = 3 * num_triangles
    leftover = max(0.0, target_edges - triangle_edges)
    background_degree = 2.0 * leftover / n
    instance = planted_disjoint_triangles(
        n, num_triangles, seed=seed, background_degree=background_degree,
        backend=backend,
    )
    if instance.epsilon_certified < 0.9 * epsilon:
        cause = (
            f"the vertex-disjointness cap is n//3={n // 3}"
            if num_triangles < requested_triangles
            else "background noise inflated the edge count"
        )
        message = (
            f"far_instance(n={n}, d={d}, epsilon={epsilon}) certifies only "
            f"epsilon={instance.epsilon_certified:.4f} "
            f"({num_triangles} disjoint triangles over "
            f"{instance.graph.num_edges} edges; {cause})"
        )
        if strict:
            raise ValueError(message)
        _LOGGER.warning(message)
    return instance


def skewed_hub_graph(n: int, num_hubs: int, vees_per_hub: int,
                     seed: int = 0, background_degree: float = 0.0,
                     backend: str | None = None) -> Graph:
    """A few high-degree hubs source all triangle-vees (§3.3 hard case).

    Each hub h is connected to ``2 * vees_per_hub`` distinct spoke vertices
    paired into vees; each vee's two spokes are joined by the closing edge.
    Uniform vertex sampling almost never hits a hub, which is exactly the
    situation degree bucketing is designed to rescue.
    """
    rng = random.Random(seed)
    if num_hubs < 1:
        raise ValueError(f"need at least one hub, got {num_hubs}")
    spokes_needed = 2 * vees_per_hub * num_hubs
    if num_hubs + spokes_needed > n:
        raise ValueError(
            f"n={n} too small for {num_hubs} hubs x {vees_per_hub} vees"
        )
    vertices = list(range(n))
    rng.shuffle(vertices)
    hubs = vertices[:num_hubs]
    spokes = vertices[num_hubs: num_hubs + spokes_needed]
    graph = (
        gnd(n, background_degree, seed=seed + 1, backend=backend)
        if background_degree > 0
        else Graph(n, backend=backend)
    )
    cursor = 0
    for hub in hubs:
        for _ in range(vees_per_hub):
            a, b = spokes[cursor], spokes[cursor + 1]
            cursor += 2
            graph.add_edge(hub, a)
            graph.add_edge(hub, b)
            graph.add_edge(a, b)
    return graph


def powerlaw_host(n: int, d: float, exponent: float = 2.5, seed: int = 0,
                  backend: str | None = None, *,
                  vectorized: bool | None = None) -> Graph:
    """Chung–Lu style heavy-tailed host with expected average degree ≈ d.

    Vertex ``i`` carries weight ``w_i ∝ (i + 1)^(-1/(exponent - 1))`` —
    the weight sequence whose realized degrees follow a power law with
    tail exponent ``exponent`` (2 < exponent < 3 is the scale-free
    regime; vertex 0 is the heaviest hub, deterministically, in the
    ``mu_parts`` spirit of fixed layouts).  ``round(n·d/2)`` candidate
    edges are sampled by drawing both endpoints from the
    weight-proportional distribution (inverse CDF over the cumulative
    weights); self-loops and duplicate pairs are dropped, so the
    realized average degree undershoots ``d`` slightly, vanishingly so
    as n grows.

    This is the adversarial-host workload the ROADMAP asks for: a few
    hubs concentrate most wedges, stressing the high/low split and
    degree-oblivious protocols — and at constant ``d`` it is the
    natural n = 10^6 sparse instance for the csr kernel.

    Deterministic given ``seed``; ``backend=`` threads through; the
    ``vectorized`` knob follows the module contract (identical edge
    sets on both paths).
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if d < 0:
        raise ValueError(f"average degree must be non-negative, got {d}")
    if exponent <= 1.0:
        raise ValueError(
            f"power-law exponent must exceed 1, got {exponent}"
        )
    draws = int(round(n * d / 2.0))
    if n < 2 or draws == 0:
        return Graph(n, backend=backend)
    alpha = 1.0 / (exponent - 1.0)
    rng = random.Random(seed)
    cum = _np.cumsum(_np.arange(1, n + 1, dtype=_np.float64) ** (-alpha))
    total = float(cum[-1])
    if _use_vectorized(vectorized, 2 * draws, "powerlaw_host"):
        stream = _transplanted_stream(rng)
        targets = stream.random_sample(2 * draws) * total
        endpoints = _np.minimum(
            _np.searchsorted(cum, targets, side="right"), n - 1
        )
        us = endpoints[0::2]
        vs = endpoints[1::2]
        keep = us != vs
        return Graph.from_edge_arrays(
            n, us[keep], vs[keep], backend=backend, expected_edges=draws
        )
    edges: list[tuple[int, int]] = []
    for _ in range(draws):
        u = min(bisect.bisect_right(cum, rng.random() * total), n - 1)
        v = min(bisect.bisect_right(cum, rng.random() * total), n - 1)
        if u != v:
            edges.append((u, v))
    graph = Graph(n, backend=backend, expected_edges=draws)
    graph.add_edges(edges)
    return graph


@dataclass(frozen=True)
class TripartiteParts:
    """Vertex ranges of the three parts of a µ-distribution graph."""

    u_part: range
    v1_part: range
    v2_part: range

    @property
    def n(self) -> int:
        return len(self.u_part) + len(self.v1_part) + len(self.v2_part)


def mu_parts(part_size: int) -> TripartiteParts:
    """Part layout used by :func:`tripartite_mu`: U, V1, V2 contiguous."""
    return TripartiteParts(
        u_part=range(0, part_size),
        v1_part=range(part_size, 2 * part_size),
        v2_part=range(2 * part_size, 3 * part_size),
    )


def tripartite_mu(part_size: int, gamma: float, seed: int = 0,
                  backend: str | None = None, *,
                  vectorized: bool | None = None
                  ) -> tuple[Graph, TripartiteParts]:
    """Sample from the lower-bound distribution µ (Section 4.2.1).

    A tripartite graph on parts U, V1, V2 of ``part_size`` vertices each;
    every cross-part pair is an edge independently with probability
    ``gamma / sqrt(n)`` where ``n = 3 * part_size`` is the total vertex
    count.  The expected average degree is Θ(gamma * sqrt(n)).

    Every cross-part pair costs one uniform draw in row-major order on
    both paths — the vectorized one draws the same uniforms in chunks
    from the transplanted stream and keeps the ``< p`` comparison, so
    pinned seeds reproduce the exact scalar graphs.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    parts = mu_parts(part_size)
    n = parts.n
    p = min(1.0, gamma / math.sqrt(n))
    rng = random.Random(seed)
    part_pairs = (
        (parts.u_part, parts.v1_part),
        (parts.u_part, parts.v2_part),
        (parts.v1_part, parts.v2_part),
    )
    total_draws = 3 * part_size * part_size
    expected_edges = int(p * total_draws)
    if _use_vectorized(vectorized, total_draws, "tripartite_mu"):
        stream = _transplanted_stream(rng)
        us_parts: list["_np.ndarray"] = []
        vs_parts: list["_np.ndarray"] = []
        for part_a, part_b in part_pairs:
            width = len(part_b)
            if width == 0:
                continue
            rows_per_chunk = max(1, _DRAW_CHUNK // width)
            for offset in range(0, len(part_a), rows_per_chunk):
                rows = min(rows_per_chunk, len(part_a) - offset)
                draws = stream.random_sample(rows * width)
                hits = _np.nonzero(draws < p)[0]
                if hits.size:
                    us_parts.append(part_a.start + offset + hits // width)
                    vs_parts.append(part_b.start + hits % width)
        if us_parts:
            us = _np.concatenate(us_parts)
            vs = _np.concatenate(vs_parts)
        else:
            us = vs = _np.empty(0, dtype=_np.int64)
        graph = Graph.from_edge_arrays(
            n, us, vs, backend=backend, expected_edges=expected_edges
        )
        return graph, parts
    graph = Graph(n, backend=backend, expected_edges=expected_edges)
    random_value = rng.random
    for part_a, part_b in part_pairs:
        for u in part_a:
            # Accumulate u's sampled row as one mask, committed in bulk;
            # the per-pair draw order is unchanged, so seeds reproduce
            # the exact graphs of the per-edge implementation.
            row = 0
            for v in part_b:
                if random_value() < p:
                    row |= 1 << v
            if row:
                graph.add_neighbors(u, row)
    return graph, parts


def bipartite_triangle_free(n: int, d: float, seed: int = 0,
                            backend: str | None = None) -> Graph:
    """A triangle-free control graph of average degree ≈ d (random bipartite)."""
    rng = random.Random(seed)
    half = n // 2
    graph = Graph(n, backend=backend)
    if half == 0 or n - half == 0:
        return graph
    p = min(1.0, n * d / (2.0 * half * (n - half)))
    random_value = rng.random
    for u in range(half):
        row = 0
        for v in range(half, n):
            if random_value() < p:
                row |= 1 << v
        if row:
            graph.add_neighbors(u, row)
    return graph


def planted_triangles_at_degree(n: int, num_triangles: int,
                                vertex_degree: int, seed: int = 0,
                                backend: str | None = None) -> Graph:
    """Plant disjoint triangles whose vertices all have a chosen degree.

    Each triangle vertex receives ``vertex_degree - 2`` extra leaf edges,
    pinning the minimal full bucket B_min at ``bucket(vertex_degree)``.
    This controls the Theorem 3.20 refined cost Õ(k·sqrt(d(B_min)) + k²):
    sweeping ``vertex_degree`` sweeps d(B_min) directly, with the planted
    triangles (and hence the far promise) held fixed.  Leaves have degree
    one, so no other bucket ever becomes full.
    """
    if vertex_degree < 2:
        raise ValueError(
            f"triangle vertices need degree >= 2, got {vertex_degree}"
        )
    leaves_per_vertex = vertex_degree - 2
    needed = num_triangles * 3 * (1 + leaves_per_vertex)
    if needed > n:
        raise ValueError(
            f"n={n} too small: {num_triangles} triangles at degree "
            f"{vertex_degree} need {needed} vertices"
        )
    rng = random.Random(seed)
    vertices = list(range(n))
    rng.shuffle(vertices)
    graph = Graph(n, backend=backend)
    cursor = 3 * num_triangles
    for t in range(num_triangles):
        a, b, c = vertices[3 * t: 3 * t + 3]
        graph.add_edge(a, b)
        graph.add_edge(a, c)
        graph.add_edge(b, c)
        for member in (a, b, c):
            for _ in range(leaves_per_vertex):
                graph.add_edge(member, vertices[cursor])
                cursor += 1
    return graph


def disjoint_cliques(n: int, clique_size: int, count: int,
                     seed: int = 0, backend: str | None = None) -> Graph:
    """``count`` vertex-disjoint copies of K_{clique_size}.

    Every clique vertex has degree ``clique_size - 1`` and a near-perfect
    matching of disjoint triangle-vees on its neighbourhood — the ideal
    *full vertex* population (α ≈ 1) at a pinned degree.  Used to measure
    the Theorem 3.20 found-path cost Õ(k·sqrt(d(B_min)) + k²), which
    presumes B_min's vertices carry Θ(ε·d) disjoint vees.
    """
    if clique_size < 3:
        raise ValueError(
            f"cliques need >= 3 vertices to hold triangles, "
            f"got {clique_size}"
        )
    if count * clique_size > n:
        raise ValueError(
            f"n={n} too small for {count} disjoint K_{clique_size}"
        )
    rng = random.Random(seed)
    vertices = list(range(n))
    rng.shuffle(vertices)
    graph = Graph(n, backend=backend)
    for index in range(count):
        members = vertices[index * clique_size: (index + 1) * clique_size]
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                graph.add_edge(u, v)
    return graph


def triangle_free_degree_spread(n: int, d: float, max_degree: int,
                                seed: int = 0,
                                backend: str | None = None) -> Graph:
    """Triangle-free control with degrees spread across all buckets.

    A bipartite graph (hence triangle-free) whose left side contains
    vertices of degree ~3^i for every bucket i up to ``max_degree``, with
    roughly equal edge mass per bucket, totalling ≈ nd/2 edges.  This is
    the *worst-case driver* for the unrestricted protocol: a one-sided
    tester never finds a triangle here, so it pays its full bucket-loop
    cost, and every bucket up to d_h is populated so no iteration exits
    early — the measured cost is the Õ(k(nd)^{1/4} + k²) bound itself.
    """
    rng = random.Random(seed)
    half = n // 2
    if half < 2:
        return Graph(n, backend=backend)
    max_degree = min(max_degree, half - 1)
    bucket_degrees: list[int] = []
    degree = 1
    while degree <= max_degree:
        bucket_degrees.append(degree)
        degree *= 3
    if not bucket_degrees:
        bucket_degrees = [1]
    if bucket_degrees[-1] < max_degree:
        # Include the exact ceiling so the top bucket tracks max_degree
        # instead of the nearest power of 3 below it.
        bucket_degrees.append(max_degree)
    total_edges = n * d / 2.0
    per_bucket = total_edges / len(bucket_degrees)
    counts = [
        max(1, int(per_bucket / bucket_degree))
        for bucket_degree in bucket_degrees
    ]
    total_left = sum(counts)
    if total_left > half:
        shrink = half / total_left
        counts = [max(1, int(count * shrink)) for count in counts]
    # Heavy buckets first, so the high-degree vertices always exist even
    # when the left side runs out of slots.  Left vertices take the runs'
    # sample sizes in order.
    right_size = n - half
    runs: list[tuple[int, int]] = []
    slots = half
    for bucket_degree, count in sorted(
        zip(bucket_degrees, counts), reverse=True
    ):
        count = min(count, slots)
        slots -= count
        if count:
            runs.append((min(bucket_degree, right_size), count))
    sizes = _np.repeat([size for size, _ in runs],
                       [count for _, count in runs])
    lefts = _np.repeat(_np.arange(sizes.size, dtype=_np.int64), sizes)
    rights = _replayed_samples(rng, right_size, runs) + half
    return Graph.from_edge_arrays(n, lefts, rights, backend=backend)


def _sample_setsize(k: int) -> int:
    """``random.sample``'s method switch, copied from CPython 3.10-3.13:
    a population of at most this size is drawn by the pool method."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return setsize


def _replayed_samples(rng: random.Random, population: int,
                      runs: list[tuple[int, int]]) -> "_np.ndarray":
    """``rng.sample(range(population), k)`` ``count`` times per run
    ``(k, count)``, all concatenated.

    ``sample`` takes each draw from ``randbelow``: the top
    ``population.bit_length()`` bits of the next 32-bit MT19937 word,
    rejected while ``>= population``.  Its *pool* method (populations
    up to :func:`_sample_setsize`) shrinks the bound every draw and runs
    here through ``rng.sample`` itself.  Its *set* method draws against
    the fixed bound and redraws values the sample already holds, so a
    sample is the next ``k`` distinct values of one accepted-value
    stream.  That stream is read in bulk from ``rng.getrandbits`` words
    (first word least significant), and each run is consumed as
    ``(rows, k)`` blocks: rows before the first one holding a repeat
    are samples as they stand, and the repeating row takes the first
    ``k`` distinct values of its window.  ``k`` must not increase from
    run to run (the pool method then comes first, since the set size
    grows with ``k``), and ``rng`` ends past the words read.
    """
    parts = [_np.empty(0, dtype=_np.int64)]
    while runs and population <= _sample_setsize(runs[0][0]):
        k, count = runs[0]
        parts.extend(
            _np.array(rng.sample(range(population), k), dtype=_np.int64)
            for _ in range(count)
        )
        runs = runs[1:]
    if any(population <= _sample_setsize(k) for k, _ in runs):
        raise ValueError("sample sizes must not increase")
    bits = population.bit_length()
    accepted = _np.empty(0, dtype=_np.int64)

    def fill(size: int) -> "_np.ndarray":
        nonlocal accepted
        while accepted.size < size:
            words = (size - accepted.size) * (1 << bits) * 11 // (
                10 * population) + 64
            draws = (_np.frombuffer(
                rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                dtype="<u4",
            ) >> (32 - bits)).astype(_np.int64)
            accepted = _np.concatenate(
                (accepted, draws[draws < population])
            )
        return accepted

    # Every sample value, plus twice the ~k²/2N repeats a sample expects.
    fill(sum(count * (k + k * k // population) for k, count in runs))
    position = 0
    for k, count in runs:
        while count:
            # About twice the expected repeat-free run of rows.
            rows = min(count, 1 + 4 * population // (k * k))
            block = fill(position + rows * k)[
                position:position + rows * k
            ].reshape(rows, k)
            ordered = _np.sort(block, axis=1)
            repeats = _np.flatnonzero(
                (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            )
            clean = int(repeats[0]) if repeats.size else rows
            parts.append(block[:clean].ravel())
            position += clean * k
            count -= clean
            if clean == rows:
                continue
            width = 2 * k
            while True:
                window = fill(position + width)[position:position + width]
                _, first = _np.unique(window, return_index=True)
                if first.size >= k:
                    break
                width *= 2
            taken = _np.sort(first)[:k]
            parts.append(window[taken])
            position += int(taken[-1]) + 1
            count -= 1
    return _np.concatenate(parts)


def embed_in_larger_graph(core: Graph, total_n: int, seed: int = 0,
                          backend: str | None = None) -> Graph:
    """Lemma 4.17 embedding: the core plus isolated vertices, shuffled ids.

    Triangle structure and distance to triangle-freeness are exactly those
    of the core; only n (and hence the average degree) changes.
    """
    if total_n < core.n:
        raise ValueError(
            f"target size {total_n} smaller than core size {core.n}"
        )
    rng = random.Random(seed)
    relabel = list(range(total_n))
    rng.shuffle(relabel)
    graph = Graph(total_n, backend=backend)
    for u, v in core.edges():
        graph.add_edge(relabel[u], relabel[v])
    return graph
