"""The unrestricted-communication protocol of Section 3.3 (Algorithms 1-6).

The protocol exploits interaction: once *any* triangle-vee over input edges
is exposed, one more round suffices — every player checks its own input for
the closing edge.  Finding a triangle therefore reduces to finding a vee,
and finding a vee reduces to finding a *full vertex* (Definition 5) and
sampling Θ̃(sqrt(d(v))) of its incident edges (the extended birthday
paradox, Lemma 3.9).  Full vertices are located by degree bucketing:

1. iterate buckets ``B_i`` of degree range [3^(i-1), 3^i) from ``d_l`` up to
   ``d_h = sqrt(nd/eps)`` (Lemma 3.12 brackets the minimal full bucket);
2. per bucket, sample vertices uniformly from the player-suspected set
   ``B~_i = ∪_j B~_i^j`` with the public-permutation trick (Algorithm 1 —
   unbiased despite duplication);
3. filter samples by an approximate degree (Theorem 3.1) to the bucket's
   band (Algorithm 3, GetFullCandidates);
4. per surviving candidate, publicly sample its incident edges and have
   players report the hits (Algorithm 4, SampleEdges); the coordinator
   posts the collected star edges and players answer with a closing edge
   if their input has one (Algorithm 5, FindTriangleVee).

Sample-size formulas follow the paper exactly; a ``scale`` knob multiplies
the leading constants because the paper's worst-case constants exceed any
feasible population at reproduction sizes (see DESIGN.md).  With
``scale=1.0`` the formulas are the paper's verbatim.

The module also provides the Corollary 3.22 degree-oblivious mode (the
average degree is estimated by the distinct-elements routine, the bucket
range widened by the approximation factor) and the Theorem 3.23 blackboard
mode (edges posted once, deduplicated, saving the factor k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.comm.coordinator import CoordinatorRuntime
from repro.comm.ledger import CommunicationLedger
from repro.comm.encoding import (
    edge_bits,
    elias_gamma_bits,
    indicator_bits,
    vertex_bits,
)
from repro.comm.players import Player, make_players
from repro.comm.randomness import PublicPredicate, SharedRandomness
from repro.core.degree_approx import (
    DegreeApproxParams,
    approx_average_degree,
    approx_degree,
)
from repro.core.results import DetectionResult
from repro.graphs.buckets import (
    DegreeThresholds,
    bucket_bounds,
    degree_thresholds,
    log2n,
)
from repro.graphs.graph import Edge, canonical_edge, iter_bits, mask_of
from repro.graphs.partition import EdgePartition

__all__ = ["UnrestrictedParams", "find_triangle_unrestricted"]


@dataclass(frozen=True)
class UnrestrictedParams:
    """Parameters of the Section 3.3 protocol.

    With every optional override left at None and ``scale = 1.0``, the
    sample sizes are the paper's literal formulas:

    * ``q = ln(6/δ) · 108 · log²n · k / ε²`` total samples per bucket;
    * ``|C| <= ln(6/δ) · 312 · log²n / ε²`` candidates kept per bucket;
    * per-candidate edge-sampling probability
      ``p = 4 sqrt(ln(6/δ)) · sqrt(12 log n / (ε · d'(v)/3))``;
    * per-player edge cap ``(1 + 18 ln(6/δ)/(d' p)) · sqrt(3) d' p``.
    """

    epsilon: float = 0.1
    delta: float = 0.1
    scale: float = 1.0
    known_average_degree: float | None = None
    """If None, estimate d via Corollary 3.22 (costs O~(k) extra)."""
    samples_per_bucket: int | None = None
    max_candidates: int | None = None
    edge_probability_scale: float = 1.0
    degree_params: DegreeApproxParams = field(
        default_factory=lambda: DegreeApproxParams(alpha=math.sqrt(3.0))
    )
    degree_mode: str = "approx"
    """'approx' = Theorem 3.1; 'nodup_exact' = trivial sum (no-duplication
    inputs only, O(k log d) per query, §3.1's first degree primitive)."""
    blackboard: bool = False
    """Theorem 3.23: post edges once on a shared blackboard."""

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0,1], got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        if self.degree_mode not in ("approx", "nodup_exact"):
            raise ValueError(f"unknown degree_mode {self.degree_mode!r}")

    # ------------------------------------------------------------------
    # Paper formulas (with the scale knob)
    # ------------------------------------------------------------------
    def bucket_sample_budget(self, n: int, k: int) -> int:
        """q: total uniform samples drawn per bucket (Algorithm 3)."""
        if self.samples_per_bucket is not None:
            return self.samples_per_bucket
        q = (
            math.log(6.0 / self.delta) * 108.0 * log2n(n) ** 2 * k
            / self.epsilon ** 2
        )
        return max(1, int(math.ceil(self.scale * q)))

    def candidate_budget(self, n: int) -> int:
        """Cap on |C|, the filtered candidate set (Algorithm 3)."""
        if self.max_candidates is not None:
            return self.max_candidates
        cap = (
            math.log(6.0 / self.delta) * 312.0 * log2n(n) ** 2
            / self.epsilon ** 2
        )
        return max(1, int(math.ceil(self.scale * cap)))

    def edge_probability(self, n: int, approx_degree_value: int) -> float:
        """Algorithm 4's sampling probability for a candidate vertex."""
        d_eff = max(1.0, approx_degree_value / 3.0)
        p = (
            4.0
            * math.sqrt(math.log(6.0 / self.delta))
            * math.sqrt(12.0 * log2n(n) / (self.epsilon * d_eff))
        )
        return min(1.0, self.edge_probability_scale * p)

    def edge_cap(self, approx_degree_value: int, p: float) -> int:
        """Algorithm 4's per-player cap on sent edges."""
        dp = max(1e-9, approx_degree_value * p)
        cap = (1.0 + 18.0 / dp * math.log(6.0 / self.delta)) * math.sqrt(
            3.0
        ) * dp
        return max(1, int(math.ceil(cap)))


def find_triangle_unrestricted(
    partition: EdgePartition,
    params: UnrestrictedParams | None = None,
    seed: int = 0,
    *,
    shared: SharedRandomness | None = None,
    record_messages: bool = False,
) -> DetectionResult:
    """Run FindTriangle (Algorithm 6) on a partitioned input.

    One-sided error: a returned triangle always exists in the input.  On an
    epsilon-far input the paper guarantees detection with probability
    ``1 - delta`` (under the paper's literal sample sizes).
    Expected communication O~(k (nd)^{1/4} + k²).

    ``shared`` injects a pre-built coin stream (the batched engine passes
    one draw-identical to ``SharedRandomness(seed)``); ``record_messages``
    retains the per-message transcript in ``details["transcript"]``.
    """
    params = params or UnrestrictedParams()
    players = make_players(partition)
    shared = shared if shared is not None else SharedRandomness(seed)
    rt = CoordinatorRuntime(
        players, shared=shared,
        ledger=CommunicationLedger(record_messages=record_messages),
    )
    n = rt.n
    k = rt.k

    # ------------------------------------------------------------------
    # Average degree: given, or estimated (Corollary 3.22).
    # ------------------------------------------------------------------
    oblivious = params.known_average_degree is None
    if oblivious:
        estimated = approx_average_degree(
            rt, params=DegreeApproxParams(alpha=2.0, tau=params.delta / 6.0),
            tag=7,
        )
        d = max(estimated, 2.0 / max(1, n))
        widen = 2.0
    else:
        d = params.known_average_degree
        widen = 1.0
    if d <= 0:
        # An empty graph is triangle-free; nothing to look for.
        details = {"reason": "empty graph"}
        if record_messages:
            details["transcript"] = rt.ledger.records
        return DetectionResult(
            found=False, triangle=None, cost=rt.ledger.summary(),
            details=details,
        )

    thresholds = degree_thresholds(n, d, params.epsilon)
    widened = DegreeThresholds(
        d_low=thresholds.d_low / widen, d_high=thresholds.d_high * widen
    )
    bucket_range = widened.bucket_range(n)

    q = params.bucket_sample_budget(n, k)
    candidate_cap = params.candidate_budget(n)

    details: dict = {
        "average_degree_used": d,
        "oblivious": oblivious,
        "bucket_range": (bucket_range.start, bucket_range.stop),
        "samples_per_bucket": q,
        "candidate_cap": candidate_cap,
        "buckets_tried": 0,
        "candidates_examined": 0,
    }

    for bucket in bucket_range:
        details["buckets_tried"] += 1
        candidates = _get_full_candidates(
            rt, params, bucket, q, candidate_cap, tag=bucket
        )
        for ordinal, (v, degree_estimate) in enumerate(candidates):
            details["candidates_examined"] += 1
            triangle = _sample_edges_and_close(
                rt, params, v, degree_estimate,
                tag=bucket * 100_003 + ordinal,
            )
            if triangle is not None:
                details["found_at_bucket"] = bucket
                if record_messages:
                    details["transcript"] = rt.ledger.records
                return DetectionResult(
                    found=True,
                    triangle=triangle,
                    witness_edges=_triangle_edges(triangle),
                    cost=rt.ledger.summary(),
                    details=details,
                )
    if record_messages:
        details["transcript"] = rt.ledger.records
    return DetectionResult(
        found=False, triangle=None, cost=rt.ledger.summary(), details=details
    )


# ----------------------------------------------------------------------
# Algorithm 1: SampleUniformFromB~i
# ----------------------------------------------------------------------
def _sample_uniform_from_suspected(rt: CoordinatorRuntime, bucket: int,
                                   tag: int) -> int | None:
    """One unbiased uniform sample from B~_i, or None if B~_i is empty."""
    order = rt.shared.public_order(rt.n, tag=tag)
    with rt.scope("SampleUniformFromB~i"):
        firsts = rt.collect(
            compute=lambda p: p.first_in_suspected_bucket(
                bucket, rt.k, order
            ),
            response_bits=lambda v: (
                vertex_bits(rt.n) if v is not None else indicator_bits()
            ),
        )
        present = [v for v in firsts if v is not None]
        chosen = min(present, key=order) if present else None
        rt.broadcast(
            vertex_bits(rt.n) if chosen is not None else indicator_bits()
        )
    return chosen


# ----------------------------------------------------------------------
# Algorithm 3: GetFullCandidates
# ----------------------------------------------------------------------
def _get_full_candidates(rt: CoordinatorRuntime, params: UnrestrictedParams,
                         bucket: int, q: int, candidate_cap: int,
                         tag: int) -> list[tuple[int, int]]:
    """Sample q vertices from B~_i, keep those whose approx degree fits B_i."""
    d_minus, d_plus = bucket_bounds(max(1, bucket))
    sqrt3 = math.sqrt(3.0)
    candidates: list[tuple[int, int]] = []
    seen: set[int] = set()
    with rt.scope("GetFullCandidates"):
        for attempt in range(q):
            if len(candidates) >= candidate_cap:
                break
            v = _sample_uniform_from_suspected(
                rt, bucket, tag=tag * 1_000_003 + attempt
            )
            if v is None:
                break  # B~_i empty for every player: bucket cannot help.
            if v in seen:
                continue
            seen.add(v)
            degree_estimate = _estimate_degree(
                rt, params, v, tag=tag * 900_001 + attempt
            )
            if d_minus / sqrt3 <= degree_estimate <= sqrt3 * d_plus:
                candidates.append((v, degree_estimate))
    return candidates


def _estimate_degree(rt: CoordinatorRuntime, params: UnrestrictedParams,
                     v: int, tag: int) -> int:
    if params.degree_mode == "nodup_exact":
        # §3.1: without duplication, players just send their local counts.
        with rt.scope("exact_degree_nodup"):
            counts = rt.collect(
                compute=lambda p: p.local_degree(v),
                response_bits=lambda c: elias_gamma_bits(c + 1),
            )
        return sum(counts)
    estimate = approx_degree(rt, v, params=params.degree_params, tag=tag)
    return estimate.value


# ----------------------------------------------------------------------
# Algorithms 4+5: SampleEdges and the closing round
# ----------------------------------------------------------------------
def _sample_edges_and_close(rt: CoordinatorRuntime,
                            params: UnrestrictedParams, v: int,
                            degree_estimate: int,
                            tag: int) -> tuple[int, int, int] | None:
    """Sample v's star, post it, and ask players for a closing edge."""
    n = rt.n
    p = params.edge_probability(n, degree_estimate)
    cap = params.edge_cap(degree_estimate, p)
    pred = rt.shared.bernoulli_predicate(p, tag=tag)

    with rt.scope("SampleEdges"):
        harvests = rt.collect(
            compute=lambda player: _capped_star(player, v, pred, cap),
            response_bits=lambda edges: max(1, len(edges) * edge_bits(n)),
        )
        sampled_neighbors: set[int] = set()
        for harvest in harvests:
            for edge in harvest:
                far = edge[0] if edge[1] == v else edge[1]
                sampled_neighbors.add(far)
        if len(sampled_neighbors) < 2:
            return None
        star_mask = mask_of(sampled_neighbors)
        # Coordinator posts the star to all players (k copies in the
        # coordinator model; once on the blackboard under Theorem 3.23).
        post_bits = max(1, len(sampled_neighbors) * vertex_bits(n))
        if params.blackboard:
            rt.ledger.charge_downstream(0, post_bits, "post-star")
        else:
            rt.broadcast(post_bits, "post-star")

    with rt.scope("closing-round"):
        closings = rt.collect(
            compute=lambda player: _first_edge_within(player, star_mask),
            response_bits=lambda e: (
                edge_bits(n) if e is not None else indicator_bits()
            ),
        )
    for closing in closings:
        if closing is not None:
            u, w = closing
            a, b, c = sorted((v, u, w))
            return (a, b, c)
    return None


def _capped_star(player: Player, v: int, pred, cap: int) -> list[Edge]:
    """E_j ∩ ({v} × S) truncated to the cap, S given by the predicate.

    Neighbours are taken in ascending order either way, so the cap keeps
    the same edges for a :class:`PublicPredicate` (one array test) as
    for a plain callable (asked per neighbour).
    """
    if isinstance(pred, PublicPredicate):
        nbrs = player.local_neighbor_array(v)
        hits = nbrs[pred.test(nbrs)][:cap].tolist()
    else:
        hits = [
            u for u in iter_bits(player.local_neighbor_mask(v)) if pred(u)
        ][:cap]
    return [canonical_edge(v, u) for u in hits]


def _first_edge_within(player: Player, candidate_mask: int) -> Edge | None:
    """The player's first local edge with both endpoints in the mask.

    The mask harvest enumerates ascending, so element 0 is the minimum.
    """
    inside = player.edges_within_mask(candidate_mask)
    return inside[0] if inside else None


def _triangle_edges(triangle: tuple[int, int, int]) -> tuple[Edge, ...]:
    a, b, c = triangle
    return ((a, b), (a, c), (b, c))
