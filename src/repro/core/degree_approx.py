"""Degree approximation under edge duplication (Theorem 3.1, Lemma 3.2).

With duplication, the exact degree of a vertex is as hard as set
disjointness (Ω(k·d(v)) bits), but a constant-factor approximation is cheap.
The paper's two-phase scheme, implemented here verbatim:

**Phase 1 (MSB round).**  Each player sends the index of the most
significant bit of its local degree ``d_j(v)`` — O(log log d) bits.  The
coordinator forms ``d' = Σ_j 2^(I_j + 1)``, which satisfies
``d'/(2k) <= d(v) <= d'`` (the union can only be over-counted, and each
summand is a 2-approximation of ``d_j(v)``).

**Phase 2 (geometric guess-down).**  Starting from ``d''= d'`` and shrinking
by ``sqrt(alpha)`` per round, the players run public sampling experiments:
a public Bernoulli(1/d'') predicate over potential neighbours; each player
answers one bit — "does the sample hit one of my edges at v?".  The OR over
players is exactly "does the sample hit E(v)?", whose success probability is
``E(r) = 1 - (1 - 1/d'')^{d(v)}``.  While the guess is still far above d(v)
this is well below the stop threshold ``F(r)/c`` (with
``F(r) = 1 - (1 - 1/d'')^{d''}``), and once the guess falls below d(v) it is
well above, so the first round that clears the threshold pins d(v) to a
constant factor.  Only O(log k) rounds are needed because phase 1 already
bracketed d(v) within a 2k factor.

The same machinery estimates the number of *distinct* edges ``|E|`` (and
hence the average degree) by sampling over the edge universe instead of the
neighbour universe — the paper's closing remark that the procedure "solves
the more general problem of approximating the number of distinct elements
in a set".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.comm.coordinator import CoordinatorRuntime
from repro.comm.encoding import elias_gamma_bits, indicator_bits
from repro.core.building_blocks import edge_index

__all__ = [
    "DegreeApproxParams",
    "DegreeEstimate",
    "approx_degree",
    "approx_degree_no_duplication",
    "approx_distinct_edges",
    "approx_average_degree",
]


@dataclass(frozen=True)
class DegreeApproxParams:
    """Tuning knobs of the Theorem 3.1 estimator.

    ``alpha`` is the target approximation factor (output within
    ``[d/alpha, alpha*d]`` with probability ``1 - tau``); ``threshold_c``
    is the paper's constant c dividing F(r); ``experiments_scale`` scales
    the per-round experiment count m(r) = Θ(log log k · log 1/τ).
    """

    alpha: float = 3.0
    tau: float = 0.05
    threshold_c: float = 1.4
    experiments_scale: float = 16.0
    experiments_override: int | None = None

    def __post_init__(self) -> None:
        if self.alpha <= 1.0:
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0,1), got {self.tau}")
        if self.threshold_c <= 1.0:
            raise ValueError(
                f"threshold_c must exceed 1, got {self.threshold_c}"
            )

    def experiments_per_round(self, k: int) -> int:
        """m(r): enough experiments for a union bound over O(log k) rounds."""
        if self.experiments_override is not None:
            return self.experiments_override
        loglog_k = math.log2(math.log2(max(2, k)) + 2)
        return max(
            24,
            int(math.ceil(
                self.experiments_scale * math.log(3.0 / self.tau)
                * max(1.0, loglog_k)
            )),
        )


@dataclass(frozen=True)
class DegreeEstimate:
    """Outcome of one approximation run."""

    value: int
    rounds: int
    experiments: int
    msb_bracket: int
    """Phase-1 d' (the coarse 2k-approximation the guess-down starts from)."""


def _success_probability_if_correct(guess: float) -> float:
    """F(r) = 1 - (1 - 1/d'')^{d''}: expected success rate if d(v) = d''."""
    if guess <= 1.0:
        return 1.0
    return 1.0 - (1.0 - 1.0 / guess) ** guess


def approx_degree(rt: CoordinatorRuntime, v: int,
                  params: DegreeApproxParams | None = None,
                  tag: int = 0) -> DegreeEstimate:
    """Theorem 3.1: alpha-approximate deg(v) under duplication.

    Communication: O(k log log d(v) + k log k log log k log(1/tau)).
    """
    params = params or DegreeApproxParams()
    return _two_phase_estimate(
        rt,
        msb_of=lambda player: player.degree_msb_index(v),
        hit_tests=lambda player, preds: (
            player.any_incident_neighbor_in_each(v, preds)
        ),
        params=params,
        tag=tag,
        label="approx_degree",
    )


def approx_distinct_edges(rt: CoordinatorRuntime,
                          params: DegreeApproxParams | None = None,
                          tag: int = 0) -> DegreeEstimate:
    """Distinct-elements generalization: alpha-approximate |E|.

    Identical structure, sampling over the public edge-index universe.
    """
    params = params or DegreeApproxParams()
    n = rt.n

    def msb_of(player):
        if player.num_edges == 0:
            return None
        return player.num_edges.bit_length() - 1

    def hit_tests(player, preds):
        return [
            player.any_edge_index_in(lambda edge: edge_index(edge, n), pred)
            for pred in preds
        ]

    return _two_phase_estimate(
        rt, msb_of=msb_of, hit_tests=hit_tests, params=params, tag=tag,
        label="approx_distinct_edges",
    )


def approx_average_degree(rt: CoordinatorRuntime,
                          params: DegreeApproxParams | None = None,
                          tag: int = 0) -> float:
    """Approximate d = 2|E|/n via :func:`approx_distinct_edges`.

    This is what Corollary 3.22 uses to run the unrestricted protocol
    without advance knowledge of the average degree.
    """
    estimate = approx_distinct_edges(rt, params=params, tag=tag)
    return 2.0 * estimate.value / max(1, rt.n)


def _two_phase_estimate(rt: CoordinatorRuntime, msb_of, hit_tests,
                        params: DegreeApproxParams, tag: int,
                        label: str) -> DegreeEstimate:
    k = rt.k
    # ------------------------------------------------------------------
    # Phase 1: MSB indices -> coarse bracket d' with d'/(2k) <= true <= d'.
    # ------------------------------------------------------------------
    with rt.scope(f"{label}/msb"):
        msb_indices = rt.collect(
            compute=msb_of,
            response_bits=lambda i: (
                elias_gamma_bits(i + 1) if i is not None else indicator_bits()
            ),
        )
        d_prime = sum(2 ** (i + 1) for i in msb_indices if i is not None)
        # Coordinator announces only the MSB index of d' (log log bits),
        # keeping phase-1 cost at O(k log log d).
        announce = d_prime.bit_length()
        rt.broadcast(elias_gamma_bits(announce + 1))
    if d_prime == 0:
        return DegreeEstimate(value=0, rounds=0, experiments=0, msb_bracket=0)

    # ------------------------------------------------------------------
    # Phase 2: geometric guess-down with sampling experiments.
    # ------------------------------------------------------------------
    sqrt_alpha = math.sqrt(params.alpha)
    # d(v) >= d'/(2k); stop the schedule one sqrt(alpha) step below that.
    floor_guess = max(2.0, d_prime / (2.0 * k * sqrt_alpha))
    m = params.experiments_per_round(k)
    experiments_run = 0
    rounds_run = 0
    guess = float(d_prime)
    with rt.scope(f"{label}/guess-down"):
        while guess > floor_guess * sqrt_alpha:
            rounds_run += 1
            threshold = (
                m * _success_probability_if_correct(guess) / params.threshold_c
            )
            # Every experiment of a round runs, so the round's predicates
            # are drawn up front (``collect`` draws no public coins, so
            # the nonces are unchanged) and each player answers all of
            # them in one local evaluation, on the round's first collect.
            preds = [
                rt.shared.bernoulli_predicate(
                    min(1.0, 1.0 / guess),
                    tag=tag * 1_000_003 + rounds_run * 1_009 + experiment,
                )
                for experiment in range(m)
            ]
            answers: dict[int, list[bool]] = {}

            def answer(player, experiment: int) -> bool:
                hits = answers.get(player.player_id)
                if hits is None:
                    hits = answers[player.player_id] = hit_tests(
                        player, preds
                    )
                return hits[experiment]

            successes = 0
            for experiment in range(m):
                bits = rt.collect(
                    compute=lambda p: answer(p, experiment),
                    response_bits=lambda _: indicator_bits(),
                    request_bits=0,
                )
                experiments_run += 1
                if any(bits):
                    successes += 1
            # Coordinator tells everyone whether to stop: 1 bit each.
            rt.broadcast(indicator_bits())
            if successes > threshold:
                return DegreeEstimate(
                    value=max(1, int(round(guess))),
                    rounds=rounds_run,
                    experiments=experiments_run,
                    msb_bracket=d_prime,
                )
            guess /= sqrt_alpha
    # Last guess reached: output it without running the experiment.
    return DegreeEstimate(
        value=max(1, int(round(max(guess, floor_guess)))),
        rounds=rounds_run,
        experiments=experiments_run,
        msb_bracket=d_prime,
    )


def approx_degree_no_duplication(rt: CoordinatorRuntime, v: int,
                                 alpha: float = 2.0) -> int:
    """Lemma 3.2: alpha-approximate deg(v) when inputs are disjoint.

    Each player sends the ``ceil(log2(2/(alpha-1)))`` most significant bits
    of d_j(v) plus the cutoff index; the coordinator zero-fills and sums.
    Truncation only under-counts, by a factor the kept bits control, and
    with disjoint inputs the sum of locals *is* the degree.
    Communication O(k log log (d(v)/k)).
    """
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    kept_bits = max(1, math.ceil(math.log2(2.0 / (alpha - 1.0))))

    def truncate(degree: int) -> tuple[int, int] | None:
        if degree == 0:
            return None
        length = degree.bit_length()
        drop = max(0, length - kept_bits)
        return (degree >> drop, drop)

    with rt.scope("approx_degree_nodup"):
        reports = rt.collect(
            compute=lambda p: truncate(p.local_degree(v)),
            response_bits=lambda r: (
                indicator_bits() if r is None
                else kept_bits + elias_gamma_bits(r[1] + 1)
            ),
        )
    return sum(top << drop for top, drop in
               (r for r in reports if r is not None))
