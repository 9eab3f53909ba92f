"""Degree-oblivious simultaneous protocol (Section 3.4.3, Algorithm 11).

Simultaneity forbids first estimating the density and then picking a
protocol, so every player hedges: from its *local* average degree
``d̄_j = 2|E_j|/n`` it knows that if it is "relevant" (holds at least an
ε/(4k) fraction of the density), the global d lies in
``D_j = [d̄_j, (4k/ε)·d̄_j]``.  A public exponential scale {2^i} of density
guesses is fixed in advance; player j participates in the O(log k) guesses
falling in D_j, running per guess the high-degree instance (Algorithm 9)
when the guess is at least sqrt(n) and the low-degree instance
(Algorithm 10) otherwise, each under a per-instance cap keyed to d̄_j
(Lemmas 3.30/3.31 show the caps never truncate the *correct* instance,
w.h.p.).  The referee unions each instance's messages separately and
checks each for a triangle.

Eliminating the irrelevant players keeps the graph (ε/2)-far, so the
correct guess's instance is a faithful run of the corresponding
degree-aware protocol on an (ε/2)-far input — correctness follows, and
per-player cost is O~(max(sqrt(n), (n d̄_j)^{1/3})), giving Theorem 3.32's
O~(k sqrt(n)) / O~(k (nd)^{1/3}) totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.comm.encoding import edge_bits, elias_gamma_bits
from repro.comm.players import Player, make_players
from repro.comm.randomness import SharedRandomness
from repro.comm.simultaneous import run_simultaneous
from repro.core.referee import key_union_triangle_referee
from repro.core.results import DetectionResult
from repro.graphs.buckets import log2n
from repro.graphs.partition import EdgePartition

__all__ = ["ObliviousParams", "find_triangle_sim_oblivious"]

InstanceMessage = dict[int, np.ndarray]


@dataclass(frozen=True)
class ObliviousParams:
    """Knobs of Algorithm 11."""

    epsilon: float = 0.1
    delta: float = 0.1
    c: float = 2.0
    """Sampling constant of the underlying Alg 9/10 instances."""
    cap_scale: float = 4.0
    """Multiplier of the per-instance caps (paper: O(log n log(k log n)))."""
    capped: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0,1], got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")

    def guess_range_for_player(self, local_average_degree: float,
                               k: int, n: int) -> range:
        """Indices i with d̄_j <= 2^i <= (4k/ε)·d̄_j, clipped to [0, log n]."""
        if local_average_degree <= 0:
            return range(0, 0)
        low = max(0, math.floor(math.log2(max(1.0, local_average_degree))))
        high = math.ceil(
            math.log2(4.0 * k / self.epsilon * local_average_degree)
        )
        top = math.ceil(math.log2(max(2, n)))
        return range(low, min(high, top) + 1)

    def polylog_cap_factor(self, n: int, k: int) -> float:
        """The O(log n · log(k log n)) cap inflation of Lemmas 3.30/3.31."""
        return (
            self.cap_scale
            * log2n(n)
            * math.log2(k * log2n(n) + 2)
        )

    def cap_high(self, n: int, local_average_degree: float, k: int) -> int:
        """Per-instance cap for high-degree guesses: O~((n d̄_j)^{1/3})."""
        base = (n * max(1.0, local_average_degree)) ** (1.0 / 3.0)
        return max(1, int(math.ceil(base * self.polylog_cap_factor(n, k))))

    def cap_low(self, n: int, k: int) -> int:
        """Per-instance cap for low-degree guesses: O~(sqrt(n))."""
        return max(
            1,
            int(math.ceil(math.sqrt(n) * self.polylog_cap_factor(n, k))),
        )


def find_triangle_sim_oblivious(
    partition: EdgePartition,
    params: ObliviousParams | None = None,
    seed: int = 0,
    *,
    shared: SharedRandomness | None = None,
    record_messages: bool = False,
) -> DetectionResult:
    """Run Algorithm 11: simultaneous triangle detection, d unknown.

    ``shared`` injects a pre-built coin stream (the batched engine passes
    one draw-identical to ``SharedRandomness(seed)``); ``record_messages``
    retains the per-message transcript in ``details["transcript"]``.
    """
    params = params or ObliviousParams()
    players = make_players(partition)
    n = partition.graph.n
    k = len(players)
    shared = shared if shared is not None else SharedRandomness(seed)
    sqrt_n = math.sqrt(n)

    # Public per-guess sample masks, agreed through the shared coins.  R
    # (the birthday set) is shared across all low-degree instances, as
    # the paper notes the players may do.
    top_guess = math.ceil(math.log2(max(2, n)))
    high_samples: dict[int, int] = {}
    low_samples: dict[int, int] = {}
    birthday = shared.bernoulli_subset_mask(
        n, min(1.0, params.c / max(1.0, sqrt_n)), tag=10_000
    )
    for i in range(top_guess + 1):
        guess = float(2 ** i)
        if guess >= sqrt_n:
            size = min(
                n,
                max(1, int(math.ceil(
                    params.c * (n * n / (params.epsilon * guess)) ** (1 / 3)
                ))),
            )
            high_samples[i] = shared.bernoulli_subset_mask(
                n, min(1.0, size / max(1, n)), tag=20_000 + i
            )
        else:
            low_samples[i] = shared.bernoulli_subset_mask(
                n, min(1.0, params.c / guess), tag=30_000 + i
            )
    # R ∪ S per low instance, computed once instead of per player.
    low_unions = {i: birthday | mask for i, mask in low_samples.items()}

    def message_fn(player: Player, _: SharedRandomness) -> InstanceMessage:
        local_average = player.average_local_degree()
        message: InstanceMessage = {}
        for i in params.guess_range_for_player(local_average, k, n):
            guess = float(2 ** i)
            if guess >= sqrt_n:
                harvest = player.edges_within_mask(high_samples[i])
                cap = (
                    params.cap_high(n, local_average, k)
                    if params.capped else None
                )
            else:
                harvest = player.edges_touching_both_mask(
                    birthday, low_unions[i]
                )
                cap = params.cap_low(n, k) if params.capped else None
            if cap is not None:
                harvest = harvest[:cap]
            message[i] = harvest
        return message

    def message_bits(message: InstanceMessage) -> int:
        if not message:
            return 1
        total = 0
        for i, edges in message.items():
            total += elias_gamma_bits(i + 1)
            total += max(1, len(edges) * edge_bits(n))
        return total

    def referee_fn(messages: list[InstanceMessage], _: SharedRandomness):
        # Per-instance key unions, searched in ascending guess order.
        instances: dict[int, list[np.ndarray]] = {}
        for message in messages:
            for i, edges in message.items():
                instances.setdefault(i, []).append(edges)
        for i in sorted(instances):
            triangle = key_union_triangle_referee(instances[i], n)
            if triangle is not None:
                return triangle, i
        return None, None

    run = run_simultaneous(
        players,
        message_fn=message_fn,
        message_bits=message_bits,
        referee_fn=referee_fn,
        shared=shared,
        label="sim-oblivious",
        record_messages=record_messages,
    )
    triangle, winning_guess = run.output
    return DetectionResult(
        found=triangle is not None,
        triangle=triangle,
        witness_edges=(
            ()
            if triangle is None
            else (
                (triangle[0], triangle[1]),
                (triangle[0], triangle[2]),
                (triangle[1], triangle[2]),
            )
        ),
        cost=run.ledger.summary(),
        details={
            "winning_guess_index": winning_guess,
            "num_guesses": top_guess + 1,
            "birthday_sample_size": birthday.bit_count(),
            **(
                {"transcript": run.ledger.records}
                if record_messages else {}
            ),
        },
    )
