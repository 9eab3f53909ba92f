"""Concrete one-way protocols for triangle-edge finding on µ.

Theorem 4.7 lower-bounds *every* extended one-way protocol for the task
``T^ε_{n,d}``: Charlie must output one of his V1×V2 edges that closes a
triangle with some U-vertex.  This module implements the natural upper-
bound family the theorem squeezes:

* Alice sends (a public-coin-selected sample of) her U×V1 edges;
* Bob, seeing Alice's message, sends the U×V2 edges sharing a U-vertex
  with Alice's sample (the back-and-forth the "extended" model permits);
* Charlie intersects: any of his edges (v1, v2) with a common u in both
  samples is a certified triangle edge.

Messages are assembled from the partition's cached adjacency rows
(:meth:`~repro.graphs.partition.EdgePartition.adjacency_rows`): Alice's
pool and Bob's reply are row enumerations (ascending canonical order —
exactly the ``sorted(...)`` order the set-based predecessor imposed, so
transcripts are byte-identical, including the ``shuffled`` draw
sequence), and Charlie's intersection is one per-U-vertex mask ``&``
per candidate edge instead of nested dict-of-set probes.  The per-edge
predecessor survives as
:func:`repro.lowerbounds.reference.oneway_triangle_edge_protocol_reference`.

Success provably needs Alice's sample to seed Ω(1) complete vees, so the
budget/success curve measured by :func:`budget_success_curve` is exactly
the trade-off the Ω(n^{1/4}) bound constrains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.comm.encoding import edge_bits
from repro.comm.oneway import OneWayRun, run_extended_oneway
from repro.comm.players import make_players
from repro.comm.randomness import SharedRandomness
from repro.graphs.graph import Edge, iter_bits
from repro.graphs.triangles import triangle_edges
from repro.lowerbounds.distributions import MuDistribution, MuSample
from repro.runtime import Executor, InstanceCache, TrialSpec, run_trials

__all__ = [
    "oneway_triangle_edge_protocol",
    "OneWayCurvePoint",
    "budget_success_curve",
]


def oneway_triangle_edge_protocol(sample: MuSample, alice_budget: int,
                                  seed: int = 0) -> OneWayRun:
    """Run the sample-and-intersect one-way protocol on one µ input.

    ``alice_budget`` caps the number of edges Alice forwards; Bob's reply
    is capped at the same count (his relevant edges rarely exceed it).
    Output: one of Charlie's edges certified to close a triangle, or None.
    """
    if alice_budget < 0:
        raise ValueError(f"budget must be non-negative, got {alice_budget}")
    n = sample.graph.n
    # Players wrap the partition's cached adjacency rows, so every row
    # read below is the partition mask itself, built once per sample.
    players = make_players(sample.partition)

    def conversation(alice, bob, shared: SharedRandomness, transcript):
        # Alice's pool in ascending canonical order — the row enumeration
        # equals the predecessor's sorted frozenset, so the public
        # shuffle consumes the identical draw.
        ordered = shared.shuffled(alice.sorted_edges(), tag=1)
        alice_sample = sorted(ordered[:alice_budget])
        transcript.append(
            0, alice_sample, max(1, len(alice_sample) * edge_bits(n))
        )
        # Bob forwards his edges at the seeded U-vertices.  µ-split edges
        # have their U-endpoint as the canonical minimum, so walking the
        # seeded vertices ascending and each row's upper partners emits
        # the reply already sorted; the cap truncates the same prefix.
        seeded_mask = 0
        for u, _v1 in alice_sample:
            seeded_mask |= 1 << u
        reply_cap = max(1, alice_budget)
        bob_reply: list[Edge] = []
        for u in iter_bits(seeded_mask):
            if len(bob_reply) >= reply_cap:
                break
            partners = bob.local_neighbor_mask(u) >> (u + 1)
            while partners:
                low = partners & -partners
                bob_reply.append((u, u + low.bit_length()))
                if len(bob_reply) >= reply_cap:
                    break
                partners ^= low
        transcript.append(
            1, bob_reply, max(1, len(bob_reply) * edge_bits(n))
        )

    def charlie_output(charlie, transcript, shared) -> Edge | None:
        alice_sample, bob_reply = transcript.payloads()
        # Per V-vertex: the mask of U-vertices Alice / Bob certified for
        # it.  An edge (v1, v2) closes a triangle iff the two masks
        # intersect — one ``&`` per candidate edge.
        u_by_v1: dict[int, int] = {}
        for u, v1 in alice_sample:
            u_by_v1[v1] = u_by_v1.get(v1, 0) | (1 << u)
        u_by_v2: dict[int, int] = {}
        for u, v2 in bob_reply:
            u_by_v2[v2] = u_by_v2.get(v2, 0) | (1 << u)
        for v1, mask_v1 in sorted(u_by_v1.items()):
            partners = charlie.local_neighbor_mask(v1) >> (v1 + 1)
            while partners:
                low = partners & -partners
                v2 = v1 + low.bit_length()
                if mask_v1 & u_by_v2.get(v2, 0):
                    return (v1, v2)
                partners ^= low
        return None

    return run_extended_oneway(
        players[0], players[1], players[2],
        conversation, charlie_output,
        shared=SharedRandomness(seed),
    )


@dataclass(frozen=True)
class OneWayCurvePoint:
    """One budget level of the success curve."""

    alice_budget: int
    mean_bits: float
    success_rate: float
    """Fraction of far inputs where the output is a genuine triangle edge."""


class _CurveOutcome(NamedTuple):
    """One curve trial: the bits sent and whether the output was right."""

    total_bits: int
    found: bool


def budget_success_curve(mu: MuDistribution, budgets: list[int],
                         trials: int = 8, seed: int = 0, *,
                         workers: int | None = None,
                         executor: Executor | None = None
                         ) -> list[OneWayCurvePoint]:
    """Success probability of the protocol per Alice-budget, on far inputs.

    Outputs are verified against the ground truth (the edge must really be
    a triangle edge) so the curve measures *correct* solutions of the
    paper's task, not lucky guesses.

    Trials run through :func:`repro.runtime.run_trials`: one grid point
    per budget (the budget rides in ``spec.d``), serial by default or
    fanned out over a process pool with ``workers=`` / ``executor=``.
    Trial ``t`` uses the same far sample (``spec.instance_seed``) at
    every budget and protocol coins ``seed + t``, so serial and parallel
    sweeps return byte-identical curves.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    cache = InstanceCache(max_entries=max(8, trials))

    def build_sample_with_truth(sample_seed: int):
        sample = mu.sample_far(seed=sample_seed, min_packing=1)
        return sample, triangle_edges(sample.graph)

    def budgeted_input(n: int, budget: float, sample_seed: int):
        # The sample is shared across budgets; only the budget differs.
        sample, truth = cache.get_or_build(
            ("mu-far", sample_seed),
            lambda: build_sample_with_truth(sample_seed),
        )
        return sample, truth, int(budget)

    def protocol(instance, protocol_seed: int) -> _CurveOutcome:
        sample, truth, budget = instance
        run = oneway_triangle_edge_protocol(sample, budget, seed=protocol_seed)
        success = run.output is not None and run.output in truth
        return _CurveOutcome(run.total_bits, success)

    specs = [
        TrialSpec(
            point_index=point, trial_index=trial, n=mu.n,
            d=float(budget), k=3, seed=seed + trial,
            instance_seed=seed + 1009 * trial,
        )
        for point, budget in enumerate(budgets)
        for trial in range(trials)
    ]
    results = run_trials(protocol, budgeted_input, specs,
                         workers=workers, executor=executor)

    points: list[OneWayCurvePoint] = []
    for point, budget in enumerate(budgets):
        rows = [r for r in results if r.point_index == point]
        points.append(
            OneWayCurvePoint(
                alice_budget=budget,
                mean_bits=sum(r.bits for r in rows) / trials,
                success_rate=sum(1 for r in rows if r.found) / trials,
            )
        )
    return points
