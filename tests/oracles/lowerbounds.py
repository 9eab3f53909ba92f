"""Reference ``set``-based one-way protocol, kept for differential testing.

This is the pre-mask implementation of
:func:`repro.lowerbounds.oneway_protocols.oneway_triangle_edge_protocol`,
preserved verbatim as an executable specification (the same pattern as
:class:`oracles.comm.SetPlayer` and :class:`oracles.graphs.SetGraph`):
Alice's and Bob's messages are assembled from per-edge ``frozenset``
views, and Charlie's intersection probes nested dict-of-set structures
edge by edge.

* ``tests/test_oneway_protocols.py`` asserts the mask-native rewrite
  produces byte-identical :class:`~repro.comm.oneway.OneWayRun`s
  (output, transcript payloads, charged bits) across seeds and budgets,
* ``benchmarks/bench_mask_migration.py`` measures whole one-way trials
  against this baseline.
"""

from __future__ import annotations

from repro.comm.encoding import edge_bits
from repro.comm.oneway import OneWayRun, run_extended_oneway
from repro.comm.players import make_players
from repro.comm.randomness import SharedRandomness
from repro.graphs.graph import Edge
from repro.lowerbounds.distributions import MuSample

__all__ = ["oneway_triangle_edge_protocol_reference"]


def oneway_triangle_edge_protocol_reference(sample: MuSample,
                                            alice_budget: int,
                                            seed: int = 0) -> OneWayRun:
    """The original per-edge sample-and-intersect protocol on one µ input."""
    if alice_budget < 0:
        raise ValueError(f"budget must be non-negative, got {alice_budget}")
    n = sample.graph.n
    players = make_players(sample.partition)

    def conversation(alice, bob, shared: SharedRandomness, transcript):
        ordered = shared.shuffled(
            sorted(alice.edges, key=lambda e: (e[0], e[1])), tag=1
        )
        alice_sample = sorted(ordered[:alice_budget])
        transcript.append(
            0, alice_sample, max(1, len(alice_sample) * edge_bits(n))
        )
        seeded_us = {min(edge) for edge in alice_sample}
        bob_reply = sorted(
            edge for edge in bob.edges if min(edge) in seeded_us
        )[: max(1, alice_budget)]
        transcript.append(
            1, bob_reply, max(1, len(bob_reply) * edge_bits(n))
        )

    def charlie_output(charlie, transcript, shared) -> Edge | None:
        alice_sample, bob_reply = transcript.payloads()
        # Per U-vertex: which V1 / V2 partners did Alice / Bob certify?
        v1_by_u: dict[int, set[int]] = {}
        for edge in alice_sample:
            u, v1 = min(edge), max(edge)
            v1_by_u.setdefault(u, set()).add(v1)
        v2_by_u: dict[int, set[int]] = {}
        for edge in bob_reply:
            u, v2 = min(edge), max(edge)
            v2_by_u.setdefault(u, set()).add(v2)
        for v1, v2 in sorted(charlie.edges):
            for u in v1_by_u:
                if v1 in v1_by_u[u] and v2 in v2_by_u.get(u, ()):
                    return (v1, v2)
        return None

    return run_extended_oneway(
        players[0], players[1], players[2],
        conversation, charlie_output,
        shared=SharedRandomness(seed),
    )
