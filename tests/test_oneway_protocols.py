"""Tests for the concrete one-way triangle-edge protocol on µ."""

import pytest

from repro.graphs.triangles import triangle_edges
from repro.lowerbounds.distributions import MuDistribution
from repro.lowerbounds.oneway_protocols import (
    OneWayCurvePoint,
    budget_success_curve,
    oneway_triangle_edge_protocol,
)
from repro.lowerbounds.reference import (
    oneway_triangle_edge_protocol_reference,
)
from repro.runtime import ParallelExecutor, SerialExecutor

MU = MuDistribution(part_size=30, gamma=1.3)


class TestProtocol:
    def test_output_is_charlies_edge(self):
        sample = MU.sample_far(seed=1)
        run = oneway_triangle_edge_protocol(sample, alice_budget=64, seed=2)
        if run.output is not None:
            assert run.output in sample.charlie_edges

    def test_output_is_triangle_edge(self):
        """Soundness: the intersect construction certifies the triangle."""
        for seed in range(4):
            sample = MU.sample_far(seed=10 + seed)
            run = oneway_triangle_edge_protocol(
                sample, alice_budget=256, seed=seed
            )
            if run.output is not None:
                assert run.output in triangle_edges(sample.graph)

    def test_bits_track_budget(self):
        sample = MU.sample_far(seed=3)
        small = oneway_triangle_edge_protocol(sample, 4, seed=4)
        large = oneway_triangle_edge_protocol(sample, 64, seed=4)
        assert small.total_bits < large.total_bits

    def test_zero_budget_never_succeeds(self):
        sample = MU.sample_far(seed=5)
        run = oneway_triangle_edge_protocol(sample, 0, seed=6)
        assert run.output is None

    def test_two_transcript_messages(self):
        sample = MU.sample_far(seed=7)
        run = oneway_triangle_edge_protocol(sample, 16, seed=8)
        assert len(run.transcript.messages) == 2
        senders = [sender for sender, _, _ in run.transcript.messages]
        assert senders == [0, 1]

    def test_negative_budget_rejected(self):
        sample = MU.sample_far(seed=9)
        with pytest.raises(ValueError):
            oneway_triangle_edge_protocol(sample, -1)

    def test_deterministic_given_seed(self):
        sample = MU.sample_far(seed=11)
        first = oneway_triangle_edge_protocol(sample, 32, seed=12)
        second = oneway_triangle_edge_protocol(sample, 32, seed=12)
        assert first.output == second.output
        assert first.total_bits == second.total_bits


class TestMaskReferenceDifferential:
    """The rows rewrite is pinned to the per-edge set predecessor."""

    @pytest.mark.parametrize("seed", range(5))
    def test_runs_byte_identical(self, seed):
        sample = MU.sample_far(seed=20 + seed)
        for budget in (0, 1, 3, 16, 64, 512):
            mask = oneway_triangle_edge_protocol(sample, budget, seed=seed)
            ref = oneway_triangle_edge_protocol_reference(
                sample, budget, seed=seed
            )
            assert mask.output == ref.output
            assert mask.total_bits == ref.total_bits
            # Transcripts byte-identical: same payloads in the same
            # canonical order, same per-message charges.
            assert mask.transcript.messages == ref.transcript.messages

    def test_shuffled_draw_sequence_preserved(self):
        """Both implementations consume the same public coins."""
        sample = MU.sample_far(seed=31)
        mask = oneway_triangle_edge_protocol(sample, 8, seed=5)
        ref = oneway_triangle_edge_protocol_reference(sample, 8, seed=5)
        # Alice's sample is a shuffle prefix: identical draw => identical
        # prefix, not merely an equal-as-set message.
        assert mask.transcript.payloads()[0] == ref.transcript.payloads()[0]


class TestCurveParallel:
    def test_serial_and_parallel_curves_byte_identical(self):
        budgets = [2, 16, 64]
        serial = budget_success_curve(
            MU, budgets, trials=6, seed=3, executor=SerialExecutor()
        )
        parallel = budget_success_curve(
            MU, budgets, trials=6, seed=3,
            executor=ParallelExecutor(workers=4),
        )
        assert serial == parallel

    def test_curve_pinned(self):
        """The curve the per-trial executor loop produced, pinned so the
        move onto batched ``run_trials`` cannot shift a single trial."""
        points = budget_success_curve(MU, [2, 16, 64], trials=6, seed=3)
        assert points == [
            OneWayCurvePoint(alice_budget=2, mean_bits=56.0,
                             success_rate=0.0),
            OneWayCurvePoint(alice_budget=16, mean_bits=448.0,
                             success_rate=4 / 6),
            OneWayCurvePoint(alice_budget=64, mean_bits=1792.0,
                             success_rate=1.0),
        ]

    def test_workers_arg_matches_default(self):
        budgets = [4, 32]
        default = budget_success_curve(MU, budgets, trials=4, seed=7)
        explicit = budget_success_curve(
            MU, budgets, trials=4, seed=7, workers=2
        )
        assert default == explicit


class TestCurve:
    def test_success_monotone_ish_in_budget(self):
        points = budget_success_curve(
            MU, budgets=[2, 16, 256], trials=8, seed=0
        )
        assert points[-1].success_rate >= points[0].success_rate
        assert points[-1].success_rate >= 0.75

    def test_bits_grow_with_budget(self):
        points = budget_success_curve(
            MU, budgets=[4, 64], trials=4, seed=1
        )
        assert points[1].mean_bits > points[0].mean_bits

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            budget_success_curve(MU, [1], trials=0)
