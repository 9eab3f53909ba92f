"""Tests for the streaming substrate and reductions (repro.streaming)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.encoding import edge_bits
from repro.graphs.generators import far_instance, gnd, gnp
from repro.graphs.graph import Graph, key_edges
from repro.graphs.partition import (
    partition_disjoint,
    partition_with_duplication,
)
from repro.graphs.triangles import is_triangle_free, iter_triangles
from repro.lowerbounds.distributions import MuDistribution
from repro.streaming.reduction import (
    oneway_cost_of_streaming,
    space_lower_bound_from_oneway,
    streaming_to_oneway,
)
from repro.streaming.stream import (
    canonical_row_batches,
    run_stream,
    run_stream_rows,
)
from repro.streaming.triangle_stream import (
    CountingExactFinder,
    ReservoirTriangleFinder,
    triangle_arrivals,
)

from oracles.streaming import streaming_to_oneway_reference


def triangle_stream():
    return [(0, 1), (0, 2), (1, 2)]


class TestExactFinder:
    def test_finds_triangle(self):
        finder = CountingExactFinder(5)
        run = run_stream(finder, triangle_stream())
        assert run.result == (0, 1, 2)

    def test_free_stream(self):
        finder = CountingExactFinder(5)
        run = run_stream(finder, [(0, 1), (1, 2), (2, 3)])
        assert run.result is None

    def test_space_linear_in_stream(self):
        graph = gnd(100, 6.0, seed=1)
        finder = CountingExactFinder(100)
        run = run_stream(finder, sorted(graph.edges()))
        assert run.peak_space_bits >= graph.num_edges * edge_bits(100)

    def test_elements_counted(self):
        run = run_stream(CountingExactFinder(5), triangle_stream())
        assert run.elements_processed == 3

    def test_state_roundtrip(self):
        first = CountingExactFinder(10)
        for edge in [(0, 1), (0, 2)]:
            first.process(edge)
        second = CountingExactFinder(10)
        second.import_state(first.export_state())
        second.process((1, 2))
        assert second.result() == (0, 1, 2)

    def test_legacy_edge_state_imports_any_orientation(self):
        """Hand-built per-edge states normalize like the predecessor did."""
        finder = CountingExactFinder(10)
        finder.import_state(
            {"edges": [(5, 2), (2, 4), (5, 4)], "found": None}
        )
        assert finder.state_bits() == 3 * edge_bits(10)
        exported = finder.export_state()
        assert exported["rows"] == {
            2: (1 << 4) | (1 << 5), 4: 1 << 5
        }
        finder.process((2, 5))  # duplicate: must not double-count
        assert finder.state_bits() == 3 * edge_bits(10)
        # The mirror bits were rebuilt, so closure probes see the vee.
        finder.process((9, 2))
        finder.process((9, 4))
        finder.process((9, 5))
        assert finder.result() is not None


class TestReservoirFinder:
    def test_finds_with_large_reservoir(self):
        instance = far_instance(200, 5.0, 0.3, seed=2)
        finder = ReservoirTriangleFinder(200, reservoir_size=600, seed=3)
        run = run_stream(finder, sorted(instance.graph.edges()))
        assert run.result is not None
        assert run.result in set(iter_triangles(instance.graph))

    def test_one_sided(self):
        graph = gnd(100, 3.0, seed=4)
        finder = ReservoirTriangleFinder(100, reservoir_size=50, seed=5)
        run = run_stream(finder, sorted(graph.edges()))
        if run.result is not None:
            a, b, c = run.result
            assert graph.has_edge(a, b)
            assert graph.has_edge(a, c)
            assert graph.has_edge(b, c)

    def test_space_bounded_by_reservoir(self):
        graph = gnd(300, 8.0, seed=6)
        reservoir = 20
        finder = ReservoirTriangleFinder(300, reservoir_size=reservoir, seed=7)
        run = run_stream(finder, sorted(graph.edges()))
        assert run.peak_space_bits <= (reservoir + 1) * edge_bits(300)

    def test_success_grows_with_space(self):
        mu = MuDistribution(part_size=40, gamma=1.2)
        rates = []
        for reservoir in (4, 200):
            successes = 0
            trials = 8
            for trial in range(trials):
                sample = mu.sample(seed=trial)
                if is_triangle_free(sample.graph):
                    continue
                finder = ReservoirTriangleFinder(
                    sample.graph.n, reservoir_size=reservoir, seed=trial
                )
                if run_stream(
                    finder, sorted(sample.graph.edges())
                ).result is not None:
                    successes += 1
            rates.append(successes / trials)
        assert rates[1] > rates[0]

    def test_minimum_reservoir_enforced(self):
        with pytest.raises(ValueError):
            ReservoirTriangleFinder(10, reservoir_size=1)

    def test_state_roundtrip(self):
        first = ReservoirTriangleFinder(10, reservoir_size=4, seed=1)
        for edge in [(0, 1), (0, 2)]:
            first.process(edge)
        second = ReservoirTriangleFinder(10, reservoir_size=4, seed=99)
        second.import_state(first.export_state())
        second.process((1, 2))
        assert second.result() == (0, 1, 2)


EDGE_STREAMS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=19),
        st.integers(min_value=0, max_value=19),
    ).filter(lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e))),
    max_size=60,
)


def _rows_of(edges, n=20):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


class TestRowBatching:
    """The row-batched interface is pinned to the per-edge predecessor."""

    @given(EDGE_STREAMS)
    @settings(max_examples=120, deadline=None)
    def test_exact_finder_rows_match_edges(self, edges):
        rows = _rows_of(edges)
        per_edge = CountingExactFinder(20)
        canonical = sorted(set(edges))
        for edge in canonical:
            per_edge.process(edge)
        batched = CountingExactFinder(20)
        for v, partners in canonical_row_batches(rows):
            batched.process_row(v, partners)
        assert batched.result() == per_edge.result()
        assert batched.state_bits() == per_edge.state_bits()
        assert batched.export_state() == per_edge.export_state()

    @given(EDGE_STREAMS, st.integers(min_value=0, max_value=2 ** 20))
    @settings(max_examples=120, deadline=None)
    def test_reservoir_finder_rows_match_edges(self, edges, seed):
        rows = _rows_of(edges)
        canonical = sorted(set(edges))
        per_edge = ReservoirTriangleFinder(20, reservoir_size=4, seed=seed)
        for edge in canonical:
            per_edge.process(edge)
        batched = ReservoirTriangleFinder(20, reservoir_size=4, seed=seed)
        for v, partners in canonical_row_batches(rows):
            batched.process_row(v, partners)
        # Identical RNG draw sequence => identical reservoir and result.
        assert batched.export_state() == per_edge.export_state()
        assert batched.result() == per_edge.result()
        assert batched.state_bits() == per_edge.state_bits()

    @given(EDGE_STREAMS)
    @settings(max_examples=60, deadline=None)
    def test_run_stream_rows_matches_run_stream(self, edges):
        rows = _rows_of(edges)
        canonical = sorted(set(edges))
        edge_run = run_stream(CountingExactFinder(20), canonical)
        row_run = run_stream_rows(CountingExactFinder(20), rows)
        assert row_run == edge_run

    def test_default_process_row_falls_back_to_process(self):
        class Recorder(CountingExactFinder):
            def __init__(self):
                super().__init__(10)
                self.calls = []

            def process(self, edge):
                self.calls.append(edge)
                super().process(edge)

        recorder = Recorder()
        # Use the ABC's fallback explicitly (bypassing the native form).
        from repro.streaming.stream import StreamingAlgorithm

        StreamingAlgorithm.process_row(recorder, 2, (1 << 5) | (1 << 7))
        assert recorder.calls == [(2, 5), (2, 7)]

    def test_canonical_row_batches_cover_each_edge_once(self):
        graph = gnd(40, 4.0, seed=3)
        batches = list(canonical_row_batches(graph.adjacency_rows()))
        edges = [
            (v, u)
            for v, mask in batches
            for u in range(40)
            if mask >> u & 1
        ]
        assert edges == sorted(graph.edges())
        assert all(u > v for v, mask in batches for u in (
            (mask & -mask).bit_length() - 1,
        ))


class TestReservoirSlotDraws:
    """One exact slot draw behind both reservoir feeds, and T1-R3's
    protocol against the per-edge stream."""

    @pytest.mark.parametrize("seed", [0, 1, 97])
    def test_slot_helper_replays_randrange(self, seed):
        from repro.streaming.triangle_stream import _slot_below

        bounds = [1, 2, 2**31, 2**32 + 1]
        for j in (2, 3, 5, 8, 16, 31, 32, 33, 40):
            bounds += [2**j - 1, 2**j + 1]
        for bound in bounds:
            reference = random.Random(seed)
            replay = random.Random(seed)
            for _ in range(50):
                assert _slot_below(replay.getrandbits, bound) == (
                    reference.randrange(bound)
                )
            # Same words consumed: the generators stay in step.
            assert replay.getstate() == reference.getstate()

    @pytest.mark.parametrize("part_size", [12, 24])
    def test_process_row_matches_process_on_mu(self, part_size):
        mu = MuDistribution(part_size=part_size, gamma=1.2)
        for sample_seed in (0, 3):
            graph = mu.sample(seed=sample_seed).graph
            edges = sorted(graph.edges())
            for finder_seed in (0, 31, 1_000_003):
                for size in (2, 4, 8, 16, 32, 64, 128, 256):
                    per_edge = ReservoirTriangleFinder(
                        graph.n, reservoir_size=size, seed=finder_seed
                    )
                    for edge in edges:
                        per_edge.process(edge)
                    batched = ReservoirTriangleFinder(
                        graph.n, reservoir_size=size, seed=finder_seed
                    )
                    for v, partners in canonical_row_batches(
                        graph.adjacency_rows()
                    ):
                        batched.process_row(v, partners)
                    assert batched._seen == per_edge._seen == len(edges)
                    assert batched._reservoir == per_edge._reservoir
                    assert batched.result() == per_edge.result()
                    assert (
                        batched._rng.getstate() == per_edge._rng.getstate()
                    )

    def test_t1_r3_early_stop_matches_full_stream(self):
        from repro.analysis.table1 import (
            _loop_specs,
            _MuSampleBuilder,
            _ReservoirStreamProtocol,
        )

        base_seed = 0
        for part_size in (24, 96):  # T1-R3's quick part sizes
            builder = _MuSampleBuilder(part_size=part_size)
            mu = MuDistribution(part_size=part_size, gamma=1.2)
            specs = _loop_specs(10, 3 * part_size, base_seed)
            samples = [builder(spec.n, spec.d, spec.seed) for spec in specs]
            graphs = [mu.sample(seed=spec.seed).graph for spec in specs]
            for sample, graph in zip(samples, graphs):
                assert sample.n == graph.n
                assert sample.keys.tolist() == [
                    u * graph.n + v for u, v in graph.edges()
                ]
            for size in (2, 4, 8, 16, 32, 64, 128, 256):
                protocol = _ReservoirStreamProtocol(size, base_seed)
                for spec, sample, graph in zip(specs, samples, graphs):
                    outcome = protocol(sample, spec.seed)
                    if is_triangle_free(graph):
                        assert outcome.found
                        continue
                    finder = ReservoirTriangleFinder(
                        graph.n, reservoir_size=size,
                        seed=base_seed + 31 * spec.trial_index,
                    )
                    run = run_stream(finder, sorted(graph.edges()))
                    assert outcome.found == (run.result is not None)


def _keys_of(edges, n=20):
    return np.array(sorted({u * n + v for u, v in edges}), dtype=np.int64)


def _per_edge(keys, n, size, seed):
    finder = ReservoirTriangleFinder(n, reservoir_size=size, seed=seed)
    for edge in key_edges(keys, n):
        finder.process(edge)
    return finder


def _assert_bulk_matches(keys, n, size, seed):
    """``process_keys`` against per-edge ``process``: the whole state."""
    reference = _per_edge(keys, n, size, seed)
    bulk = ReservoirTriangleFinder(n, reservoir_size=size, seed=seed)
    bulk.process_keys(keys)
    assert bulk.result() == reference.result()
    assert bulk._seen == reference._seen == keys.size
    assert bulk.export_state() == reference.export_state()
    assert bulk.state_bits() == reference.state_bits()
    return reference.result()


#: Seen counts at and around powers of two: the slot draw's bit length
#: grows by one at each 2^b.
BIT_BOUNDARY_LENGTHS = sorted(
    {2 ** b + off for b in range(2, 10) for off in (-1, 0, 1)}
)


class TestBulkKeyStream:
    """``ReservoirTriangleFinder.process_keys`` is pinned to ``process``."""

    @given(EDGE_STREAMS, st.integers(min_value=2, max_value=70),
           st.integers(min_value=0, max_value=2 ** 20))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_edge(self, edges, size, seed):
        # Sizes up to 70 also cover R >= m for every stream (m <= 60).
        _assert_bulk_matches(_keys_of(edges), 20, size, seed)

    @given(EDGE_STREAMS, st.integers(min_value=0, max_value=2 ** 20))
    @settings(max_examples=150, deadline=None)
    def test_smallest_reservoir(self, edges, seed):
        _assert_bulk_matches(_keys_of(edges), 20, 2, seed)

    @given(EDGE_STREAMS, st.integers(min_value=0, max_value=2 ** 20))
    @settings(max_examples=60, deadline=None)
    def test_reservoir_holds_whole_stream(self, edges, seed):
        keys = _keys_of(edges)
        found = _assert_bulk_matches(keys, 20, max(2, keys.size), seed)
        # Nothing is ever evicted: every triangle is found.
        assert (found is None) == (triangle_arrivals(keys, 20).size == 0)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=10, max_value=19),
            ),
            max_size=60,
        ),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2 ** 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_triangle_free_stream(self, edges, size, seed):
        keys = _keys_of(edges)  # bipartite: {0..9} x {10..19}
        assert triangle_arrivals(keys, 20).shape == (0, 3)
        assert _assert_bulk_matches(keys, 20, size, seed) is None

    @given(st.sampled_from(BIT_BOUNDARY_LENGTHS),
           st.sampled_from([2, 3, 4, 7, 16, 100]),
           st.integers(min_value=0, max_value=2 ** 20))
    @settings(max_examples=120, deadline=None)
    def test_streams_crossing_bit_length_boundaries(self, length, size,
                                                    seed):
        graph = gnp(64, 0.3, seed=seed % 7)
        keys = np.sort(
            np.random.default_rng(seed).choice(
                graph.edge_keys(), size=length, replace=False
            )
        )
        _assert_bulk_matches(keys, 64, size, seed)

    @given(st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=2 ** 20))
    @settings(max_examples=150, deadline=None)
    def test_closing_edge_with_several_vees(self, size, seed):
        # (14, 15) arrives last and closes a vee at every apex 0..13.
        edges = [(a, b) for a in range(14) for b in (14, 15)]
        edges.append((14, 15))
        _assert_bulk_matches(_keys_of(edges), 20, size, seed)

    def test_lowest_apex_wins(self):
        edges = [(a, b) for a in range(3, 9) for b in (14, 15)]
        edges.append((14, 15))
        finder = ReservoirTriangleFinder(20, reservoir_size=64, seed=0)
        finder.process_keys(_keys_of(edges))
        assert finder.result() == (3, 14, 15)

    @pytest.mark.parametrize("part_size", [12, 24, 36])
    def test_matches_per_edge_on_mu(self, part_size):
        mu = MuDistribution(part_size=part_size, gamma=1.2)
        for sample_seed in (0, 3):
            graph = mu.sample(seed=sample_seed).graph
            keys = graph.edge_keys()
            for finder_seed in (0, 31, 1_000_003):
                for size in (2, 4, 8, 16, 32, 64, 128, 256):
                    _assert_bulk_matches(keys, graph.n, size, finder_seed)

    @given(EDGE_STREAMS)
    @settings(max_examples=100, deadline=None)
    def test_triangle_table(self, edges):
        keys = _keys_of(edges)
        index = {int(key): i for i, key in enumerate(keys)}
        expected = sorted(
            (index[b * 20 + c], index[a * 20 + b], index[a * 20 + c])
            for a, b, c in iter_triangles(Graph(20, edges))
        )
        table = triangle_arrivals(keys, 20)
        assert table.dtype == np.int64
        assert [tuple(row) for row in table.tolist()] == expected

    def test_draw_replay_matches_slot_draws(self):
        from repro.streaming.triangle_stream import (
            _reservoir_draws,
            _slot_below,
        )

        for seed in (0, 5, 2 ** 33):
            for first, last, size in ((3, 2, 2), (3, 3, 2), (3, 5000, 2),
                                      (17, 4097, 16), (129, 1025, 128)):
                reference = random.Random(seed)
                expected = ([], [])
                for seen in range(first, last + 1):
                    slot = _slot_below(reference.getrandbits, seen)
                    if slot < size:
                        expected[0].append(seen - 1)
                        expected[1].append(slot)
                replay = random.Random(seed)
                got = _reservoir_draws(replay.getrandbits, first, last, size)
                assert got == expected
                assert replay.getstate() == reference.getstate()

    def test_rejects_non_fresh_finder_and_unsorted_keys(self):
        finder = ReservoirTriangleFinder(20, reservoir_size=4, seed=0)
        finder.process((0, 1))
        with pytest.raises(ValueError, match="fresh"):
            finder.process_keys(_keys_of([(2, 3)]))
        fresh = ReservoirTriangleFinder(20, reservoir_size=4, seed=0)
        with pytest.raises(ValueError, match="ascending"):
            fresh.process_keys(np.array([43, 21], dtype=np.int64))


class TestReduction:
    def test_chain_matches_streaming_result_shape(self):
        instance = far_instance(150, 5.0, 0.3, seed=8)
        partition = partition_disjoint(instance.graph, 3, seed=9)
        run = streaming_to_oneway(
            partition, lambda: CountingExactFinder(150)
        )
        assert run.output is not None  # exact finder always succeeds

    def test_chain_cost_is_state_sizes(self):
        instance = far_instance(150, 5.0, 0.3, seed=10)
        partition = partition_disjoint(instance.graph, 3, seed=11)
        cost = oneway_cost_of_streaming(
            partition, lambda: CountingExactFinder(150)
        )
        # Two hops, each forwarding <= |E| edges worth of state.
        assert cost <= 2 * instance.graph.num_edges * edge_bits(150)
        assert cost > 0

    def test_reservoir_chain_bounded_cost(self):
        instance = far_instance(150, 5.0, 0.3, seed=12)
        partition = partition_disjoint(instance.graph, 3, seed=13)
        reservoir = 16
        cost = oneway_cost_of_streaming(
            partition,
            lambda: ReservoirTriangleFinder(150, reservoir, seed=14),
        )
        assert cost <= 2 * (reservoir + 1) * edge_bits(150)

    def test_single_player_rejected(self):
        graph = Graph(5, [(0, 1)])
        from repro.graphs.partition import EdgePartition

        partition = EdgePartition(graph, (frozenset({(0, 1)}),))
        with pytest.raises(ValueError):
            streaming_to_oneway(partition, lambda: CountingExactFinder(5))

    def test_space_transfer_formula(self):
        assert space_lower_bound_from_oneway(1000.0, hops=2) == 500.0
        with pytest.raises(ValueError):
            space_lower_bound_from_oneway(10.0, hops=0)

    def test_space_transfer_validates_inputs(self):
        with pytest.raises(ValueError, match="hops"):
            space_lower_bound_from_oneway(10.0, hops=-3)
        with pytest.raises(ValueError, match="negative"):
            space_lower_bound_from_oneway(-1.0, hops=2)
        assert space_lower_bound_from_oneway(0.0, hops=5) == 0.0

    @pytest.mark.parametrize("factory", [
        lambda: CountingExactFinder(150),
        lambda: ReservoirTriangleFinder(150, 16, seed=14),
    ])
    def test_row_batched_matches_per_edge_chain(self, factory):
        """The mask chain is pinned to the per-edge predecessor."""
        instance = far_instance(150, 5.0, 0.3, seed=21)
        partition = partition_disjoint(instance.graph, 3, seed=22)
        rows = streaming_to_oneway(partition, factory)
        edges = streaming_to_oneway_reference(partition, factory)
        assert rows.output == edges.output
        assert rows.total_bits == edges.total_bits
        assert rows.transcript.messages == edges.transcript.messages

    def test_chain_cost_equals_sum_of_per_hop_state_bits(self):
        """Charged-bits accounting: CC = Σ max(1, state_bits) per hop."""
        instance = far_instance(150, 5.0, 0.3, seed=23)
        partition = partition_disjoint(instance.graph, 4, seed=24)
        run = streaming_to_oneway(partition, lambda: CountingExactFinder(150))
        per_hop = [bits for _, _, bits in run.transcript.messages]
        assert len(per_hop) == 3  # k - 1 forwarding hops
        assert run.total_bits == sum(per_hop)
        for (_, state, bits) in run.transcript.messages:
            assert bits == max(1, state["bits"])
            forwarded_edges = sum(
                row.bit_count() for row in state["state"]["rows"].values()
            )
            assert state["bits"] == forwarded_edges * edge_bits(150)
        assert oneway_cost_of_streaming(
            partition, lambda: CountingExactFinder(150)
        ) == run.total_bits

    def test_duplicate_eviction_keeps_the_stored_copy(self):
        """Evicting one copy of a repeated edge leaves the other's bits.

        Player 0 holds (0,1) and player 1 the whole graph, so the chain
        streams (0,1),(0,1),(0,2),(0,3),(1,2) with R = 3.  (1,2) closes
        the triangle exactly when (0,1) and (0,2) are still stored after
        (0,3)'s update, whichever copy of (0,1) that update evicted.
        """
        graph = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        partition = partition_with_duplication(graph, 2, seed=47)
        assert [sorted(view) for view in partition.views] == [
            [(0, 1)], [(0, 1), (0, 2), (0, 3), (1, 2)],
        ]
        both_stored = 0
        for seed in range(200):
            reference = ReservoirTriangleFinder(4, 3, seed=seed)
            for edge in [(0, 1), (0, 1), (0, 2), (0, 3)]:
                reference.process(edge)
            stored = {(0, 1), (0, 2)} <= set(
                reference.export_state()["reservoir"]
            )
            both_stored += stored
            run = streaming_to_oneway(
                partition, lambda: ReservoirTriangleFinder(4, 3, seed=seed)
            )
            assert run.output == ((0, 1, 2) if stored else None)
        assert 0 < both_stored < 200

    def test_chain_equals_single_pass_over_player_streams(self):
        """The chain resumes the reservoir's coins at every hop, so it
        is the single pass over the concatenated player streams."""
        for seed in range(40):
            graph = gnp(60, 0.15, seed=seed)
            partition = partition_disjoint(graph, 3, seed=seed + 100)
            chain = streaming_to_oneway(
                partition, lambda: ReservoirTriangleFinder(60, 8, seed=seed)
            )
            single = ReservoirTriangleFinder(60, 8, seed=seed)
            states = []
            for view in partition.views:
                for edge in sorted(view):
                    single.process(edge)
                states.append(single.export_state())
            assert chain.output == single.result()
            assert [
                state["state"] for _, state, _ in chain.transcript.messages
            ] == states[:-1]

    def test_chain_cost_floor_on_empty_views(self):
        """Empty segments still charge the 1-bit floor per hop."""
        graph = Graph(6, [(0, 1)])
        from repro.graphs.partition import EdgePartition

        partition = EdgePartition(
            graph, (frozenset({(0, 1)}), frozenset(), frozenset())
        )
        run = streaming_to_oneway(partition, lambda: CountingExactFinder(6))
        # Hop 1 forwards one edge, hop 2 forwards the same single edge.
        assert [bits for _, _, bits in run.transcript.messages] == [
            edge_bits(6), edge_bits(6)
        ]
