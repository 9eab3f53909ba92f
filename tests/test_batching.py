"""Differential tests for the batched trial engine (PR 7).

The contract under test: ``run_trials`` (and ``run_sweep``), which run
one batch per grid point, produce `TrialResult` records byte-identical
to the per-trial oracle ``TrialTask.__call__``, across every protocol
family and across serial/parallel executors; the batched path builds
each grid point's instance once when instance seeds are shared; and the
migrated Table 1 loops (T1-R3 / T1-R6) match their historical inline
implementations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import (
    DefaultInstanceBuilder,
    _aggregate,
    run_sweep,
)
from repro.analysis.table1 import row_bm_lower, row_oneway_streaming_lower
from repro.core.exact_baseline import (
    exact_triangle_detection,
    exact_triangle_detection_blackboard,
)
from repro.core.oblivious import ObliviousParams, find_triangle_sim_oblivious
from repro.core.simultaneous_high import SimHighParams, find_triangle_sim_high
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.core.subgraph_detection import (
    FOUR_CYCLE,
    SubgraphParams,
    find_subgraph_simultaneous,
)
from repro.core.unrestricted import (
    UnrestrictedParams,
    find_triangle_unrestricted,
)
from repro.graphs.triangles import greedy_triangle_packing, is_triangle_free
from repro.lowerbounds.boolean_matching import (
    bm_product,
    reduction_graph,
    sample_bm_instance,
)
from repro.lowerbounds.distributions import MuDistribution
from repro.runtime import (
    InstanceCache,
    ParallelExecutor,
    SerialExecutor,
    TrialSpec,
    TrialTask,
    batch_specs,
    build_specs,
    run_trials,
)
from repro.streaming.stream import run_stream
from repro.streaming.triangle_stream import ReservoirTriangleFinder

GRID = [(120, 4.0, 3), (200, 4.0, 3)]


@pytest.fixture(autouse=True)
def _isolate_workers_env(monkeypatch):
    """An ambient REPRO_WORKERS must not reroute the executor-sensitive
    assertions below (cache counters live in the parent process only)."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


# Module-level protocol wrappers: picklable, and declaring the `shared`
# seam so the batched engine hands them pre-built coin streams.
def sim_low_protocol(partition, seed, *, shared=None):
    return find_triangle_sim_low(
        partition, SimLowParams(epsilon=0.3, delta=0.2), seed=seed,
        shared=shared,
    )


def sim_high_protocol(partition, seed, *, shared=None):
    return find_triangle_sim_high(
        partition, SimHighParams(epsilon=0.3, delta=0.2), seed=seed,
        shared=shared,
    )


def oblivious_protocol(partition, seed, *, shared=None):
    return find_triangle_sim_oblivious(
        partition, ObliviousParams(epsilon=0.3, delta=0.2), seed=seed,
        shared=shared,
    )


def unrestricted_protocol(partition, seed, *, shared=None):
    return find_triangle_unrestricted(
        partition,
        UnrestrictedParams(epsilon=0.3, delta=0.2, known_average_degree=4.0,
                           samples_per_bucket=4, max_candidates=3),
        seed=seed, shared=shared,
    )


def subgraph_protocol(partition, seed, *, shared=None):
    return find_subgraph_simultaneous(
        partition, FOUR_CYCLE, SubgraphParams(epsilon=0.3, rounds=2),
        seed=seed, shared=shared,
    )


def exact_protocol(partition, seed):
    return exact_triangle_detection(partition)


def exact_blackboard_protocol(partition, seed):
    return exact_triangle_detection_blackboard(partition)


PROTOCOLS = {
    "sim-low": sim_low_protocol,
    "sim-high": sim_high_protocol,
    "sim-oblivious": oblivious_protocol,
    "unrestricted": unrestricted_protocol,
    "subgraph": subgraph_protocol,
    "exact": exact_protocol,
    "exact-blackboard": exact_blackboard_protocol,
}


def per_trial(protocol, builder, specs):
    """The per-trial oracle: every spec run on its own, nothing shared."""
    task = TrialTask(builder, protocol)
    return [task(spec) for spec in specs]


class TestBatchSpecs:
    def test_groups_by_point_preserving_order(self):
        specs = build_specs(GRID, trials=3, sweep_seed=0)
        batches = batch_specs(specs)
        assert [b.point_index for b in batches] == [0, 1]
        assert [len(b) for b in batches] == [3, 3]
        assert [s for b in batches for s in b.specs] == specs

    def test_interleaved_specs_regroup(self):
        specs = build_specs(GRID, trials=2, sweep_seed=0)
        shuffled = [specs[0], specs[2], specs[1], specs[3]]
        batches = batch_specs(shuffled)
        assert [b.point_index for b in batches] == [0, 1]
        assert batches[0].specs == (specs[0], specs[1])

    def test_effective_instance_seed_defaults_to_seed(self):
        spec = TrialSpec(0, 0, 10, 2.0, 3, seed=99)
        assert spec.effective_instance_seed == 99
        pinned = TrialSpec(0, 0, 10, 2.0, 3, seed=99, instance_seed=7)
        assert pinned.effective_instance_seed == 7

    def test_shared_instances_pins_per_point_seed(self):
        specs = build_specs(GRID, trials=3, sweep_seed=5,
                            shared_instances=True)
        by_point = {}
        for spec in specs:
            by_point.setdefault(spec.point_index, set()).add(
                spec.instance_seed
            )
        assert all(len(seeds) == 1 for seeds in by_point.values())
        assert by_point[0] != by_point[1]
        # Coin seeds stay per-trial.
        assert len({s.seed for s in specs}) == len(specs)

    def test_default_specs_identical_to_previous_releases(self):
        plain = build_specs(GRID, trials=2, sweep_seed=3)
        assert all(s.instance_seed is None for s in plain)


class TestBatchedIdentity:
    """Batched-vs-per-trial byte-identity, per protocol family."""

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_batched_matches_per_trial_serial(self, name):
        protocol = PROTOCOLS[name]
        specs = build_specs(GRID, trials=3, sweep_seed=11)
        builder = DefaultInstanceBuilder(epsilon=0.3, k=3)
        reference = per_trial(protocol, builder, specs)
        batched = run_trials(protocol, builder, specs,
                             executor=SerialExecutor())
        assert batched == reference

    @pytest.mark.parametrize("name", ["sim-low", "unrestricted"])
    def test_batched_matches_per_trial_parallel(self, name):
        protocol = PROTOCOLS[name]
        specs = build_specs(GRID, trials=3, sweep_seed=11)
        builder = DefaultInstanceBuilder(epsilon=0.3, k=3)
        reference = per_trial(protocol, builder, specs)
        parallel_batched = run_trials(protocol, builder, specs,
                                      executor=ParallelExecutor(workers=2))
        assert parallel_batched == reference

    def test_shared_instance_specs_identical_across_paths(self):
        specs = build_specs(GRID, trials=3, sweep_seed=11,
                            shared_instances=True)
        builder = DefaultInstanceBuilder(epsilon=0.3, k=3)
        reference = per_trial(sim_low_protocol, builder, specs)
        batched = run_trials(sim_low_protocol, builder, specs,
                             executor=SerialExecutor())
        parallel = run_trials(sim_low_protocol, builder, specs,
                              executor=ParallelExecutor(workers=2))
        assert batched == reference
        assert parallel == reference

    def test_run_sweep_batched_default_matches_reference(self):
        builder = DefaultInstanceBuilder(epsilon=0.3, k=3)
        batched = run_sweep(sim_low_protocol, builder, GRID,
                            trials=3, seed=4)
        records = per_trial(sim_low_protocol, builder,
                            build_specs(GRID, trials=3, sweep_seed=4))
        reference = _aggregate(GRID, 3, records)
        assert batched.records == reference.records
        assert batched.points == reference.points


class TestBatchedCacheSemantics:
    def test_shared_instances_build_once_per_grid_point(self):
        """A batched shared-instance sweep touches the cache exactly once
        per grid point: one miss/build each, zero hits (the batch-local
        instance map absorbs the repetition axis)."""
        builder = DefaultInstanceBuilder(epsilon=0.3, k=3)
        cache = InstanceCache()
        specs = build_specs(GRID, trials=4, sweep_seed=2,
                            shared_instances=True)
        run_trials(sim_low_protocol, builder, specs,
                   executor=SerialExecutor(),
                   cache=cache, instance_key="batching-test")
        stats = cache.stats()
        assert stats["builds"] == len(GRID)
        assert stats["misses"] == len(GRID)
        assert stats["hits"] == 0
        assert stats["build_seconds"] > 0.0

    def test_per_trial_seeds_preserve_cache_counts(self):
        """With historical per-trial instance seeds the batched path keeps
        the per-trial cache access pattern (distinct keys, no coalescing),
        so cross-sweep reuse accounting is unchanged."""
        builder = DefaultInstanceBuilder(epsilon=0.3, k=3)
        cache = InstanceCache()
        specs = build_specs(GRID, trials=2, sweep_seed=2)
        run_trials(sim_low_protocol, builder, specs,
                   executor=SerialExecutor(),
                   cache=cache, instance_key="batching-test")
        assert cache.stats()["misses"] == len(specs)
        run_trials(sim_low_protocol, builder, specs,
                   executor=SerialExecutor(),
                   cache=cache, instance_key="batching-test")
        assert cache.stats()["hits"] == len(specs)

    def test_stats_reset_on_clear(self):
        cache = InstanceCache()
        cache.get_or_build(("k",), lambda: 1)
        assert cache.stats()["builds"] == 1
        cache.clear()
        stats = cache.stats()
        assert stats == {"hits": 0, "misses": 0, "entries": 0,
                         "builds": 0, "build_seconds": 0.0,
                         "quarantined": 0, "instance_bytes": 0}


class TestMigratedTable1Loops:
    """T1-R3 / T1-R6 on the executor path match the historical loops."""

    def test_bm_row_matches_inline_loop(self):
        seed, n, trials = 3, 24, 10
        verified = 0
        for trial in range(trials):
            zeros = sample_bm_instance(n, "zeros", seed=seed + trial)
            ones = sample_bm_instance(n, "ones", seed=seed + trial)
            graph_zeros, _, _ = reduction_graph(zeros)
            graph_ones, _, _ = reduction_graph(ones)
            zero_ok = (
                all(bit == 0 for bit in bm_product(zeros))
                and len(greedy_triangle_packing(graph_zeros)) == n
            )
            one_ok = (
                all(bit == 1 for bit in bm_product(ones))
                and is_triangle_free(graph_ones)
            )
            if zero_ok and one_ok:
                verified += 1
        report = row_bm_lower(quick=True, seed=seed)
        assert report.measured == verified / trials

    def test_streaming_row_matches_inline_loop(self):
        seed, trials = 5, 10
        sizes = [2, 4, 8, 16, 32, 64, 128, 256]

        def old_needed_space(part_size):
            mu = MuDistribution(part_size=part_size, gamma=1.2)
            for size in sizes:
                successes = 0
                for trial in range(trials):
                    sample = mu.sample(seed=seed + trial)
                    if is_triangle_free(sample.graph):
                        successes += 1
                        continue
                    finder = ReservoirTriangleFinder(
                        sample.graph.n, reservoir_size=size,
                        seed=seed + 31 * trial,
                    )
                    run = run_stream(finder, sorted(sample.graph.edges()))
                    if run.result is not None:
                        successes += 1
                if successes / trials >= 0.5:
                    return size
            return sizes[-1]

        expected = old_needed_space(96) / max(1, old_needed_space(24))
        report = row_oneway_streaming_lower(quick=True, seed=seed)
        assert report.measured == expected

    def test_migrated_rows_worker_invariant(self):
        serial_bm = row_bm_lower(quick=True, seed=1, workers=1)
        parallel_bm = row_bm_lower(quick=True, seed=1, workers=2)
        assert serial_bm.measured == parallel_bm.measured
        serial_stream = row_oneway_streaming_lower(quick=True, seed=1,
                                                   workers=1)
        parallel_stream = row_oneway_streaming_lower(quick=True, seed=1,
                                                     workers=2)
        assert serial_stream.measured == parallel_stream.measured


class TestSharedSeamEquivalence:
    """Protocols given an injected stream equal their self-seeded runs."""

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_injected_stream_matches_internal(self, seed):
        from repro.comm.randomness import SharedRandomness

        builder = DefaultInstanceBuilder(epsilon=0.3, k=3)
        partition = builder(120, 4.0, seed % 1000)
        direct = sim_low_protocol(partition, seed)
        injected = sim_low_protocol(
            partition, seed, shared=SharedRandomness(seed)
        )
        assert injected.found == direct.found
        assert injected.triangle == direct.triangle
        assert injected.cost == direct.cost
