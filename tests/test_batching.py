"""Differential tests for the batched trial engine (PR 7).

The contract under test: ``run_trials`` (and ``run_sweep``), which run
one batch per grid point, produce `TrialResult` records byte-identical
to the per-trial oracle ``TrialTask.__call__``, across every protocol
family and across serial/parallel executors; the batched path builds
each grid point's instance once when instance seeds are shared; and the
migrated Table 1 loops (T1-R3 / T1-R6) match their historical inline
implementations.
"""

import multiprocessing
import weakref
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import (
    DefaultInstanceBuilder,
    _aggregate,
    run_sweep,
)
from repro.analysis.table1 import row_bm_lower, row_oneway_streaming_lower
from repro.comm.players import make_players
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


class _Outcome(NamedTuple):
    total_bits: float
    found: bool


# Every (partition, player list) a recording protocol was handed, in
# call order; per process, so forked workers record into their own copy.
_HANDED: list[tuple[object, list]] = []


@pytest.fixture
def handed():
    _HANDED.clear()
    yield _HANDED
    _HANDED.clear()


def _holds_players(partition) -> bool:
    return partition._players_cache is not None


def recording_protocol(partition, seed):
    """Record the player list this trial got; ``found`` flags a partition
    handed out earlier (another batch's, with shared instances) that
    still holds players."""
    stale = any(
        other is not partition and _holds_players(other)
        for other, _ in _HANDED
    )
    _HANDED.append((partition, make_players(partition)))
    return _Outcome(0.0, stale)


LIFETIME_EXECUTORS = {
    "serial": SerialExecutor,
    "fork-2": lambda: ParallelExecutor(workers=2, start_method="fork"),
}


class TestPlayerLifetime:
    """Player state lives for one trial batch: the batch's trials share
    one player list per partition, and cached partitions keep only
    their key arrays once the batch returns."""

    @pytest.mark.parametrize("executor", sorted(LIFETIME_EXECUTORS))
    def test_cached_partitions_hold_no_players(self, executor, handed):
        if (executor.startswith("fork")
                and "fork" not in multiprocessing.get_all_start_methods()):
            pytest.skip("fork start method unavailable")
        builder = DefaultInstanceBuilder(epsilon=0.3, k=3)
        cache = InstanceCache()
        grid = [(120, 4.0, 3), (160, 4.0, 3), (200, 4.0, 3),
                (240, 4.0, 3)]
        specs = build_specs(grid, trials=2, sweep_seed=3,
                            shared_instances=True)
        results = run_trials(recording_protocol, builder, specs,
                             executor=LIFETIME_EXECUTORS[executor](),
                             cache=cache, instance_key="lifetime")
        # Four batches on two workers: some process ran several, and no
        # batch saw an earlier batch's partition still holding players.
        assert not any(result.found for result in results)
        if executor == "serial":
            task = TrialTask(builder, recording_protocol, cache=cache,
                             instance_key="lifetime")
            for spec in specs:
                cached = cache.get_or_build(
                    task.cache_key(spec), lambda: pytest.fail("not cached")
                )
                assert not _holds_players(cached)

    def test_one_player_list_per_batch(self, handed):
        builder = DefaultInstanceBuilder(epsilon=0.3, k=3)
        cache = InstanceCache()
        specs = build_specs(GRID, trials=3, sweep_seed=2,
                            shared_instances=True)
        for _ in range(2):
            run_trials(recording_protocol, builder, specs,
                       executor=SerialExecutor(),
                       cache=cache, instance_key="lifetime")
        batches = [handed[i:i + 3] for i in range(0, len(handed), 3)]
        assert len(batches) == 2 * len(GRID)
        for batch in batches:
            partition, players = batch[0]
            assert all(p is partition and got is players
                       for p, got in batch)
        for first, again in zip(batches, batches[len(GRID):]):
            # The cache hands the next batch the same partition, whose
            # players were released and are built afresh.
            assert again[0][0] is first[0][0]
            assert again[0][1] is not first[0][1]

    def test_per_trial_oracle_releases_players(self, handed):
        builder = DefaultInstanceBuilder(epsilon=0.3, k=3)
        task = TrialTask(builder, recording_protocol,
                         cache=InstanceCache(), instance_key="lifetime")
        spec = build_specs(GRID, trials=1, sweep_seed=2,
                           shared_instances=True)[0]
        task(spec)
        task(spec)
        (first, first_players), (again, again_players) = handed
        assert again is first
        assert again_players is not first_players
        assert not _holds_players(first)

    def test_make_players_memoizes_outside_a_batch(self):
        partition = DefaultInstanceBuilder(epsilon=0.3, k=3)(120, 4.0, 5)
        players = make_players(partition)
        assert make_players(partition) is players
        partition.release_players()
        fresh = make_players(partition)
        assert fresh is not players
        assert make_players(partition) is fresh
        assert [p.num_edges for p in fresh] == [
            p.num_edges for p in players
        ]


# Weak references to every instance a protocol was handed, in call
# order, to see which of them the batch still keeps alive.
_SEEN: list[weakref.ref] = []


@pytest.fixture
def seen():
    _SEEN.clear()
    yield _SEEN
    _SEEN.clear()


def weakref_protocol(partition, seed):
    """Build this trial's players; ``found`` flags an instance handed to
    an earlier trial that is still alive."""
    alive = any(
        ref() is not None and ref() is not partition for ref in _SEEN
    )
    _SEEN.append(weakref.ref(partition))
    make_players(partition)
    return _Outcome(0.0, alive)


def failing_second_trial(partition, seed):
    """Record and build players like :func:`recording_protocol`, then
    raise on the batch's second trial."""
    _HANDED.append((partition, make_players(partition)))
    if len(_HANDED) == 2:
        raise RuntimeError("second trial broke")
    return _Outcome(0.0, False)


class TestInstanceLifetime:
    """A batch holds each instance until its last reader: with per-trial
    instance seeds one instance at a time, with shared instances one for
    the whole batch."""

    def test_per_trial_batch_holds_one_instance_at_a_time(self, seen):
        builder = DefaultInstanceBuilder(epsilon=0.3, k=3)
        specs = build_specs([(160, 4.0, 3)], trials=4, sweep_seed=5)
        assert len(batch_specs(specs)) == 1
        results = run_trials(weakref_protocol, builder, specs,
                             executor=SerialExecutor())
        assert len(seen) == 4
        assert not any(result.found for result in results)
        assert all(ref() is None for ref in seen)

    def test_shared_batch_keeps_its_instance_and_players(self, handed):
        builder = DefaultInstanceBuilder(epsilon=0.3, k=3)
        specs = build_specs(GRID, trials=3, sweep_seed=2,
                            shared_instances=True)
        run_trials(recording_protocol, builder, specs,
                   executor=SerialExecutor())
        assert len(handed) == 3 * len(GRID)
        for start in range(0, len(handed), 3):
            (partition, players), *rest = handed[start:start + 3]
            assert all(p is partition and got is players for p, got in rest)
        assert handed[0][0] is not handed[3][0]
        assert not any(_holds_players(p) for p, _ in handed)

    @pytest.mark.parametrize("shared", [False, True],
                             ids=["per-trial", "shared"])
    def test_raising_trial_leaves_no_players(self, handed, shared):
        builder = DefaultInstanceBuilder(epsilon=0.3, k=3)
        cache = InstanceCache()
        specs = build_specs([(160, 4.0, 3)], trials=3, sweep_seed=4,
                            shared_instances=shared)
        with pytest.raises(RuntimeError, match="second trial broke"):
            run_trials(failing_second_trial, builder, specs,
                       executor=SerialExecutor(),
                       cache=cache, instance_key="lifetime")
        assert len(handed) == 2
        assert (handed[0][0] is handed[1][0]) == shared
        assert not any(_holds_players(p) for p, _ in handed)


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
