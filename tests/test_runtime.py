"""Tests for the parallel experiment runtime (repro.runtime).

The three guarantees the runtime makes:

(a) serial and parallel executors yield byte-identical TrialResult
    streams for the same sweep seed;
(b) seed derivation is stable across process boundaries;
(c) the instance cache is hit when two protocols share a grid point.
"""

from __future__ import annotations

import multiprocessing
import pickle
import subprocess
import sys

import pytest

import spawn_helpers

from repro.analysis.experiments import default_instance, run_sweep
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.graphs.generators import gnd
from repro.graphs.partition import (
    partition_all_to_all,
    partition_disjoint,
    partition_with_duplication,
)
from repro.runtime import (
    InstanceCache,
    ParallelExecutor,
    SerialExecutor,
    TrialResult,
    TrialSpec,
    TrialTask,
    build_specs,
    default_executor,
    derive_seed,
    resolve_workers,
    run_trials,
)
from repro.runtime.cache import instance_nbytes

GRID = [(200, 4.0, 3), (400, 4.0, 3)]


@pytest.fixture(autouse=True)
def _isolate_workers_env(monkeypatch):
    """An ambient REPRO_WORKERS must not reroute the executor-sensitive
    assertions below (cache counters live in the parent process only)."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


def sim_low_protocol(partition, seed):
    return find_triangle_sim_low(
        partition, SimLowParams(epsilon=0.3, delta=0.2), seed=seed
    )


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)

    def test_coordinates_distinguish(self):
        seeds = {
            derive_seed(s, p, t)
            for s in range(4) for p in range(4) for t in range(4)
        }
        assert len(seeds) == 64

    def test_stream_labels_split(self):
        assert derive_seed(1, 2, 3, "a") != derive_seed(1, 2, 3, "b")

    def test_non_negative_64bit(self):
        seed = derive_seed(12345, 999, 999)
        assert 0 <= seed < 2 ** 63

    def test_stable_across_process_boundaries(self):
        """The derivation must not depend on interpreter hash state."""
        import json
        import os
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        coords = [[0, 0, 0], [7, 3, 1], [104729, 12, 4]]
        script = (
            "import json; from repro.runtime import derive_seed; "
            f"print(json.dumps([derive_seed(*c) for c in {coords!r}]))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        # A different hash seed would change the output if the derivation
        # leaned on hash() anywhere.
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        child = json.loads(out.stdout.strip())
        assert child == [derive_seed(*c) for c in coords]


class TestSpecs:
    def test_build_specs_shape_and_order(self):
        specs = build_specs(GRID, trials=3, sweep_seed=5)
        assert len(specs) == 6
        assert [(s.point_index, s.trial_index) for s in specs] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]
        assert specs[0].n == 200 and specs[3].n == 400

    def test_build_specs_validates_trials(self):
        with pytest.raises(ValueError):
            build_specs(GRID, trials=0, sweep_seed=0)

    def test_specs_pickle_roundtrip(self):
        specs = build_specs(GRID, trials=2, sweep_seed=1)
        assert pickle.loads(pickle.dumps(specs)) == specs


class TestExecutorIdentity:
    def test_serial_vs_parallel_byte_identical(self):
        """(a) the headline guarantee: records match byte for byte."""
        instance_fn = default_instance(epsilon=0.3, k=3)
        serial = run_sweep(
            sim_low_protocol, instance_fn, GRID, trials=3, seed=11,
            executor=SerialExecutor(),
        )
        parallel = run_sweep(
            sim_low_protocol, instance_fn, GRID, trials=3, seed=11,
            executor=ParallelExecutor(workers=4),
        )
        assert serial.records == parallel.records
        assert serial.points == parallel.points
        assert pickle.dumps(serial.records) == pickle.dumps(parallel.records)

    def test_parallel_chunking_preserves_order(self):
        # Interleaved points: the pool runs one batch per grid point and
        # the results must be dealt back out in this input order.
        instance_fn = default_instance(epsilon=0.3, k=3)
        by_point = build_specs(GRID, trials=4, sweep_seed=2)
        specs = [spec for pair in zip(by_point[:4], by_point[4:])
                 for spec in pair]
        chunked = run_trials(
            sim_low_protocol, instance_fn, specs,
            executor=ParallelExecutor(workers=3),
        )
        task = TrialTask(instance_fn, sim_low_protocol)
        reference = [task(spec) for spec in specs]
        assert chunked == reference
        assert [r.point_index for r in chunked] == [
            s.point_index for s in specs
        ]

    def test_closures_survive_parallel_execution(self):
        """Protocol/instance closures never pickle — fork shares them."""
        epsilon = 0.3  # captured by both closures below

        def instance(n, d, seed):
            return default_instance(epsilon=epsilon, k=3)(n, d, seed)

        result = run_sweep(
            lambda p, s: find_triangle_sim_low(
                p, SimLowParams(epsilon=epsilon, delta=0.2), seed=s
            ),
            instance, GRID, trials=2, seed=3,
            executor=ParallelExecutor(workers=2),
        )
        assert len(result.records) == 4

    def test_workers_knob_equivalence(self):
        instance_fn = default_instance(epsilon=0.3, k=3)
        by_knob = run_sweep(
            sim_low_protocol, instance_fn, GRID, trials=2, seed=4, workers=2
        )
        serial = run_sweep(
            sim_low_protocol, instance_fn, GRID, trials=2, seed=4, workers=1
        )
        assert by_knob.records == serial.records


class TestFailFast:
    """Every run fails fast: the first trial exception escapes with its
    own type and message, whichever executor ran the trial.  The failing
    protocol lives in ``spawn_helpers`` so spawn workers can import it."""

    @pytest.mark.parametrize("executor", [
        SerialExecutor(),
        ParallelExecutor(workers=2, start_method="fork"),
        ParallelExecutor(workers=2, start_method="spawn"),
    ], ids=["serial", "fork", "spawn"])
    def test_trial_exception_propagates_unchanged(self, executor):
        specs = build_specs(GRID, trials=2, sweep_seed=6)
        with pytest.raises(KeyError) as excinfo:
            run_trials(spawn_helpers.failing_protocol,
                       spawn_helpers.spawn_instance, specs,
                       executor=executor)
        assert excinfo.type is KeyError
        assert excinfo.value.args == (
            f"protocol broke at seed {specs[0].seed}",
        )

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_workers_reaped_before_return(self, method):
        """``run_batches`` shuts its pool down with ``wait=True``: no
        worker outlives the call, so a caller reading the children's
        peak RSS (``RUSAGE_CHILDREN``) sees every one of them."""
        specs = build_specs(GRID, trials=2, sweep_seed=8)
        run_trials(
            spawn_helpers.spawn_protocol, spawn_helpers.spawn_instance,
            specs, executor=ParallelExecutor(workers=2, start_method=method),
        )
        assert multiprocessing.active_children() == []


class TestSpawnExecutor:
    """The executor contract must hold without fork (Windows, macOS
    defaults, Python 3.14's default change): records byte-identical to
    serial, with the task shipped pickled through the pool initializer."""

    def test_spawn_records_byte_identical_to_serial(self):
        specs = build_specs(GRID, trials=2, sweep_seed=21)
        serial = run_trials(
            spawn_helpers.spawn_protocol, spawn_helpers.spawn_instance,
            specs, executor=SerialExecutor(),
        )
        spawned = run_trials(
            spawn_helpers.spawn_protocol, spawn_helpers.spawn_instance,
            specs,
            executor=ParallelExecutor(workers=2, start_method="spawn"),
        )
        assert pickle.dumps(spawned) == pickle.dumps(serial)

    def test_spawn_falls_back_to_serial_on_unpicklable_task(self, caplog):
        epsilon = 0.3  # captured: the closures below never pickle

        def closure_instance(n, d, seed):
            return default_instance(epsilon=epsilon, k=3)(n, d, seed)

        specs = build_specs(GRID, trials=2, sweep_seed=22)
        with caplog.at_level("WARNING", logger="repro.runtime.executor"):
            via_spawn = run_trials(
                lambda p, s: sim_low_protocol(p, s), closure_instance, specs,
                executor=ParallelExecutor(workers=2, start_method="spawn"),
            )
        serial = run_trials(
            sim_low_protocol, closure_instance, specs,
            executor=SerialExecutor(),
        )
        assert via_spawn == serial
        warnings = [r for r in caplog.records
                    if "does not pickle" in r.message]
        assert warnings, "the serial fallback must be loud"
        assert "closure_instance" in warnings[0].message

    def test_unavailable_start_method_rejected(self):
        available = multiprocessing.get_all_start_methods()
        assert "spawn" in available  # spawn exists on every platform
        with pytest.raises(ValueError):
            ParallelExecutor(workers=2, start_method="threads")

    def test_default_instance_builder_pickles(self):
        builder = default_instance(epsilon=0.25, k=4)
        clone = pickle.loads(pickle.dumps(builder))
        assert clone(100, 4.0, 7).k == 4


class TestWorkerResolution:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert isinstance(default_executor(None), SerialExecutor)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        executor = default_executor(None)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_zero_means_all_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(0) >= 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers(None)


class TestInstanceCache:
    def test_cache_hit_across_protocols_at_shared_grid_point(self):
        """(c) two protocols at one grid point build the instance once."""
        cache = InstanceCache()
        built = []
        instance_fn = default_instance(epsilon=0.3, k=3)

        def counting_instance(n, d, seed):
            built.append((n, d, seed))
            return instance_fn(n, d, seed)

        first = run_sweep(
            sim_low_protocol, counting_instance, GRID, trials=2, seed=9,
            cache=cache, instance_key="shared",
        )
        second = run_sweep(
            lambda p, _s: sim_low_protocol(p, 0),  # a "different protocol"
            counting_instance, GRID, trials=2, seed=9,
            cache=cache, instance_key="shared",
        )
        assert len(built) == 4  # built once per (point, trial), not twice
        assert cache.hits == 4 and cache.misses == 4
        # Same instances => the deterministic protocol saw identical inputs.
        assert [r.seed for r in first.records] == [
            r.seed for r in second.records
        ]

    def test_distinct_keys_do_not_collide(self):
        cache = InstanceCache()
        instance_fn = default_instance(epsilon=0.3, k=3)
        run_sweep(sim_low_protocol, instance_fn, GRID, trials=1, seed=9,
                  cache=cache, instance_key="a")
        run_sweep(sim_low_protocol, instance_fn, GRID, trials=1, seed=9,
                  cache=cache, instance_key="b")
        assert cache.hits == 0 and cache.misses == 4

    def test_separate_cache_objects_do_not_share(self):
        """The cache is memory only: a second cache object rebuilds, and
        the rebuilt instances give the same records."""
        instance_fn = default_instance(epsilon=0.3, k=3)
        first = InstanceCache()
        before = run_sweep(sim_low_protocol, instance_fn, GRID, trials=1,
                           seed=9, cache=first, instance_key="shared")
        second = InstanceCache()  # nothing inherited from ``first``
        after = run_sweep(sim_low_protocol, instance_fn, GRID, trials=1,
                          seed=9, cache=second, instance_key="shared")
        assert first.misses == 2 and first.hits == 0
        assert second.misses == 2 and second.hits == 0
        assert [(r.bits, r.found, r.seed) for r in after.records] == [
            (r.bits, r.found, r.seed) for r in before.records
        ]

    def test_rebuild_in_fresh_interpreter_is_identical(self):
        """A pool worker that misses rebuilds from the key; a child
        interpreter with another hash seed must build the same instance."""
        import hashlib
        import os
        from pathlib import Path

        import repro

        def digest(partition):
            h = hashlib.sha256(partition.graph.edge_keys().tobytes())
            for keys in partition.view_keys:
                h.update(keys.tobytes())
            return h.hexdigest()

        src = str(Path(repro.__file__).resolve().parent.parent)
        script = (
            "import hashlib; "
            "from repro.analysis.experiments import default_instance; "
            "p = default_instance(epsilon=0.3, k=3)(200, 4.0, 77); "
            "h = hashlib.sha256(p.graph.edge_keys().tobytes()); "
            "[h.update(keys.tobytes()) for keys in p.view_keys]; "
            "print(h.hexdigest())"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        env["PYTHONHASHSEED"] = "54321"  # scrambles set/dict hash order
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        parent = default_instance(epsilon=0.3, k=3)(200, 4.0, 77)
        assert out.stdout.strip() == digest(parent)

    def test_any_hashable_key_is_accepted(self):
        """Keys only need hashability; none is encoded or named."""
        cache = InstanceCache()
        token = object()

        class Hashable:
            pass

        key = ("k", Hashable())
        assert cache.get_or_build(key, lambda: token) is token
        assert cache.get_or_build(key, pytest.fail) is token

    def test_unhashable_key_rejected_loudly(self):
        cache = InstanceCache()
        with pytest.raises(TypeError, match="unhashable"):
            cache.get_or_build(("k", {"a": 1}), pytest.fail)
        assert cache.stats()["misses"] == 0 and len(cache) == 0

    def test_clear_drops_entries_so_the_next_read_rebuilds(self):
        cache = InstanceCache()
        cache.get_or_build(("x", 1), lambda: "first")
        cache.clear()
        assert len(cache) == 0
        assert cache.get_or_build(("x", 1), lambda: "second") == "second"
        assert cache.stats()["builds"] == 1 and cache.stats()["hits"] == 0

    def test_lru_eviction(self):
        cache = InstanceCache(max_entries=2)
        for i in range(4):
            cache.get_or_build(("key", i), lambda i=i: i)
        assert len(cache) == 2
        assert cache.get_or_build(("key", 3), lambda: "rebuilt") == 3

    def test_validates_max_entries(self):
        with pytest.raises(ValueError):
            InstanceCache(max_entries=0)

    def test_instance_bytes_count_partition_view_keys(self):
        """A partition pins its graph's key array plus its view key
        arrays, each distinct array once."""
        graph = gnd(2400, 6.0, seed=1)
        key_bytes = graph.edge_keys().nbytes
        disjoint = partition_disjoint(graph, 3, seed=2)
        assert instance_nbytes(disjoint) == 2 * key_bytes
        # All-to-all views are the graph's own array, shared k times.
        assert instance_nbytes(partition_all_to_all(graph, 3)) == key_bytes
        duplicated = partition_with_duplication(graph, 3, seed=2)
        assert instance_nbytes(duplicated) == key_bytes + sum(
            keys.nbytes for keys in duplicated.view_keys
        ) > 2 * key_bytes
        cache = InstanceCache()
        cache.get_or_build(("p",), lambda: disjoint)
        assert cache.stats()["instance_bytes"] == 2 * key_bytes

    def test_instance_bytes_count_a_built_graphs_keys(self):
        """Once its kernel is built a graph still holds its edge keys,
        and its size counts both."""
        graph = gnd(2400, 6.0, seed=1)
        key_bytes = graph.edge_keys().nbytes
        assert graph.nbytes == key_bytes
        graph.degree(0)  # builds the kernel
        kernel_bytes = graph._kernel.memory_bytes()
        assert graph.edge_keys().nbytes == key_bytes > 0
        assert graph.nbytes == kernel_bytes + key_bytes
        assert instance_nbytes(graph) == kernel_bytes + key_bytes
        disjoint = partition_disjoint(graph, 3, seed=2)
        assert instance_nbytes(disjoint) == kernel_bytes + 2 * key_bytes
        # A mutation drops the keys: the kernel is all the graph holds.
        assert graph.remove_edge(*next(graph.edges()))
        assert graph.nbytes == graph._kernel.memory_bytes()


class TestTrialTask:
    def test_result_records_spec_coordinates(self):
        task = TrialTask(
            default_instance(epsilon=0.3, k=3), sim_low_protocol
        )
        spec = build_specs(GRID, trials=1, sweep_seed=0)[1]
        result = task(spec)
        assert isinstance(result, TrialResult)
        assert (result.point_index, result.trial_index) == (1, 0)
        assert result.seed == spec.seed
        assert result.bits > 0

    def test_metrics_hook_lands_in_extras(self):
        def metrics(spec, partition, outcome):
            return {"k": partition.k, "bits_echo": outcome.total_bits}

        task = TrialTask(
            default_instance(epsilon=0.3, k=3), sim_low_protocol,
            metrics=metrics,
        )
        result = task(TrialSpec(0, 0, 200, 4.0, 3, seed=derive_seed(0, 0, 0)))
        assert result.extras["k"] == 3
        assert result.extras["bits_echo"] == result.bits

    def test_k_aware_instance_builder(self):
        def instance(n, d, seed, k):
            return default_instance(epsilon=0.3, k=k)(n, d, seed)

        task = TrialTask(instance, sim_low_protocol)
        spec = TrialSpec(0, 0, 200, 4.0, 4, seed=derive_seed(0, 0, 0))
        assert task.build_instance(spec).k == 4
