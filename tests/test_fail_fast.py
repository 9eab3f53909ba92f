"""The one fail-fast executor path, end to end.

Every run goes through ``run_trials`` -> ``run_batches`` -> ``run_batch``
once per grid point, and the contract is the same on every executor:

* records equal the per-trial oracle ``TrialTask.__call__`` and pickle
  byte-identically to a serial run, in input spec order, whatever the
  start method, the worker count or the order of the input specs;
* the first trial exception escapes with its own type and message,
  wherever it was raised (instance builder, protocol, metrics hook) and
  whichever process raised it;
* a pool never outlives ``run_batches``, on success or on failure;
* a pool gets the batches largest first and collects them in batch
  order, so submission order never reaches the records;
* the serial fallbacks (one worker, one batch, re-entry, a task that
  does not pickle) give the same records as the pool would.

The trial callables live in ``spawn_helpers`` so spawn and forkserver
workers can import them by reference.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import tempfile
from concurrent.futures import Future

import pytest

import spawn_helpers
from repro.analysis.experiments import run_sweep
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.runtime import (
    Executor,
    InstanceCache,
    ParallelExecutor,
    SerialExecutor,
    TrialBatch,
    TrialResult,
    TrialTask,
    batch_specs,
    build_specs,
    default_executor,
    run_trials,
    shared_cache,
)
from repro.runtime import executor as executor_module

GRID = [(10, 2.0, 2), (20, 3.0, 2), (30, 4.0, 3), (40, 5.0, 3)]
TRIALS = 3
SWEEP_SEED = 7

EXECUTORS = {
    "serial": lambda: SerialExecutor(),
    "fork-2": lambda: ParallelExecutor(workers=2, start_method="fork"),
    "fork-3": lambda: ParallelExecutor(workers=3, start_method="fork"),
    "fork-8": lambda: ParallelExecutor(workers=8, start_method="fork"),
    "spawn-2": lambda: ParallelExecutor(workers=2, start_method="spawn"),
    "forkserver-2": lambda: ParallelExecutor(workers=2,
                                             start_method="forkserver"),
}
POOL_METHODS = ["fork", "spawn", "forkserver"]


@pytest.fixture(autouse=True)
def _isolate_workers_env(monkeypatch):
    """An ambient REPRO_WORKERS must not reroute the default executor."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


def grid_specs():
    return build_specs(GRID, trials=TRIALS, sweep_seed=SWEEP_SEED)


def oracle(specs, protocol=spawn_helpers.tiny_protocol):
    task = TrialTask(spawn_helpers.tiny_instance, protocol)
    return [task(spec) for spec in specs]


def serial_records(specs):
    return run_trials(spawn_helpers.tiny_protocol,
                      spawn_helpers.tiny_instance, specs,
                      executor=SerialExecutor())


def reordered(specs, order):
    """The grid's specs in one of several input orders."""
    if order == "point-major":
        return list(specs)
    if order == "interleaved":
        return sorted(specs, key=lambda s: (s.trial_index, s.point_index))
    if order == "reversed":
        return list(reversed(specs))
    if order == "one-point":
        return [s for s in specs if s.point_index == 2]
    raise AssertionError(order)


# ----------------------------------------------------------------------
class TestOracleIdentity:
    """Records equal the per-trial oracle, byte for byte."""

    @pytest.mark.parametrize("name", sorted(EXECUTORS))
    def test_records_match_per_trial_oracle(self, name):
        specs = grid_specs()
        records = run_trials(spawn_helpers.tiny_protocol,
                             spawn_helpers.tiny_instance, specs,
                             executor=EXECUTORS[name]())
        assert records == oracle(specs)
        assert pickle.dumps(records) == pickle.dumps(serial_records(specs))

    @pytest.mark.parametrize("order", [
        "point-major", "interleaved", "reversed", "one-point",
    ])
    @pytest.mark.parametrize("name", ["serial", "fork-2", "fork-3"])
    def test_any_input_order_comes_back_in_that_order(self, name, order):
        specs = reordered(grid_specs(), order)
        records = run_trials(spawn_helpers.tiny_protocol,
                             spawn_helpers.tiny_instance, specs,
                             executor=EXECUTORS[name]())
        assert [(r.point_index, r.trial_index) for r in records] == [
            (s.point_index, s.trial_index) for s in specs
        ]
        assert pickle.dumps(records) == pickle.dumps(oracle(specs))

    def test_every_record_is_ok(self):
        records = serial_records(grid_specs())
        assert all(r.status == "ok" for r in records)

    def test_status_is_not_pickled_state(self):
        """``status`` is a class constant: it never enters a record's
        fields, so it cannot change the pickled byte stream."""
        names = [f.name for f in dataclasses.fields(TrialResult)]
        assert "status" not in names
        assert "error" not in names
        record = serial_records(grid_specs())[0]
        assert b"status" not in pickle.dumps(record)

    def test_empty_spec_list(self):
        for name in ("serial", "fork-2"):
            assert run_trials(spawn_helpers.tiny_protocol,
                              spawn_helpers.tiny_instance, [],
                              executor=EXECUTORS[name]()) == []


# ----------------------------------------------------------------------
class TestFailurePropagation:
    """The first exception escapes unchanged, wherever it was raised."""

    SITES = {
        "instance": dict(
            protocol=spawn_helpers.tiny_protocol,
            instance_fn=spawn_helpers.failing_instance,
            metrics=None,
            error=RuntimeError,
            message=f"generator broke at n={GRID[0][0]}",
        ),
        "protocol": dict(
            protocol=spawn_helpers.failing_protocol,
            instance_fn=spawn_helpers.tiny_instance,
            metrics=None,
            error=KeyError,
            message=None,  # set from the first spec's seed
        ),
        "metrics": dict(
            protocol=spawn_helpers.tiny_protocol,
            instance_fn=spawn_helpers.tiny_instance,
            metrics=spawn_helpers.failing_metrics,
            error=ValueError,
            message="metrics hook broke at point 0",
        ),
    }

    @pytest.mark.parametrize("name", ["serial", "fork-2", "spawn-2",
                                      "forkserver-2"])
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_first_failure_escapes_unchanged(self, site, name):
        case = self.SITES[site]
        specs = grid_specs()
        expected = case["message"] or f"protocol broke at seed {specs[0].seed}"
        with pytest.raises(case["error"]) as excinfo:
            run_trials(case["protocol"], case["instance_fn"], specs,
                       executor=EXECUTORS[name](), metrics=case["metrics"])
        assert excinfo.type is case["error"]
        assert excinfo.value.args == (expected,)

    @pytest.mark.parametrize("name", ["serial", "fork-2", "fork-3",
                                      "spawn-2"])
    def test_failure_at_a_later_point_escapes(self, name):
        specs = grid_specs()
        failing = next(s for s in specs
                       if s.n == spawn_helpers.LATE_FAILURE_N)
        with pytest.raises(ZeroDivisionError) as excinfo:
            run_trials(spawn_helpers.late_failing_protocol,
                       spawn_helpers.tiny_instance, specs,
                       executor=EXECUTORS[name]())
        assert excinfo.value.args == (f"late failure at seed {failing.seed}",)

    def test_serial_stops_at_the_first_failure(self):
        calls = []

        def protocol(instance, seed):
            calls.append(instance[0])
            if len(calls) == TRIALS + 1:
                raise OSError("second point, first trial")
            return spawn_helpers.tiny_protocol(instance, seed)

        with pytest.raises(OSError):
            run_trials(protocol, spawn_helpers.tiny_instance, grid_specs(),
                       executor=SerialExecutor())
        # Point 0 ran in full, point 1 stopped at its first trial, and
        # no later point started.
        assert calls == [GRID[0][0]] * TRIALS + [GRID[1][0]]

    def test_run_batch_raises_on_the_failing_trial(self):
        task = TrialTask(spawn_helpers.tiny_instance,
                         spawn_helpers.late_failing_protocol)
        batches = batch_specs(grid_specs())
        assert len(task.run_batch(batches[0])) == TRIALS
        with pytest.raises(ZeroDivisionError):
            task.run_batch(batches[2])

    @pytest.mark.parametrize("name", ["serial", "fork-2"])
    def test_run_sweep_fails_fast(self, name):
        with pytest.raises(KeyError):
            run_sweep(spawn_helpers.failing_protocol,
                      spawn_helpers.tiny_instance, GRID, trials=2, seed=5,
                      executor=EXECUTORS[name]())

    @pytest.mark.parametrize("name", ["serial", "fork-2"])
    def test_driver_usable_after_a_failed_run(self, name):
        """A failed run leaves no task parked in the shared slot, so the
        next run parallelises (and matches serial) as usual."""
        with pytest.raises(KeyError):
            run_trials(spawn_helpers.failing_protocol,
                       spawn_helpers.tiny_instance, grid_specs(),
                       executor=EXECUTORS[name]())
        assert executor_module._ACTIVE_TASK is None
        records = run_trials(spawn_helpers.tiny_protocol,
                             spawn_helpers.tiny_instance, grid_specs(),
                             executor=EXECUTORS[name]())
        assert records == oracle(grid_specs())


# ----------------------------------------------------------------------
class TestPoolReaped:
    """No pool worker outlives ``run_batches`` — a caller reading the
    children's peak RSS (``RUSAGE_CHILDREN``) sees every one of them."""

    @pytest.mark.parametrize("method", POOL_METHODS)
    def test_reaped_after_a_failed_run(self, method):
        with pytest.raises(KeyError):
            run_trials(
                spawn_helpers.failing_protocol, spawn_helpers.tiny_instance,
                grid_specs(),
                executor=ParallelExecutor(workers=2, start_method=method),
            )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method", POOL_METHODS)
    def test_reaped_after_run_batches_returns(self, method):
        task = TrialTask(spawn_helpers.tiny_instance,
                         spawn_helpers.tiny_protocol)
        batches = batch_specs(grid_specs())
        records = ParallelExecutor(
            workers=2, start_method=method
        ).run_batches(task, batches)
        assert multiprocessing.active_children() == []
        assert records == oracle(grid_specs())

    def test_pool_shut_down_with_wait(self, monkeypatch):
        calls = []
        real = executor_module._PoolExecutor

        class RecordingPool(real):
            def shutdown(self, wait=True, **kwargs):
                calls.append((wait, kwargs.get("cancel_futures")))
                return super().shutdown(wait=wait, **kwargs)

        monkeypatch.setattr(executor_module, "_PoolExecutor", RecordingPool)
        run_trials(spawn_helpers.tiny_protocol, spawn_helpers.tiny_instance,
                   grid_specs(), executor=EXECUTORS["fork-2"]())
        assert calls[0] == (True, True)


# ----------------------------------------------------------------------
class InlinePool:
    """A stand-in for the process pool: records each submitted batch's
    point index and runs the batch inline, in the driver."""

    submitted: list[int] = []

    def __init__(self, max_workers, mp_context, **kwargs):
        type(self).submitted = []

    def submit(self, fn, batch):
        type(self).submitted.append(batch.point_index)
        future = Future()
        future.set_result(fn(batch))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def batch_work(batch):
    """``n·d·k·trials`` of one grid point's batch."""
    spec = batch.specs[0]
    return spec.n * spec.d * spec.k * len(batch.specs)


class TestLargestFirst:
    """The pool submits batches largest first and collects them in
    batch order, so only which worker runs which batch changes."""

    @pytest.fixture
    def inline_pool(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_PoolExecutor", InlinePool)
        return InlinePool

    def submitted_for(self, specs, pool):
        task = TrialTask(spawn_helpers.tiny_instance,
                         spawn_helpers.tiny_protocol)
        batches = batch_specs(specs)
        records = ParallelExecutor(
            workers=2, start_method="fork"
        ).run_batches(task, batches)
        assert records == oracle([s for b in batches for s in b.specs])
        return batches, pool.submitted

    def test_submitted_in_descending_work_order(self, inline_pool):
        # The ascending grid, but the largest point keeps one trial of
        # three, so it ranks below the second largest.
        specs = [s for s in grid_specs()
                 if s.point_index != 3 or s.trial_index == 0]
        batches, submitted = self.submitted_for(specs, inline_pool)
        assert submitted == [2, 3, 1, 0]
        works = {b.point_index: batch_work(b) for b in batches}
        assert [works[p] for p in submitted] == sorted(works.values(),
                                                       reverse=True)

    def test_ties_keep_batch_order(self, inline_pool):
        grid = [(10, 2.0, 2), (20, 1.0, 2), (40, 5.0, 3), (5, 4.0, 2)]
        specs = build_specs(grid, trials=TRIALS, sweep_seed=SWEEP_SEED)
        _, submitted = self.submitted_for(specs, inline_pool)
        assert submitted == [2, 0, 1, 3]

    def test_records_pickle_as_serial_on_an_ascending_grid(self,
                                                           inline_pool):
        serial = run_sweep(spawn_helpers.tiny_protocol,
                           spawn_helpers.tiny_instance, GRID, trials=TRIALS,
                           seed=SWEEP_SEED, executor=SerialExecutor())
        pooled = run_sweep(spawn_helpers.tiny_protocol,
                           spawn_helpers.tiny_instance, GRID, trials=TRIALS,
                           seed=SWEEP_SEED, executor=EXECUTORS["fork-2"]())
        assert inline_pool.submitted == [3, 2, 1, 0]
        assert pooled.points == serial.points
        assert pickle.dumps(pooled.records) == pickle.dumps(serial.records)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("where", ["smallest", "largest"])
    def test_failing_batch_escapes_and_pool_is_reaped(self, where, workers):
        """The smallest batch is submitted last, the largest first;
        either one's own exception escapes, and no worker outlives the
        call."""
        failing_n = GRID[0][0] if where == "smallest" else GRID[-1][0]

        def protocol(instance, seed):  # fork workers inherit closures
            if instance[0] == failing_n:
                raise ZeroDivisionError(f"n={failing_n} broke at seed {seed}")
            return spawn_helpers.tiny_protocol(instance, seed)

        task = TrialTask(spawn_helpers.tiny_instance, protocol)
        batches = batch_specs(grid_specs())
        first = next(s for s in grid_specs() if s.n == failing_n)
        with pytest.raises(ZeroDivisionError) as excinfo:
            ParallelExecutor(
                workers=workers, start_method="fork"
            ).run_batches(task, batches)
        assert excinfo.type is ZeroDivisionError
        assert excinfo.value.args == (
            f"n={failing_n} broke at seed {first.seed}",
        )
        assert multiprocessing.active_children() == []
        assert executor_module._ACTIVE_TASK is None


# ----------------------------------------------------------------------
class TestSerialFallbacks:
    """Nothing to parallelise: the pool is never built, records agree."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a serial fallback must not build a pool")

        monkeypatch.setattr(executor_module, "_PoolExecutor", refuse)

    def test_one_worker_runs_in_process(self, no_pool):
        records = run_trials(
            spawn_helpers.tiny_protocol, spawn_helpers.tiny_instance,
            grid_specs(),
            executor=ParallelExecutor(workers=1, start_method="fork"),
        )
        assert records == oracle(grid_specs())

    def test_one_batch_runs_in_process(self, no_pool):
        specs = reordered(grid_specs(), "one-point")
        records = run_trials(
            spawn_helpers.tiny_protocol, spawn_helpers.tiny_instance, specs,
            executor=ParallelExecutor(workers=4, start_method="fork"),
        )
        assert records == oracle(specs)

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_unpicklable_task_runs_in_process(self, no_pool, caplog,
                                              method):
        def closure_protocol(instance, seed):  # a closure: no pickle
            return spawn_helpers.tiny_protocol(instance, seed)

        with caplog.at_level("WARNING", logger="repro.runtime.executor"):
            records = run_trials(
                closure_protocol, spawn_helpers.tiny_instance, grid_specs(),
                executor=ParallelExecutor(workers=2, start_method=method),
            )
        assert records == oracle(grid_specs())
        assert any("does not pickle" in r.message
                   and "closure_protocol" in r.message
                   for r in caplog.records)

    def test_reentry_from_a_worker_runs_serially(self):
        """A protocol that itself runs a parallel sweep: inside a fork
        worker the task slot is taken, so the inner run goes serial and
        its records still match the oracle."""
        inner_specs = build_specs(GRID[:2], trials=2, sweep_seed=3)

        def nested_protocol(instance, seed):
            inner = run_trials(
                spawn_helpers.tiny_protocol, spawn_helpers.tiny_instance,
                inner_specs,
                executor=ParallelExecutor(workers=2, start_method="fork"),
            )
            assert inner == oracle(inner_specs)
            return spawn_helpers.TinyOutcome(
                float(sum(r.bits for r in inner) + seed % 3), True
            )

        specs = grid_specs()
        pooled = run_trials(nested_protocol, spawn_helpers.tiny_instance,
                            specs, executor=EXECUTORS["fork-2"]())
        serial = run_trials(nested_protocol, spawn_helpers.tiny_instance,
                            specs, executor=SerialExecutor())
        assert pickle.dumps(pooled) == pickle.dumps(serial)


# ----------------------------------------------------------------------
class TestDealAndRebind:
    """Unit tests of the two helpers that make pooled records match."""

    def flat(self, specs):
        batches = batch_specs(specs)
        task = TrialTask(spawn_helpers.tiny_instance,
                         spawn_helpers.tiny_protocol)
        return batches, SerialExecutor().run_batches(task, batches)

    @pytest.mark.parametrize("order", [
        "point-major", "interleaved", "reversed", "one-point",
    ])
    def test_deal_restores_input_order(self, order):
        specs = reordered(grid_specs(), order)
        batches, flat = self.flat(specs)
        dealt = executor_module._deal_batches(batches, flat, specs)
        assert dealt == oracle(specs)

    def test_deal_is_a_no_op_for_point_major_specs(self):
        specs = grid_specs()
        batches, flat = self.flat(specs)
        assert executor_module._deal_batches(batches, flat, specs) == flat

    def test_deal_single_batch_returns_the_same_list(self):
        specs = reordered(grid_specs(), "one-point")
        batches, flat = self.flat(specs)
        assert executor_module._deal_batches(batches, flat, specs) is flat

    def test_rebind_keeps_the_record_and_adopts_spec_objects(self):
        spec = grid_specs()[4]
        copy = pickle.loads(pickle.dumps(spec))
        made_elsewhere = TrialResult.from_outcome(copy, bits=3.0, found=True)
        rebound = executor_module._rebind_coordinates(spec, made_elsewhere)
        assert rebound == made_elsewhere
        assert rebound.d is spec.d
        assert rebound.seed is spec.seed

    def test_rebind_makes_pickles_match_the_driver_records(self):
        """Within a point the specs share one ``d`` object; records
        unpickled from a worker do not, until they are rebound."""
        specs = grid_specs()[:TRIALS]
        driver = [TrialResult.from_outcome(s, bits=1.0, found=False)
                  for s in specs]
        shipped = pickle.loads(pickle.dumps(
            [TrialResult.from_outcome(s, bits=1.0, found=False)
             for s in pickle.loads(pickle.dumps(specs))]
        ))
        rebound = [executor_module._rebind_coordinates(s, r)
                   for s, r in zip(specs, shipped)]
        assert pickle.dumps(rebound) == pickle.dumps(driver)

    def test_batches_cover_every_spec_once(self):
        specs = reordered(grid_specs(), "interleaved")
        batches = batch_specs(specs)
        assert all(isinstance(b, TrialBatch) for b in batches)
        assert [b.point_index for b in batches] == list(range(len(GRID)))
        grouped = [s for b in batches for s in b.specs]
        assert len(grouped) == len(specs)
        assert set(grouped) == set(specs)
        assert all(s.point_index == b.point_index
                   for b in batches for s in b.specs)


# ----------------------------------------------------------------------
class TestMetricsAcrossWorkers:
    """Worker-side counts come home exactly once, on every start method."""

    @pytest.mark.parametrize("name", ["serial", "fork-2", "spawn-2"])
    def test_counts_absorbed_once(self, name):
        specs = grid_specs()
        registry = MetricsRegistry()
        with use_metrics(registry):
            records = run_trials(spawn_helpers.counting_protocol,
                                 spawn_helpers.tiny_instance, specs,
                                 executor=EXECUTORS[name]())
        assert registry.counters["helper.protocol_calls"] == len(specs)
        assert registry.counters["trial.ok"] == len(specs)
        assert records == oracle(specs)

    def test_no_counts_without_a_registry(self):
        records = run_trials(spawn_helpers.counting_protocol,
                             spawn_helpers.tiny_instance, grid_specs(),
                             executor=EXECUTORS["fork-2"]())
        assert records == oracle(grid_specs())


# ----------------------------------------------------------------------
class TestSweepIdentity:
    @pytest.mark.parametrize("name", ["fork-2", "spawn-2"])
    def test_run_sweep_points_and_records_match_serial(self, name):
        serial = run_sweep(spawn_helpers.tiny_protocol,
                           spawn_helpers.tiny_instance, GRID, trials=TRIALS,
                           seed=SWEEP_SEED, executor=SerialExecutor())
        pooled = run_sweep(spawn_helpers.tiny_protocol,
                           spawn_helpers.tiny_instance, GRID, trials=TRIALS,
                           seed=SWEEP_SEED, executor=EXECUTORS[name]())
        assert pooled.points == serial.points
        assert pickle.dumps(pooled.records) == pickle.dumps(serial.records)

    def test_every_point_holds_all_its_trials(self):
        sweep = run_sweep(spawn_helpers.tiny_protocol,
                          spawn_helpers.tiny_instance, GRID, trials=TRIALS,
                          seed=SWEEP_SEED, workers=1)
        assert [p.trials for p in sweep.points] == [TRIALS] * len(GRID)
        assert not hasattr(sweep.points[0], "errors")


# ----------------------------------------------------------------------
class TestExecutorChoice:
    def test_default_executor_serial_for_one_worker(self):
        assert isinstance(default_executor(1), SerialExecutor)

    def test_default_executor_pool_for_two(self):
        chosen = default_executor(2)
        assert isinstance(chosen, ParallelExecutor)
        assert chosen.workers == 2

    def test_default_executor_follows_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        chosen = default_executor()
        assert isinstance(chosen, ParallelExecutor)
        assert chosen.workers == 3

    def test_start_method_defaults_to_fork_where_offered(self):
        expected = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                    else "spawn")
        assert ParallelExecutor(workers=2).start_method == expected

    def test_start_method_pinned(self):
        for method in POOL_METHODS:
            assert ParallelExecutor(
                workers=2, start_method=method
            ).start_method == method

    def test_start_method_env_knob_is_gone(self, monkeypatch):
        """Only ``start_method=`` picks the method; the environment does
        not."""
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert ParallelExecutor(workers=2).start_method == (
            ParallelExecutor(workers=2, start_method=None).start_method
        )
        monkeypatch.setenv("REPRO_START_METHOD", "bogus")
        ParallelExecutor(workers=2)  # no validation of an unused knob

    def test_serial_executor_is_the_base_loop(self):
        assert SerialExecutor.run_batches is Executor.run_batches

    def test_shared_cache_serial_is_memory_only(self):
        with shared_cache(workers=1) as cache:
            assert type(cache) is InstanceCache
            cache.get_or_build(("k",), lambda: 1)
            assert cache.get_or_build(("k",), pytest.fail) == 1
            assert cache.stats()["hits"] == 1 and len(cache) == 1

    def test_shared_cache_parallel_is_memory_only(self, tmp_path,
                                                  monkeypatch):
        """A parallel run's cache makes no temporary directory and
        leaves no file behind."""
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        with shared_cache(workers=2) as cache:
            assert type(cache) is InstanceCache
            cache.get_or_build(("k",), lambda: 1)
            assert list(tmp_path.iterdir()) == []
        assert list(tmp_path.iterdir()) == []

    def test_shared_cache_gauges_the_cache_on_exit(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            with shared_cache(workers=1) as cache:
                cache.get_or_build(("a",), lambda: 1)
                cache.get_or_build(("b",), lambda: 2)
                assert "cache.entries" not in registry.snapshot()["gauges"]
        gauges = registry.snapshot()["gauges"]
        assert gauges["cache.entries"] == 2
        assert gauges["cache.instance_bytes"] == 0


# ----------------------------------------------------------------------
class TestRemovedKnobs:
    """The supervisor's options are gone, not silently ignored."""

    @pytest.mark.parametrize("knob", [
        "retry", "journal", "resume", "fault_plan",
    ])
    def test_run_trials_rejects_supervisor_knob(self, knob):
        with pytest.raises(TypeError, match=knob):
            run_trials(spawn_helpers.tiny_protocol,
                       spawn_helpers.tiny_instance, grid_specs(),
                       workers=1, **{knob: None})

    @pytest.mark.parametrize("knob", ["retry", "journal", "resume"])
    def test_run_sweep_rejects_supervisor_knob(self, knob):
        with pytest.raises(TypeError, match=knob):
            run_sweep(spawn_helpers.tiny_protocol,
                      spawn_helpers.tiny_instance, GRID, trials=1,
                      workers=1, **{knob: None})

    def test_trial_task_rejects_fault_plan(self):
        with pytest.raises(TypeError, match="fault_plan"):
            TrialTask(spawn_helpers.tiny_instance,
                      spawn_helpers.tiny_protocol, fault_plan=None)

    @pytest.mark.parametrize("knob", ["attempt", "capture"])
    def test_run_batch_rejects_supervisor_knob(self, knob):
        task = TrialTask(spawn_helpers.tiny_instance,
                         spawn_helpers.tiny_protocol)
        batch = batch_specs(grid_specs())[0]
        with pytest.raises(TypeError, match=knob):
            task.run_batch(batch, **{knob: 1})

    @pytest.mark.parametrize("flag", ["--journal-dir", "--resume"])
    def test_cli_rejects_journal_flags(self, flag, capsys):
        from repro.analysis.__main__ import main

        argv = [flag, "x"] if flag == "--journal-dir" else [flag]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
