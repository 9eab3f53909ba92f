"""Trial execution: one batched, fail-fast loop, in-process or pooled.

The unit of work is a :class:`~repro.runtime.spec.TrialBatch` — every
trial of one grid point.  :meth:`TrialTask.run_batch` builds (or
cache-fetches) each distinct instance once per batch, builds the
trials' coin streams in one batched construction, and runs the trials
against them.  A batch holds each instance until its last reader: once
the last trial whose spec maps to an instance has run, the instance
leaves the batch-local map and its partition releases its players
(:func:`~repro.comm.players.make_players`), so a batch of per-trial
instance seeds holds one instance at a time, and a partition kept in
the instance cache holds only its key arrays between batches.
:meth:`TrialTask.__call__` runs one spec on its own, sharing nothing;
it is the per-trial oracle the batched records are tested against.

:func:`run_trials` groups specs into batches, runs them through an
executor's ``run_batches``, and deals the results back out in input
spec order.  Parallelism changes wall-clock only, never records — each
trial's randomness is fully determined by its spec's derived seed, so
there is no shared RNG state to race on.

``Executor.run_batches`` runs batches in-process, one after another.
``ParallelExecutor.run_batches`` shards whole batches over a
``ProcessPoolExecutor`` (so instance reuse never crosses a process
boundary) and supports every start method:

* **fork** (the fast path where available): protocol and instance
  callables are typically closures (every Table 1 row builds them
  inline), which do not pickle; instead of pickling them per call, the
  active task is parked in a module global immediately before the pool
  forks, so workers inherit it through copy-on-write and only the small
  ``TrialBatch`` / ``TrialResult`` dataclasses ever cross the pipe.
* **spawn / forkserver** (Windows, macOS, and Python 3.14's default):
  the task is pickled *once* and shipped to each worker through the
  pool initializer, which parks it in the same module global — the
  per-batch traffic is identical to the fork path.  Tasks that do not
  pickle (closure-built) fall back to serial execution transparently;
  module-level callables (and the picklable callables in
  :mod:`repro.analysis.experiments`) parallelise everywhere.

Both loops fail fast: each batch runs once, and the first trial
exception propagates unchanged (a worker's exception is re-raised in
the driver with its own type and message).  A Table 1 regeneration
takes seconds, so a failed run is simply run again.
"""

from __future__ import annotations

import contextlib
import inspect
import logging
import multiprocessing
import os
import pickle
import tempfile
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor as _PoolExecutor
from dataclasses import replace
from typing import Callable, Iterable, Iterator, Sequence

from repro.comm.randomness import SharedRandomness
from repro.graphs.partition import EdgePartition
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.cache import InstanceCache
from repro.runtime.spec import TrialBatch, TrialResult, TrialSpec, batch_specs

__all__ = [
    "TrialTask",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "resolve_workers",
    "default_executor",
    "run_trials",
    "shared_cache",
]

_LOGGER = logging.getLogger(__name__)

#: Any callable mapping an ``EdgePartition``-like instance and a seed to an
#: object exposing ``total_bits`` and ``found`` (e.g. ``DetectionResult``).
ProtocolFn = Callable[..., object]
InstanceFn = Callable[[int, float, int], object]
MetricsFn = Callable[[TrialSpec, object, object], dict]


class TrialTask:
    """Executes specs: build (or fetch) the instance, run the protocol.

    Parameters
    ----------
    instance_fn:
        ``(n, d, seed) -> instance``; must close over anything else it
        needs (epsilon, ...), mirroring the historical ``run_sweep``
        contract.  A builder that declares a ``k`` keyword parameter is
        instead called ``(n, d, seed, k=spec.k)`` so one builder can
        serve k-sweeps.
    protocol:
        ``(instance, seed) -> outcome`` where the outcome exposes
        ``total_bits`` and ``found``.
    cache / instance_key:
        When both are given, instances are memoised under
        ``(instance_key, n, d, k, seed)`` so other tasks with the same
        key reuse them; pick one key per instance *construction*.
    metrics:
        Optional ``(spec, instance, outcome) -> dict`` hook whose result
        lands in ``TrialResult.extras`` (picklable primitives only).
    """

    def __init__(self, instance_fn: InstanceFn, protocol: ProtocolFn, *,
                 cache: InstanceCache | None = None,
                 instance_key: str | None = None,
                 metrics: MetricsFn | None = None) -> None:
        self.instance_fn = instance_fn
        self.protocol = protocol
        self.cache = cache
        self.instance_key = instance_key
        self.metrics = metrics
        try:
            parameters = inspect.signature(instance_fn).parameters
            self._pass_k = "k" in parameters
        except (TypeError, ValueError):  # builtins / C callables
            self._pass_k = False
        try:
            parameters = inspect.signature(protocol).parameters
            self._pass_shared = "shared" in parameters
        except (TypeError, ValueError):  # builtins / C callables
            self._pass_shared = False

    def cache_key(self, spec: TrialSpec) -> tuple:
        return (
            self.instance_key, spec.n, spec.d, spec.k,
            spec.effective_instance_seed,
        )

    def _build(self, spec: TrialSpec) -> object:
        seed = spec.effective_instance_seed
        if self._pass_k:
            return self.instance_fn(spec.n, spec.d, seed, k=spec.k)
        return self.instance_fn(spec.n, spec.d, seed)

    def build_instance(self, spec: TrialSpec) -> object:
        if self.cache is not None and self.instance_key is not None:
            return self.cache.get_or_build(
                self.cache_key(spec), lambda: self._build(spec)
            )
        return self._build(spec)

    def _run_one(self, spec: TrialSpec,
                 stream: SharedRandomness | None,
                 local: dict[tuple, object]) -> TrialResult:
        """One trial against a batch-local instance map — the shared core
        of :meth:`run_batch` and the per-trial oracle."""
        with obs_trace.span("trial", point=spec.point_index,
                            trial=spec.trial_index, n=spec.n):
            key = self.cache_key(spec)
            try:
                instance = local[key]
            except KeyError:
                with obs_trace.span("build"):
                    instance = local[key] = self.build_instance(spec)
            with obs_trace.span("protocol"):
                if stream is not None:
                    outcome = self.protocol(instance, spec.seed, shared=stream)
                else:
                    outcome = self.protocol(instance, spec.seed)
        return TrialResult.from_outcome(
            spec,
            bits=outcome.total_bits,
            found=outcome.found,
            extras=(
                self.metrics(spec, instance, outcome)
                if self.metrics is not None else None
            ),
        )

    @contextlib.contextmanager
    def _instances(self) -> Iterator[dict[tuple, object]]:
        """A batch-local instance map.  :meth:`run_batch` pops each
        instance after its last reader; on exit, normal or by a trial's
        exception, every partition still in the map releases its
        players: player state is scratch for the batch's protocol runs,
        and a cached partition must not pin it."""
        local: dict[tuple, object] = {}
        try:
            yield local
        finally:
            for instance in local.values():
                _release_players(instance)

    def _batch_streams(self, batch: TrialBatch
                       ) -> Sequence[SharedRandomness | None]:
        if self._pass_shared:
            return SharedRandomness.batch([spec.seed for spec in batch.specs])
        return [None] * len(batch.specs)

    def __call__(self, spec: TrialSpec) -> TrialResult:
        """Run one spec on its own: a fresh instance and the protocol's
        own coin stream.  The per-trial oracle that :meth:`run_batch`
        must match record for record; the instance's players are
        released when it returns, as at the end of a batch."""
        with self._instances() as local:
            return self._run_one(spec, None, local)

    def run_batch(self, batch: TrialBatch) -> list[TrialResult]:
        """Run one grid point's trials against batch-local instances.

        Each distinct instance key is built (or cache-fetched) exactly
        once for the whole batch and held until its last reader: the
        batch counts each key's specs, and after the trial of the last
        one the instance leaves the batch-local map and its players are
        released.  With per-trial instance seeds every key has one
        reader, so the batch holds one instance at a time (plus whatever
        the cache keeps); with ``shared_instances=True`` every trial
        reads one instance, held, with one player list, for the whole
        batch.  Protocols that declare a ``shared`` keyword receive
        their coin stream from one batched
        :meth:`~repro.comm.randomness.SharedRandomness.batch`
        construction — draw-for-draw identical to the stream they would
        build internally from the spec seed, so outcomes are unchanged.
        The first exception propagates, after :meth:`_instances`
        releases the players of every instance still held.
        """
        with obs_trace.span("batch", point=batch.point_index,
                            trials=len(batch.specs)):
            with obs_trace.span("streams"):
                streams = self._batch_streams(batch)
            keys = [self.cache_key(spec) for spec in batch.specs]
            readers = Counter(keys)
            results: list[TrialResult] = []
            with self._instances() as local:
                for spec, stream, key in zip(batch.specs, streams, keys):
                    results.append(self._run_one(spec, stream, local))
                    readers[key] -= 1
                    if not readers[key]:
                        _release_players(local.pop(key))
            return results


def _release_players(instance: object) -> None:
    """End a partition's player state; other instances hold none."""
    if isinstance(instance, EdgePartition):
        instance.release_players()


def resolve_workers(workers: int | None = None) -> int:
    """Worker-count policy: explicit arg > ``REPRO_WORKERS`` env > serial.

    Zero or negative means "all cores".
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def _rebind_coordinates(spec: TrialSpec, result: TrialResult) -> TrialResult:
    """Rebuild a record made elsewhere on the driver's own spec objects.

    Exactly what a driver-side ``TrialResult.from_outcome`` call would
    reference: within a grid point the specs share coordinate objects
    (one ``d`` float per point), so the pickled byte stream of the final
    record *list* matches serial execution no matter which pool worker
    produced which record.
    """
    return replace(
        result,
        point_index=spec.point_index, trial_index=spec.trial_index,
        n=spec.n, d=spec.d, k=spec.k, seed=spec.seed,
    )


class Executor:
    """Runs batches of trials; subclasses choose how, never what."""

    def run_batches(self, task: TrialTask,
                    batches: Iterable[TrialBatch]) -> list[TrialResult]:
        """Execute per-point batches in-process, one after another,
        returning results in batch order.  :class:`ParallelExecutor`
        overrides this with the pool loop, which falls back to it."""
        results: list[TrialResult] = []
        for batch in batches:
            results.extend(task.run_batch(batch))
        return results


class SerialExecutor(Executor):
    """In-process execution — the reference the parallel path must match."""


# The task a ParallelExecutor is currently running.  Fork workers
# inherit it via copy-on-write; spawn workers receive it pickled through
# the pool initializer below.
_ACTIVE_TASK: TrialTask | None = None


def _run_batch_in_worker(batch: TrialBatch
                         ) -> tuple[list[TrialResult], dict | None]:
    """The pool's one entry point: a batch in, ``(results,
    metrics_snapshot)`` out.

    The snapshot is the worker registry's delta since its last shipment
    (``None`` when metrics are off, so the common case adds two bytes of
    pickle); the driver folds it into its own registry as the results
    come home — see :mod:`repro.obs.metrics`.
    """
    if _ACTIVE_TASK is None:
        raise RuntimeError("no active task in worker; pool misconfigured")
    obs_metrics.worker_sync()
    results = _ACTIVE_TASK.run_batch(batch)
    return results, obs_metrics.ship()


def _install_pickled_task(payload: bytes) -> None:
    """Spawn-worker initializer: unpickle the task into the shared slot.

    A spawned worker imports everything fresh, so unlike a fork worker
    it does not inherit the driver's metrics registry; when the driver
    had one, install a fresh registry here so the worker's counts are
    collected and shipped home all the same.
    """
    global _ACTIVE_TASK
    _ACTIVE_TASK, metrics_on = pickle.loads(payload)
    if metrics_on and obs_metrics.get_metrics() is None:
        obs_metrics.set_metrics(obs_metrics.MetricsRegistry())


def _task_name(task: TrialTask) -> str:
    """A human-readable task identity for the serial-fallback warning."""

    def name(fn: object) -> str:
        return getattr(fn, "__qualname__", None) or repr(fn)

    return (
        f"TrialTask(protocol={name(task.protocol)}, "
        f"instance_fn={name(task.instance_fn)})"
    )


def _pool_kwargs(task: TrialTask, method: str) -> dict | None:
    """How ``task`` reaches the workers of a ``method`` pool.

    Fork workers inherit it (no extra pool arguments).  Spawned workers
    import this module fresh, so the task (plus whether metrics are on)
    is pickled once and shipped through the initializer.  ``None``
    means it cannot travel — a closure-built task under spawn — and the
    caller runs serially instead.
    """
    if method == "fork":
        return {}
    try:
        payload = pickle.dumps((task, obs_metrics.get_metrics() is not None))
    except Exception as error:
        _LOGGER.warning(
            "%s does not pickle under start method %r (%s); "
            "falling back to serial execution — records are "
            "identical but parallelism is disabled for this run",
            _task_name(task), method, error,
        )
        return None
    return {"initializer": _install_pickled_task, "initargs": (payload,)}


class ParallelExecutor(Executor):
    """Fan batches out over a process pool, one grid point per task.

    ``workers=None`` means all cores.  ``start_method=None`` picks
    ``fork`` where the platform offers it and ``spawn`` otherwise
    (Windows, macOS defaults, Python 3.14+); passing ``"fork"`` /
    ``"spawn"`` / ``"forkserver"`` pins it.  Falls back to serial
    execution when there is nothing to parallelise (one worker, one
    batch), when re-entered from within another parallel run (the shared
    task slot is single-occupancy), or when a spawn-method pool is asked
    to run a task that does not pickle.
    """

    def __init__(self, workers: int | None = None, *,
                 start_method: str | None = None) -> None:
        self.workers = (
            resolve_workers(workers) if workers is not None
            else (os.cpu_count() or 1)
        )
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in available else "spawn"
        elif start_method not in available:
            raise ValueError(
                f"start method {start_method!r} not available here "
                f"(choose from {available})"
            )
        self.start_method = start_method

    def run_batches(self, task: TrialTask,
                    batches: Iterable[TrialBatch]) -> list[TrialResult]:
        """The pool loop: submit every batch once, collect the results
        in batch order, fold the workers' shipped metrics into the
        driver's registry, and rebind each record to the driver's specs.

        The first failure propagates once the batches already running
        finish; batches not yet started are cancelled.  Either way the
        workers are reaped (``shutdown(wait=True)``) before returning,
        so no worker outlives the call and a caller reading the
        children's peak RSS sees them all.
        """
        global _ACTIVE_TASK
        batch_list = list(batches)
        workers = min(self.workers, len(batch_list))
        pool_kwargs = None
        if workers > 1 and _ACTIVE_TASK is None:
            pool_kwargs = _pool_kwargs(task, self.start_method)
        if pool_kwargs is None:
            return super().run_batches(task, batch_list)
        _ACTIVE_TASK = task
        pool = _PoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(self.start_method),
            **pool_kwargs,
        )
        try:
            futures = [
                pool.submit(_run_batch_in_worker, batch)
                for batch in batch_list
            ]
            results: list[TrialResult] = []
            for batch, future in zip(batch_list, futures):
                outcome, shipped = future.result()
                obs_metrics.absorb(shipped)
                results.extend(
                    _rebind_coordinates(spec, result)
                    for spec, result in zip(batch.specs, outcome)
                )
        finally:
            _ACTIVE_TASK = None
            pool.shutdown(wait=True, cancel_futures=True)
        return results


@contextlib.contextmanager
def shared_cache(workers: int | None = None,
                 max_entries: int = 128) -> Iterator[InstanceCache]:
    """Yield an :class:`InstanceCache` matched to the execution mode.

    Serial runs get a memory-only cache (same-process reuse suffices).
    Parallel runs add a temporary disk tier: instances a worker builds
    die with the worker, so only the disk tier lets the workers of a
    *later* sweep reuse what an earlier sweep generated.  The directory
    is removed when the context exits.
    """
    if resolve_workers(workers) <= 1:
        yield InstanceCache(max_entries=max_entries)
        return
    with tempfile.TemporaryDirectory(prefix="repro-instance-cache-") as tmp:
        yield InstanceCache(max_entries=max_entries, disk_dir=tmp)


def default_executor(workers: int | None = None) -> Executor:
    """Serial for one worker, parallel otherwise (after env resolution)."""
    count = resolve_workers(workers)
    return SerialExecutor() if count <= 1 else ParallelExecutor(count)


def _deal_batches(batches: Sequence[TrialBatch],
                  flat: list[TrialResult],
                  spec_list: Sequence[TrialSpec]) -> list[TrialResult]:
    """Deal batch-grouped results back out in input spec order (a no-op
    for the usual point-major spec lists)."""
    if len(batches) <= 1:
        return flat
    queues: dict[int, deque[TrialResult]] = {}
    position = 0
    for group in batches:
        queues[group.point_index] = deque(
            flat[position:position + len(group.specs)]
        )
        position += len(group.specs)
    return [queues[spec.point_index].popleft() for spec in spec_list]


def run_trials(protocol: ProtocolFn, instance_fn: InstanceFn,
               specs: Sequence[TrialSpec], *,
               workers: int | None = None,
               executor: Executor | None = None,
               cache: InstanceCache | None = None,
               instance_key: str | None = None,
               metrics: MetricsFn | None = None) -> list[TrialResult]:
    """Run every spec, one batch per grid point; results in spec order.

    The callables are wrapped in a :class:`TrialTask`, the specs are
    grouped into per-point :class:`~repro.runtime.spec.TrialBatch`
    units (instances built once per batch, coins from one batched
    construction), and the batches run on ``executor`` (default: serial
    or a pool by ``workers=`` / ``REPRO_WORKERS``).  Records equal the
    per-trial oracle :meth:`TrialTask.__call__`, in input spec order.
    The first trial exception propagates unchanged.
    """
    task = TrialTask(instance_fn, protocol, cache=cache,
                     instance_key=instance_key, metrics=metrics)
    chosen = executor if executor is not None else default_executor(workers)
    spec_list = list(specs)
    with obs_trace.span("run_trials", specs=len(spec_list)):
        batches = batch_specs(spec_list)
        results = _deal_batches(
            batches, chosen.run_batches(task, batches), spec_list
        )
    if results:
        obs_metrics.inc("trial.ok", len(results))
    return results
