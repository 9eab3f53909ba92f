"""Trial execution: one batched, supervised loop, in-process or pooled.

The unit of work is a :class:`~repro.runtime.spec.TrialBatch` — every
trial of one grid point.  :meth:`TrialTask.run_batch` builds (or
cache-fetches) each distinct instance once per batch, builds the
trials' coin streams in one batched construction, and runs the trials
against them.  :meth:`TrialTask.__call__` runs one spec on its own,
sharing nothing; it is the per-trial oracle the batched records are
tested against.

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

Both loops are supervised by a :class:`RetryPolicy`.  Without one —
``run_trials`` given none of ``retry=``, ``journal=``, ``resume=``,
``fault_plan=`` — the loop fails fast: one attempt, no watchdog, and
the first trial exception propagates unchanged.  With one, each batch
gets:

* **error capture** — a trial that raises becomes a ``status="error"``
  :class:`TrialResult` instead of killing the sweep;
* a **wall-clock watchdog** (``RetryPolicy.timeout``) per attempt — a
  hung batch times out instead of stalling the sweep forever (in
  parallel mode the hung worker's pool is killed and rebuilt, because a
  running pool worker cannot be cancelled);
* **bounded deterministic retry-with-backoff** — failed batches are
  re-run up to ``RetryPolicy.max_attempts`` times with a fixed
  (jitter-free) backoff schedule; because trials are pure functions of
  their specs, retries can change wall-clock but never records;
* **pool rebuild** on ``BrokenProcessPool`` (a worker died), with
  graceful **degradation to serial** execution once
  ``RetryPolicy.max_pool_rebuilds`` is exhausted;
* incremental **journaling**: each completed batch's ok-results are
  durably appended to the :class:`~repro.runtime.journal.RunJournal`
  the moment they exist, so a crash loses at most the in-flight batches.
"""

from __future__ import annotations

import contextlib
import inspect
import logging
import multiprocessing
import os
import pickle
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor
from concurrent.futures import ProcessPoolExecutor as _PoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.comm.randomness import SharedRandomness
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.runtime.cache import InstanceCache
from repro.runtime.journal import RunJournal
from repro.runtime.spec import TrialBatch, TrialResult, TrialSpec, batch_specs

if TYPE_CHECKING:  # circular-import-free type-only reference
    from repro.runtime.faults import FaultPlan

__all__ = [
    "TrialTask",
    "RetryPolicy",
    "TrialTimeout",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "resolve_workers",
    "default_executor",
    "run_trials",
    "shared_cache",
]

_LOGGER = logging.getLogger(__name__)


class TrialTimeout(RuntimeError):
    """A supervised batch exceeded its wall-clock budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervised loop responds to failure.

    ``max_attempts`` bounds runs per batch (one grid point);
    ``backoff_base * backoff_factor**i`` seconds separate attempt ``i``
    from attempt ``i+1`` — a fixed, jitter-free schedule, so failure
    handling is as deterministic as the trials themselves.  ``timeout``
    (seconds per attempt, ``None`` = no watchdog) is the hang guard; in
    parallel mode a timeout kills and rebuilds the pool, and after
    ``max_pool_rebuilds`` rebuilds the remaining work degrades to
    in-process serial execution.  ``sleep`` is injectable so tests can
    run the schedule without waiting it out.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    timeout: float | None = None
    max_pool_rebuilds: int = 3
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be positive, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 0:
            raise ValueError("backoff terms must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before re-running after attempt ``attempt``."""
        return self.backoff_base * self.backoff_factor ** attempt


#: The policy of an unsupervised run (``retry=None``): one attempt, no
#: watchdog, and no error capture — the first exception propagates.
_FAIL_FAST = RetryPolicy(max_attempts=1)

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
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` consulted
        before every trial of :meth:`run_batch` — the deterministic
        fault-injection seam the recovery machinery is tested through.
    profile:
        When true, a per-trial phase cost profile (``build`` /
        ``stream`` / ``protocol`` / ``referee`` seconds) is attached to
        ``TrialResult.extras["profile"]``.  Opt-in because it changes
        the record — see :mod:`repro.obs.profile`.
    """

    def __init__(self, instance_fn: InstanceFn, protocol: ProtocolFn, *,
                 cache: InstanceCache | None = None,
                 instance_key: str | None = None,
                 metrics: MetricsFn | None = None,
                 fault_plan: "FaultPlan | None" = None,
                 profile: bool = False) -> None:
        self.instance_fn = instance_fn
        self.protocol = protocol
        self.cache = cache
        self.instance_key = instance_key
        self.metrics = metrics
        self.fault_plan = fault_plan
        self.profile = profile
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
                 local: dict[tuple, object],
                 stream_cost: float = 0.0) -> TrialResult:
        """One trial against a batch-local instance map — the shared core
        of :meth:`run_batch` and the per-trial oracle."""
        if not self.profile:
            return self._execute(spec, stream, local, None, stream_cost)
        with obs_profile.profile_scope() as profile:
            return self._execute(spec, stream, local, profile, stream_cost)

    def _execute(self, spec: TrialSpec,
                 stream: SharedRandomness | None,
                 local: dict[tuple, object],
                 profile: dict | None,
                 stream_cost: float) -> TrialResult:
        with obs_trace.span("trial", point=spec.point_index,
                            trial=spec.trial_index, n=spec.n), \
                obs_metrics.timer("trial.seconds"):
            if stream_cost:
                # This trial's even share of the batch's one stream
                # construction (per-trial runs build streams inside the
                # protocol, where the cost lands in the protocol phase).
                obs_profile.charge("stream", stream_cost)
            key = self.cache_key(spec)
            try:
                instance = local[key]
            except KeyError:
                with obs_trace.span("build"), obs_profile.phase("build"):
                    instance = local[key] = self.build_instance(spec)
            with obs_trace.span("protocol"), obs_profile.phase("protocol"):
                if stream is not None:
                    outcome = self.protocol(instance, spec.seed, shared=stream)
                else:
                    outcome = self.protocol(instance, spec.seed)
        extras = (
            self.metrics(spec, instance, outcome)
            if self.metrics is not None else None
        )
        if profile is not None:
            extras = dict(extras) if extras else {}
            extras["profile"] = {
                name: round(seconds, 9)
                for name, seconds in sorted(profile.items())
            }
        return TrialResult.from_outcome(
            spec,
            bits=outcome.total_bits,
            found=outcome.found,
            extras=extras,
        )

    def _batch_streams(self, batch: TrialBatch
                       ) -> Sequence[SharedRandomness | None]:
        if self._pass_shared:
            return SharedRandomness.batch([spec.seed for spec in batch.specs])
        return [None] * len(batch.specs)

    def __call__(self, spec: TrialSpec) -> TrialResult:
        """Run one spec on its own: a fresh instance, the protocol's own
        coin stream, no fault plan.  The per-trial oracle that
        :meth:`run_batch` must match record for record."""
        return self._run_one(spec, None, {})

    def run_batch(self, batch: TrialBatch, *, attempt: int = 0,
                  capture: bool = False) -> list[TrialResult]:
        """Run one grid point's trials against batch-local instances.

        Each distinct instance key is built (or cache-fetched) exactly
        once for the whole batch; with per-trial instance seeds the
        local map never coalesces anything and the path degenerates to
        the per-trial one.  Protocols that declare a ``shared`` keyword
        receive their coin stream from one batched
        :meth:`~repro.comm.randomness.SharedRandomness.batch`
        construction — draw-for-draw identical to the stream they would
        build internally from the spec seed, so outcomes are unchanged.

        ``attempt`` is the supervisor's attempt counter, handed to the
        fault plan.  With ``capture``, a failing trial (fault, instance
        build, protocol, metrics hook) becomes an error record and the
        batch's other trials still run; a failure building the coin
        streams fails every trial, since none can run without coins.
        Without ``capture`` the first exception propagates.
        """
        with obs_trace.span("batch", point=batch.point_index,
                            trials=len(batch.specs), attempt=attempt):
            try:
                with obs_trace.span("streams"), \
                        obs_metrics.timer("batch.stream_seconds"):
                    started = time.perf_counter()
                    streams = self._batch_streams(batch)
                    stream_cost = (
                        (time.perf_counter() - started)
                        / max(1, len(batch.specs))
                        if self.profile else 0.0
                    )
            except Exception as error:
                if not capture:
                    raise
                return _error_results(batch, error)
            local: dict[tuple, object] = {}
            results: list[TrialResult] = []
            for spec, stream in zip(batch.specs, streams):
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.apply(spec, attempt)
                    results.append(
                        self._run_one(spec, stream, local, stream_cost)
                    )
                except Exception as error:
                    if not capture:
                        raise
                    results.append(TrialResult.from_error(spec, error))
            return results


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


# ----------------------------------------------------------------------
# Supervision helpers (shared by the serial and parallel loops)
# ----------------------------------------------------------------------

def _error_results(batch: TrialBatch, error: object,
                   status: str = "error") -> list[TrialResult]:
    return [
        TrialResult.from_error(spec, error, status=status)
        for spec in batch.specs
    ]


def _timeout_results(batch: TrialBatch,
                     policy: RetryPolicy) -> list[TrialResult]:
    return _error_results(
        batch, f"trial timed out after {policy.timeout}s", status="timeout"
    )


def _journal_batch(journal: RunJournal | None, batch: TrialBatch,
                   results: Sequence[TrialResult]) -> None:
    if journal is None:
        return
    for spec, result in zip(batch.specs, results):
        journal.record(spec, result)


def _rebind_coordinates(batch: TrialBatch,
                        outcome: Sequence[TrialResult]) -> list[TrialResult]:
    """Rebuild worker-returned records on the driver's own spec objects.

    Exactly what a driver-side ``TrialResult.from_outcome`` call would
    reference: within a grid point the specs share coordinate objects
    (one ``d`` float per point), so the pickled byte stream of the final
    record *list* matches serial execution no matter how the records
    were split across futures on the way home.
    """
    return [
        replace(
            result,
            point_index=spec.point_index, trial_index=spec.trial_index,
            n=spec.n, d=spec.d, k=spec.k, seed=spec.seed,
        )
        for spec, result in zip(batch.specs, outcome)
    ]


def _call_with_timeout(fn: Callable[[], object],
                       timeout: float | None) -> object:
    """Run ``fn`` with a wall-clock budget, in-process.

    With a timeout, ``fn`` runs on a daemon worker thread and a hang
    surfaces as :class:`TrialTimeout` after ``timeout`` seconds — the
    abandoned thread finishes (or sleeps out its injected hang) in the
    background, and its late result is discarded.  This is the only way
    to put a watchdog on in-process execution; the pool loop instead
    waits on futures and kills the hung worker's pool.
    """
    if timeout is None:
        return fn()
    box: dict[str, object] = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as error:  # re-raised on the caller's thread
            box["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise TrialTimeout(f"no result within {timeout}s")
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["value"]


def _supervise_serial(task: TrialTask, batch: TrialBatch,
                      retry: RetryPolicy | None,
                      journal: RunJournal | None) -> list[TrialResult]:
    """The in-process attempt loop for one batch: timeout, capture,
    backoff, retry — or, with ``retry=None``, one fail-fast attempt."""
    policy = retry if retry is not None else _FAIL_FAST
    outcome: list[TrialResult] = []
    for attempt in range(policy.max_attempts):
        if attempt:
            obs_trace.event("retry", attempt=attempt)
            obs_metrics.inc("retry.attempts")
            policy.sleep(policy.backoff(attempt - 1))
        try:
            outcome = _call_with_timeout(
                lambda: task.run_batch(batch, attempt=attempt,
                                       capture=retry is not None),
                policy.timeout,
            )
        except TrialTimeout:
            obs_trace.event("timeout", attempt=attempt,
                            timeout=policy.timeout)
            outcome = _timeout_results(batch, policy)
            continue
        if all(result.ok for result in outcome):
            break
    _journal_batch(journal, batch, outcome)
    return outcome


def _kill_pool(pool: _PoolExecutor) -> None:
    """Forcibly tear down a pool that may contain hung or dead workers.

    ``shutdown`` alone never terminates a *running* worker, so a hung
    trial would pin its process forever; terminate the children first
    (via the executor's process table), then release the executor's
    resources without waiting on them.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        with contextlib.suppress(Exception):
            process.terminate()
    with contextlib.suppress(Exception):
        pool.shutdown(wait=False, cancel_futures=True)


class Executor:
    """Runs batches of trials; subclasses choose how, never what."""

    def run_batches(self, task: TrialTask, batches: Iterable[TrialBatch], *,
                    retry: RetryPolicy | None = None,
                    journal: RunJournal | None = None) -> list[TrialResult]:
        """Execute per-point batches in-process, one after another,
        returning results in batch order.

        ``retry=None`` fails fast; a :class:`RetryPolicy` engages error
        capture, the watchdog and bounded retry per batch.  Each
        finished batch is journaled.  :class:`ParallelExecutor`
        overrides this with the pool loop, which falls back to it.
        """
        results: list[TrialResult] = []
        for batch in batches:
            results.extend(_supervise_serial(task, batch, retry, journal))
        return results


class SerialExecutor(Executor):
    """In-process execution — the reference the parallel path must match."""


# The task a ParallelExecutor is currently running.  Fork workers
# inherit it via copy-on-write; spawn workers receive it pickled through
# the pool initializer below.
_ACTIVE_TASK: TrialTask | None = None


def _run_batch_in_worker(payload: tuple[TrialBatch, int, bool]
                         ) -> tuple[list[TrialResult], dict | None]:
    """The pool's one entry point: ``(batch, attempt, capture)`` in,
    ``(results, metrics_snapshot)`` out.

    The snapshot is the worker registry's delta since its last shipment
    (``None`` when metrics are off, so the common case adds two bytes of
    pickle); the driver folds it into its own registry as the results
    come home — see :mod:`repro.obs.metrics`.
    """
    batch, attempt, capture = payload
    if _ACTIVE_TASK is None:
        raise RuntimeError("no active task in worker; pool misconfigured")
    obs_metrics.worker_sync()
    results = _ACTIVE_TASK.run_batch(batch, attempt=attempt, capture=capture)
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
    """A human-readable task identity for degradation warnings."""

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
        if start_method is not None:
            available = multiprocessing.get_all_start_methods()
            if start_method not in available:
                raise ValueError(
                    f"start method {start_method!r} not available here "
                    f"(choose from {available})"
                )
        self.start_method = start_method

    def _resolve_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        available = multiprocessing.get_all_start_methods()
        env = os.environ.get("REPRO_START_METHOD", "").strip()
        if env and env not in available:
            raise ValueError(
                f"REPRO_START_METHOD={env!r} not available here "
                f"(choose from {available})"
            )
        return env or ("fork" if "fork" in available else "spawn")

    def run_batches(self, task: TrialTask, batches: Iterable[TrialBatch], *,
                    retry: RetryPolicy | None = None,
                    journal: RunJournal | None = None) -> list[TrialResult]:
        """The pool loop.

        Work proceeds in *waves*: every unresolved batch is submitted to
        the pool, results are collected in batch order with the
        watchdog's per-attempt budget, and failed batches re-enter the
        next wave with an incremented attempt counter (after the backoff
        pause).  With ``retry=None`` there is one wave and the first
        failure propagates.

        A timeout or a dead worker poisons the pool — running workers
        cannot be cancelled — so the pool is killed and rebuilt between
        waves, up to ``retry.max_pool_rebuilds`` times; after that the
        remaining batches degrade to the in-process loop (where ``kill``
        faults downgrade to ``raise``, and the sweep still finishes with
        structured error records at worst).  A wave-wide
        ``BrokenProcessPool`` cannot be attributed to one batch, so every
        batch still unresolved in that wave is charged an attempt — this
        keeps the faulty batch's counter advancing (and fault plans
        deterministic) at the price of innocent batches occasionally
        burning an attempt alongside it.
        """
        global _ACTIVE_TASK
        batch_list = list(batches)
        workers = min(self.workers, len(batch_list))
        pool_kwargs = None
        if workers > 1 and _ACTIVE_TASK is None:
            method = self._resolve_start_method()
            pool_kwargs = _pool_kwargs(task, method)
        if pool_kwargs is None:
            return super().run_batches(task, batch_list, retry=retry,
                                       journal=journal)
        capture = retry is not None
        policy = retry if capture else _FAIL_FAST
        context = multiprocessing.get_context(method)

        def make_pool() -> _PoolExecutor:
            return _PoolExecutor(max_workers=workers, mp_context=context,
                                 **pool_kwargs)

        _ACTIVE_TASK = task
        pool: _PoolExecutor | None = make_pool()
        rebuilds = 0
        # batch index -> attempt counter; resolved batches leave the map.
        remaining = dict.fromkeys(range(len(batch_list)), 0)
        results: dict[int, list[TrialResult]] = {}
        last_outcome: dict[int, list[TrialResult]] = {}
        try:
            while remaining:
                if pool is None:
                    _LOGGER.warning(
                        "process pool could not be revived after %d "
                        "rebuild(s); degrading %d batch(es) to serial "
                        "execution", rebuilds, len(remaining),
                    )
                    obs_trace.event("degrade_serial", units=len(remaining),
                                    rebuilds=rebuilds)
                    obs_metrics.inc("pool.degrade_serial")
                    for i in sorted(remaining):
                        results[i] = _supervise_serial(
                            task, batch_list[i], retry, journal
                        )
                    break
                futures = {
                    i: pool.submit(_run_batch_in_worker,
                                   (batch_list[i], remaining[i], capture))
                    for i in sorted(remaining)
                }
                break_kind: str | None = None  # None | "timeout" | "broken"
                failed: list[int] = []
                for i, future in futures.items():
                    batch = batch_list[i]
                    if break_kind is not None and not future.done():
                        # The pool is going down; this batch never got to
                        # run — it re-enters the next wave at the same
                        # attempt (except after a worker death, charged
                        # below to keep fault counters advancing).
                        future.cancel()
                        if break_kind == "broken":
                            failed.append(i)
                            last_outcome[i] = _error_results(
                                batch, "worker process died (pool broken)"
                            )
                        continue
                    try:
                        wait = None if future.done() else policy.timeout
                        outcome, shipped = future.result(timeout=wait)
                    except Exception as error:
                        if not capture:
                            raise
                        failed.append(i)
                        if isinstance(error, _FuturesTimeout):
                            break_kind = break_kind or "timeout"
                            obs_trace.event("timeout", unit=i,
                                            timeout=policy.timeout)
                            last_outcome[i] = _timeout_results(batch, policy)
                        elif isinstance(error, BrokenExecutor):
                            break_kind = "broken"
                            obs_trace.event("worker_lost", unit=i)
                            obs_metrics.inc("pool.worker_lost")
                            last_outcome[i] = _error_results(
                                batch, "worker process died (pool broken)"
                            )
                        else:  # defensive: capture happens worker-side
                            last_outcome[i] = _error_results(batch, error)
                        continue
                    obs_metrics.absorb(shipped)
                    outcome = _rebind_coordinates(batch, outcome)
                    if all(result.ok for result in outcome):
                        results[i] = outcome
                        _journal_batch(journal, batch, outcome)
                        del remaining[i]
                    else:
                        failed.append(i)
                        last_outcome[i] = outcome
                # Resolve or re-queue this wave's failures.
                backoff_from = None
                for i in failed:
                    attempt = remaining[i]
                    if attempt + 1 >= policy.max_attempts:
                        results[i] = last_outcome[i]
                        _journal_batch(journal, batch_list[i], results[i])
                        del remaining[i]
                    else:
                        remaining[i] = attempt + 1
                        obs_trace.event("retry", unit=i, attempt=attempt + 1)
                        obs_metrics.inc("retry.attempts")
                        backoff_from = (
                            attempt if backoff_from is None
                            else max(backoff_from, attempt)
                        )
                if break_kind is not None:
                    _kill_pool(pool)
                    rebuilds += 1
                    obs_trace.event("pool_rebuild", kind=break_kind,
                                    rebuilds=rebuilds)
                    obs_metrics.inc("pool.rebuilds")
                    pool = (
                        make_pool() if rebuilds <= policy.max_pool_rebuilds
                        else None
                    )
                if remaining and backoff_from is not None:
                    policy.sleep(policy.backoff(backoff_from))
            if pool is not None:
                # Reap the workers before returning, so a caller reading
                # the children's peak RSS sees them.
                pool.shutdown(wait=True)
            return [
                result
                for i in range(len(batch_list))
                for result in results[i]
            ]
        finally:
            _ACTIVE_TASK = None
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)


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
               metrics: MetricsFn | None = None,
               retry: RetryPolicy | None = None,
               journal: RunJournal | str | os.PathLike | None = None,
               resume: bool = False,
               fault_plan: "FaultPlan | None" = None,
               profile: bool = False) -> list[TrialResult]:
    """Run every spec, one batch per grid point; results in spec order.

    The callables are wrapped in a :class:`TrialTask`, the specs are
    grouped into per-point :class:`~repro.runtime.spec.TrialBatch`
    units (instances built once per batch, coins from one batched
    construction), and the batches run on ``executor`` (default: serial
    or a pool by ``workers=`` / ``REPRO_WORKERS``).  Records equal the
    per-trial oracle :meth:`TrialTask.__call__`, in input spec order.

    With none of ``retry``, ``journal``, ``resume``, ``fault_plan`` the
    run fails fast: the first trial exception propagates unchanged.
    Passing any of them turns failures into records.  The unit of
    retry, timeout and journaling is one grid point (batch).

    retry:
        A :class:`RetryPolicy` — error capture, per-batch wall-clock
        timeout, bounded deterministic retry-with-backoff, pool rebuild
        on worker death, serial degradation when the pool cannot be
        revived.  Defaults to one attempt when another knob is given.
    journal:
        A :class:`~repro.runtime.journal.RunJournal` (or a path one is
        opened at — and closed again — for the duration of the call).
        Every completed batch's ok-results are durably appended as soon
        as the batch finishes.
    resume:
        With a journal: specs already recorded are *not* re-run; their
        journaled results are returned verbatim, byte-identical to what
        an uninterrupted run would have produced.
    fault_plan:
        A :class:`~repro.runtime.faults.FaultPlan` injecting
        deterministic failures (raise / hang / kill-worker) into chosen
        trials — the CI seam that proves every recovery path above.
    profile:
        Attach a per-trial phase cost profile to
        ``TrialResult.extras["profile"]`` (opt-in; changes the record —
        see :mod:`repro.obs.profile`).
    """
    if resume and journal is None:
        raise ValueError("resume=True requires a journal")
    if retry is None and (journal is not None or resume
                          or fault_plan is not None):
        retry = RetryPolicy(max_attempts=1)
    task = TrialTask(instance_fn, protocol, cache=cache,
                     instance_key=instance_key, metrics=metrics,
                     fault_plan=fault_plan, profile=profile)
    chosen = executor if executor is not None else default_executor(workers)
    with obs_trace.span("run_trials", specs=len(specs)):
        owns_journal = (
            journal is not None and not isinstance(journal, RunJournal)
        )
        journal_obj: RunJournal | None = (
            RunJournal(journal) if owns_journal else journal  # type: ignore[arg-type]
        )
        try:
            results = _run_with_replay(task, chosen, list(specs), retry,
                                       journal_obj, resume)
        finally:
            if owns_journal and journal_obj is not None:
                journal_obj.close()
    registry = obs_metrics.get_metrics()
    if registry is not None:
        for result in results:
            registry.inc(f"trial.{result.status}")
    return results


def _run_with_replay(task: TrialTask, executor: Executor,
                     spec_list: list[TrialSpec],
                     retry: RetryPolicy | None,
                     journal: RunJournal | None,
                     resume: bool) -> list[TrialResult]:
    """Replay what the journal holds (on resume), run the rest in
    batches, and merge both back into input spec order."""
    replayed: dict[int, TrialResult] = {}
    if resume and journal is not None:
        for index, spec in enumerate(spec_list):
            recorded = journal.get(spec)
            if recorded is not None:
                # Rebuild the record on the caller's own spec coordinate
                # objects, exactly as a live ``TrialResult.from_outcome``
                # would — this keeps the within-point object sharing (and
                # hence the pickled byte stream of the whole record list)
                # identical to an uninterrupted run.
                replayed[index] = replace(
                    recorded,
                    point_index=spec.point_index,
                    trial_index=spec.trial_index,
                    n=spec.n, d=spec.d, k=spec.k, seed=spec.seed,
                )
    if replayed:
        obs_metrics.inc("journal.replayed", len(replayed))
        obs_trace.event("resume", replayed=len(replayed),
                        pending=len(spec_list) - len(replayed))
    pending_indices = [
        i for i in range(len(spec_list)) if i not in replayed
    ]
    pending = [spec_list[i] for i in pending_indices]
    batches = batch_specs(pending)
    fresh = _deal_batches(
        batches,
        executor.run_batches(task, batches, retry=retry, journal=journal),
        pending,
    )
    if not replayed:
        return fresh
    merged: list[TrialResult | None] = [None] * len(spec_list)
    for index, result in zip(pending_indices, fresh):
        merged[index] = result
    for index, result in replayed.items():
        merged[index] = result
    return merged  # type: ignore[return-value]
