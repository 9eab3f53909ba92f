"""Sweep runner: execute protocols over (n, d, k) grids and collect costs.

Each sweep point runs a protocol on freshly generated epsilon-far instances
over several derived seeds and records median communication and detection
rate.  The records feed :mod:`repro.analysis.scaling` fits and the Table 1
harness.

Execution is delegated to :mod:`repro.runtime`: the grid expands into
:class:`~repro.runtime.spec.TrialSpec`s with deterministic per-trial
seeds, an executor (serial, or a process pool selected by ``workers=`` /
the ``REPRO_WORKERS`` env var) runs them, and the per-trial
:class:`~repro.runtime.spec.TrialResult` records are aggregated into
:class:`SweepPoint`s.  Serial and parallel runs of the same sweep seed
produce identical records.
"""

from __future__ import annotations

import contextlib
import logging
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.core.results import DetectionResult
from repro.graphs.generators import far_instance
from repro.graphs.partition import EdgePartition, partition_disjoint
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.runtime import (
    Executor,
    InstanceCache,
    TrialResult,
    build_specs,
    run_trials,
)

__all__ = ["SweepPoint", "SweepResult", "run_sweep", "default_instance"]

_LOGGER = logging.getLogger(__name__)

ProtocolFn = Callable[[EdgePartition, int], DetectionResult]
InstanceFn = Callable[[int, float, int], EdgePartition]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point's aggregated measurements.

    ``errors`` counts trials whose supervised execution exhausted every
    retry (``status != "ok"``); those records are excluded from the cost
    and detection aggregates, and the point's ``detection_rate``
    denominator shrinks accordingly.  Unsupervised sweeps always have
    ``errors == 0``.
    """

    n: int
    d: float
    k: int
    median_bits: float
    mean_bits: float
    detection_rate: float
    trials: int
    errors: int = 0


@dataclass
class SweepResult:
    """All points of one sweep, with fit-ready accessors.

    ``records`` keeps the raw per-trial results (spec order) so callers
    can aggregate custom metrics recorded through the runtime's
    ``metrics`` hook.
    """

    points: list[SweepPoint] = field(default_factory=list)
    records: list[TrialResult] = field(default_factory=list)

    def xs(self, key: str) -> list[float]:
        if key == "n":
            return [p.n for p in self.points]
        if key == "d":
            return [p.d for p in self.points]
        if key == "k":
            return [p.k for p in self.points]
        if key == "nd":
            return [p.n * p.d for p in self.points]
        raise ValueError(f"unknown sweep axis {key!r}")

    def bits(self) -> list[float]:
        return [p.median_bits for p in self.points]

    def detection_rates(self) -> list[float]:
        return [p.detection_rate for p in self.points]

    def point_records(self, point_index: int) -> list[TrialResult]:
        return [r for r in self.records if r.point_index == point_index]

    def point_extras(self, point_index: int, key: str) -> list:
        """The per-trial ``extras[key]`` values at one grid point."""
        return [r.extras[key] for r in self.point_records(point_index)]


@dataclass(frozen=True)
class DefaultInstanceBuilder:
    """Picklable ``(n, d, seed) -> EdgePartition`` builder.

    A dataclass rather than a closure so spawn-method process pools (no
    fork: Windows, macOS defaults, Python 3.14+) can ship it to workers.
    """

    epsilon: float
    k: int

    def __call__(self, n: int, d: float, seed: int) -> EdgePartition:
        instance = far_instance(n=n, d=d, epsilon=self.epsilon, seed=seed)
        return partition_disjoint(instance.graph, k=self.k, seed=seed + 1)


def default_instance(epsilon: float = 0.2,
                     k: int = 3) -> InstanceFn:
    """Planted epsilon-far instances, disjointly partitioned among k."""
    return DefaultInstanceBuilder(epsilon=epsilon, k=k)


def _aggregate(grid: Sequence[tuple[int, float, int]], trials: int,
               records: list[TrialResult]) -> SweepResult:
    result = SweepResult(records=records)
    for point_index, (n, d, k) in enumerate(grid):
        point = [r for r in records if r.point_index == point_index]
        ok = [r for r in point if r.ok]
        errors = len(point) - len(ok)
        # Failed trials carry placeholder measurements (bits=0.0,
        # found=False) and must not drag the aggregates; a point with
        # zero surviving trials reports NaN costs rather than lying.
        costs = [r.bits for r in ok] if ok else [float("nan")]
        detections = sum(1 for r in ok if r.found)
        result.points.append(
            SweepPoint(
                n=n,
                d=d,
                k=k,
                median_bits=statistics.median(costs),
                mean_bits=statistics.fmean(costs),
                detection_rate=detections / len(ok) if ok else 0.0,
                trials=trials,
                errors=errors,
            )
        )
    return result


def _resolve_trace(trace) -> tuple[obs_trace.TraceRecorder | None, bool]:
    """(recorder, owns_it) for the ``trace=`` argument.

    A recorder object is used as-is (the caller closes it); a path opens
    a fresh recorder for the duration of the sweep (a directory path
    gets a ``trace.jsonl`` inside it).
    """
    if trace is None:
        return None, False
    if isinstance(trace, obs_trace.TraceRecorder):
        return trace, False
    path = Path(trace)
    if path.is_dir():
        path = path / "trace.jsonl"
    return obs_trace.TraceRecorder(path), True


def run_sweep(protocol: ProtocolFn, instance_fn: InstanceFn,
              grid: Sequence[tuple[int, float, int]],
              trials: int = 3, seed: int = 0, *,
              workers: int | None = None,
              executor: Executor | None = None,
              cache: InstanceCache | None = None,
              instance_key: str | None = None,
              metrics=None,
              shared_instances: bool = False,
              retry=None,
              journal=None,
              resume: bool = False,
              fault_plan=None,
              trace: "obs_trace.TraceRecorder | str | os.PathLike | None" = None,
              profile: bool = False) -> SweepResult:
    """Run ``protocol`` at every (n, d, k) grid point, ``trials`` seeds each.

    ``instance_fn(n, d, seed)`` must honour k itself (close over it); the
    k recorded in the point is taken from the grid.

    Each grid point runs as one batch through
    :func:`repro.runtime.executor.run_trials`: its instances are built
    once per batch and its coin streams in one batched construction,
    with records identical to running every trial on its own.

    Keyword knobs (all optional, defaults reproduce the serial harness):

    workers:
        Process-pool width; ``None`` defers to ``REPRO_WORKERS`` (unset
        means serial), ``0`` or negative means all cores.  Identical
        records either way — only wall-clock changes.
    executor:
        A pre-built :class:`~repro.runtime.executor.Executor`, overriding
        ``workers``.
    cache / instance_key:
        Share generated instances with other sweeps: pass the same
        :class:`~repro.runtime.cache.InstanceCache` and the same key to
        every sweep comparing protocols on the same construction.
    metrics:
        Two shapes, told apart by type.  A *callable*
        ``(spec, instance, outcome) -> dict`` is the per-trial hook:
        its result is recorded into
        ``SweepResult.records[...].extras``.  A
        :class:`~repro.obs.metrics.MetricsRegistry` instead installs
        that registry for the duration of the sweep — runtime counters,
        cache traffic, kernel selections, and timing histograms
        accumulate into it (merged across workers), and the records are
        untouched.
    trace:
        A :class:`~repro.obs.trace.TraceRecorder`, or a path one is
        opened at (and closed again) for the duration of the sweep.
        Structured span/event JSONL covering the whole run — feed the
        file to ``python -m repro.obs summarize``.  Zero RNG impact;
        records are byte-identical with tracing on or off.
    profile:
        ``True`` attaches a per-trial phase cost breakdown to
        ``records[...].extras["profile"]`` — opt-in because it changes
        the record (see :mod:`repro.obs.profile`).
    shared_instances:
        ``True`` runs all of a grid point's trials against *one*
        instance (fresh coins per trial) instead of a fresh instance per
        trial — a different, much cheaper experiment.  Off by default;
        records match earlier releases only when off.
    retry / journal / resume / fault_plan:
        The fault-tolerance seams, passed straight through to
        :func:`repro.runtime.executor.run_trials`: a
        :class:`~repro.runtime.executor.RetryPolicy` for error capture,
        timeouts and bounded retry; a
        :class:`~repro.runtime.journal.RunJournal` (or path) durably
        recording every completed grid point; ``resume=True`` to skip
        specs the journal already holds (byte-identical records to an
        uninterrupted run); a
        :class:`~repro.runtime.faults.FaultPlan` for deterministic
        fault injection.  The unit of retry, timeout and journaling is
        one grid point.  With all of them off (the default) the sweep
        fails fast: the first trial exception propagates unchanged;
        with any of them, failed trials become records counted in
        ``SweepPoint.errors``.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    registry = metrics if isinstance(metrics, MetricsRegistry) else None
    hook = None if registry is not None else metrics
    recorder, owns_recorder = _resolve_trace(trace)
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            if owns_recorder:
                stack.callback(recorder.close)
            stack.enter_context(obs_trace.use_recorder(recorder))
        if registry is not None:
            stack.enter_context(obs_metrics.use_metrics(registry))
        with obs_trace.span("sweep", points=len(grid), trials=trials,
                            seed=seed):
            specs = build_specs(grid, trials, seed,
                                shared_instances=shared_instances)
            records = run_trials(
                protocol, instance_fn, specs,
                workers=workers, executor=executor,
                cache=cache, instance_key=instance_key, metrics=hook,
                retry=retry, journal=journal, resume=resume,
                fault_plan=fault_plan, profile=profile,
            )
        if cache is not None:
            _LOGGER.debug(
                "run_sweep cache stats (instance_key=%r): %s",
                instance_key, cache.stats(),
            )
            active = obs_metrics.get_metrics()
            if active is not None:
                stats = cache.stats()
                active.gauge("cache.entries", stats["entries"])
                active.gauge("cache.instance_bytes", stats["instance_bytes"])
        # Stamp the merged registry into the trace so `summarize` can
        # report cache effectiveness and backend mix from one file.
        active = obs_metrics.get_metrics()
        if active is not None:
            obs_trace.event("metrics", snapshot=active.snapshot())
    failed = sum(1 for r in records if not r.ok)
    if failed:
        _LOGGER.warning(
            "run_sweep: %d of %d trials failed permanently and are "
            "excluded from aggregation (see SweepPoint.errors and the "
            "records' error fields)", failed, len(records),
        )
    return _aggregate(grid, trials, records)
