"""Parallel experiment runtime.

The execution engine behind every sweep in :mod:`repro.analysis` and the
Table 1 benchmark drivers:

* :class:`TrialSpec` / :class:`TrialResult` — the picklable unit of work
  and its record (:mod:`repro.runtime.spec`);
* :func:`derive_seed` — stable ``(sweep_seed, point, trial) -> child
  seed`` so serial and parallel runs are record-identical
  (:mod:`repro.runtime.seeding`);
* :class:`InstanceCache` — per-process reuse of generated instances
  across the protocols compared at a grid point
  (:mod:`repro.runtime.cache`);
* :func:`run_trials` with :class:`SerialExecutor` /
  :class:`ParallelExecutor` — one batched, fail-fast loop, in-process
  or over a process pool, chosen by ``workers=`` or the
  ``REPRO_WORKERS`` env var (:mod:`repro.runtime.executor`).  Each
  batch runs once; the first trial exception propagates unchanged.
"""

from repro.runtime.cache import InstanceCache
from repro.runtime.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    TrialTask,
    default_executor,
    resolve_workers,
    run_trials,
    shared_cache,
)
from repro.runtime.seeding import derive_seed
from repro.runtime.spec import (
    TrialBatch,
    TrialResult,
    TrialSpec,
    batch_specs,
    build_specs,
)

__all__ = [
    "TrialSpec",
    "TrialResult",
    "TrialBatch",
    "build_specs",
    "batch_specs",
    "derive_seed",
    "InstanceCache",
    "TrialTask",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "default_executor",
    "resolve_workers",
    "run_trials",
    "shared_cache",
]
