"""Parallel experiment runtime.

The execution engine behind every sweep in :mod:`repro.analysis` and the
Table 1 benchmark drivers:

* :class:`TrialSpec` / :class:`TrialResult` — the picklable unit of work
  and its record (:mod:`repro.runtime.spec`);
* :func:`derive_seed` — stable ``(sweep_seed, point, trial) -> child
  seed`` so serial and parallel runs are record-identical
  (:mod:`repro.runtime.seeding`);
* :class:`InstanceCache` — memory/disk reuse of generated instances
  across the protocols compared at a grid point
  (:mod:`repro.runtime.cache`);
* :func:`run_trials` with :class:`SerialExecutor` /
  :class:`ParallelExecutor` — one batched, supervised loop, in-process
  or over a process pool, chosen by ``workers=`` or the
  ``REPRO_WORKERS`` env var (:mod:`repro.runtime.executor`);
* :class:`RunJournal` — durable, checksummed record of completed trials
  for crash-safe resume (:mod:`repro.runtime.journal`);
* :class:`RetryPolicy` — error capture, per-batch timeouts, and bounded
  retry-with-backoff; without one a run fails fast
  (:mod:`repro.runtime.executor`);
* :class:`FaultPlan` — deterministic runtime fault injection, the seam
  every recovery path is tested through (:mod:`repro.runtime.faults`).
"""

from repro.runtime.cache import InstanceCache
from repro.runtime.executor import (
    Executor,
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
    TrialTask,
    TrialTimeout,
    default_executor,
    resolve_workers,
    run_trials,
    shared_cache,
)
from repro.runtime.faults import Fault, FaultPlan, InjectedFault
from repro.runtime.journal import JournalError, RunJournal, spec_key
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
    "RunJournal",
    "JournalError",
    "spec_key",
    "RetryPolicy",
    "TrialTimeout",
    "Fault",
    "FaultPlan",
    "InjectedFault",
]
