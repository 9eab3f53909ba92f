"""Process-local metrics: counters and gauges.

A :class:`MetricsRegistry` is a plain in-process accumulator — no
threads, no sockets, no background flushing.  Instrumented code calls
the module-level helpers (:func:`inc`, :func:`gauge`), which are no-ops
costing one global load and a ``None`` check unless a registry has been
installed via :func:`set_metrics` / :func:`use_metrics` (or
``run_sweep(metrics=...)``).  Nothing here ever touches a random number
generator, so enabling metrics cannot perturb any record.

Cross-process story: registries do not magically span processes.
Instead :meth:`MetricsRegistry.snapshot` renders the whole registry as
a JSON-faithful dict and :meth:`MetricsRegistry.merge` folds such a
snapshot back in, so parallel workers ship their registries back to the
driver alongside their ``TrialResult``s (the executors do this
automatically whenever metrics are active) and the driver aggregates.
Counter merging is addition — associative and commutative, so the
merge order across workers never changes the aggregate (asserted in
``tests/test_obs.py``).

The registry counts; it does not time.  Durations live in the trace
(:mod:`repro.obs.trace`), whose spans say both how long and in which
call.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

__all__ = [
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "use_metrics",
    "inc",
    "gauge",
]


class MetricsRegistry:
    """Counters and gauges with snapshot/merge."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins on merge)."""
        self.gauges[name] = value

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> dict:
        """The registry as a JSON-faithful dict (deep copy)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }

    def merge(self, snapshot: "dict | MetricsRegistry") -> None:
        """Fold a snapshot (or another registry) into this one.

        Counters add; gauges take the incoming value (last write
        wins).  Addition is associative, so merging worker snapshots in
        any grouping yields the same aggregate.
        """
        if isinstance(snapshot, MetricsRegistry):
            snapshot = snapshot.snapshot()
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(snapshot.get("gauges", {}))

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MetricsRegistry":
        registry = cls()
        registry.merge(snapshot)
        return registry

    def reset(self) -> None:
        """Zero every counter and gauge."""
        self.counters.clear()
        self.gauges.clear()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)})"
        )


# ----------------------------------------------------------------------
# The active registry: one module global, read by every instrumented
# call site.  ``None`` (the default) short-circuits everything.
# ----------------------------------------------------------------------
_ACTIVE: MetricsRegistry | None = None


def get_metrics() -> MetricsRegistry | None:
    """The currently installed registry, or ``None`` (metrics off)."""
    return _ACTIVE


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install ``registry`` as the active one; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextlib.contextmanager
def use_metrics(registry: MetricsRegistry | None) -> Iterator[None]:
    """Install ``registry`` for the duration of the block."""
    previous = set_metrics(registry)
    try:
        yield
    finally:
        set_metrics(previous)


def inc(name: str, value: float = 1) -> None:
    if _ACTIVE is not None:
        _ACTIVE.inc(name, value)


def gauge(name: str, value: float) -> None:
    if _ACTIVE is not None:
        _ACTIVE.gauge(name, value)


# ----------------------------------------------------------------------
# Worker-process hooks used by the executors
# ----------------------------------------------------------------------

def worker_sync() -> None:
    """Reconcile an inherited registry with the current process.

    A fork-started worker inherits the driver's active registry
    (copy-on-write), including every count the driver accumulated
    before the fork; shipping that back would double-count.  Called at
    worker-task entry: the first call in a child process resets the
    inherited copy, so the worker accumulates (and ships) only its own
    deltas.  A no-op in the driver and on every later call.
    """
    registry = _ACTIVE
    if registry is not None and registry._pid != os.getpid():
        registry.reset()
        registry._pid = os.getpid()


def ship() -> dict | None:
    """Snapshot-and-reset the worker's registry for the trip home.

    Returns ``None`` when metrics are off (the common case — nothing
    extra crosses the pipe).  Resetting after the snapshot makes the
    shipped snapshots *deltas*: the driver merges every one of them and
    the totals come out exact regardless of chunking.
    """
    registry = _ACTIVE
    if registry is None:
        return None
    snapshot = registry.snapshot()
    registry.reset()
    return snapshot


def absorb(snapshot: dict | None) -> None:
    """Driver-side: merge a worker-shipped snapshot into the active
    registry (no-op for ``None`` or when metrics are off)."""
    if snapshot is not None and _ACTIVE is not None:
        _ACTIVE.merge(snapshot)
