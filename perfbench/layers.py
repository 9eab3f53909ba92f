"""Per-layer timing wrappers, installed from outside ``src/``.

The traced run measures every layer of the program without editing it:
:class:`Layers` replaces the public functions and methods listed in
:data:`TARGETS` with thin wrappers, at every site in the ``repro``
package that holds a reference to them, and puts the originals back on
:meth:`Layers.uninstall`.

Accounting model
    Each wrapped call pushes a frame on a per-process stack.  On exit it
    adds its duration to its parent's child time and charges its *self
    time* (duration minus child time) to its group counter
    ``self.<group>``.  The self times of all groups therefore partition
    the time spent inside wrapped calls.  Call counts land in plain
    counters.  Everything is written into the active
    :class:`~repro.obs.metrics.MetricsRegistry`, so fork workers ship
    their counts home through the executor's existing ``ship``/``absorb``
    seam.

Hot closures
    ``SharedRandomness.permutation_rank`` and ``bernoulli_predicate``
    return closures that run millions of times per Table 1.  Their
    wrappers add count and time to two in-memory accumulators instead
    of writing a counter or a span per call; :meth:`Layers.fold` moves
    the totals into the registry (at the end of every worker batch and
    at the end of the run).

Worker batches
    In a fork worker, the end of each ``TrialTask.run_batch`` also emits
    a ``bench.batch`` trace event carrying the batch's interval and its
    per-group self times, then flushes the worker's buffered trace.  The
    driver uses these to attribute worker time to layers (see
    ``costs.py``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import re
import sys
import threading
import time

from repro.obs import trace as obs_trace
from repro.obs.trace import TraceRecorder

perf = time.perf_counter

#: Every wrapped call site: (module, attribute, group, count key).
#: ``attribute`` is a function name, ``Class.method``, or ``*`` for every
#: public function defined in the module.  ``group`` names the self-time
#: bucket; ``count key`` (or ``None``) the call counter.
TARGETS: tuple[tuple[str, str, str, str | None], ...] = (
    ("repro.runtime.executor", "run_trials", "executor", None),
    ("repro.runtime.executor", "TrialTask.run_batch", "executor",
     "executor.batches"),
    ("repro.runtime.executor", "Executor.run_batches", "executor", None),
    ("repro.runtime.executor", "ParallelExecutor.run_batches", "executor",
     None),
    ("repro.runtime.cache", "InstanceCache.get_or_build", "cache", None),
    ("repro.graphs.generators", "*", "generators", "generators.calls"),
    ("repro.graphs.partition", "*", "partition", "partition.calls"),
    ("repro.graphs.triangles", "*", "triangles", "triangles.calls"),
    ("repro.comm.randomness", "SharedRandomness.__init__",
     "randomness.streams", "randomness.streams"),
    ("repro.comm.randomness", "SharedRandomness.bernoulli_subset",
     "randomness.subset", "randomness.subset_calls"),
    ("repro.comm.randomness", "SharedRandomness.bernoulli_subset_mask",
     "randomness.subset", "randomness.subset_calls"),
    ("repro.comm.randomness", "SharedRandomness.permutation_rank",
     "randomness.other", "randomness.rank_fns"),
    ("repro.comm.randomness", "SharedRandomness.bernoulli_predicate",
     "randomness.other", "randomness.pred_fns"),
    ("repro.comm.randomness", "SharedRandomness.sample_without_replacement",
     "randomness.other", None),
    ("repro.comm.randomness",
     "SharedRandomness.sample_without_replacement_mask",
     "randomness.other", None),
    ("repro.comm.randomness", "SharedRandomness.shuffled",
     "randomness.other", None),
    ("repro.comm.randomness", "SharedRandomness.fork",
     "randomness.other", None),
    ("repro.comm.players", "make_players", "players.make", None),
    *(
        ("repro.comm.players", f"Player.{name}", "players.harvest",
         "players.calls")
        for name in (
            "suspected_bucket", "first_vertex_under_rank",
            "first_incident_edge_under_rank", "first_edge_under_rank",
            "edges_at_vertex_in_mask", "edges_within_mask",
            "edges_touching_both_mask", "sample_hits_vertex_mask",
            "any_incident_neighbor_in", "any_edge_index_in",
            "find_closing_edge", "find_closing_edge_for_pairs",
            "sorted_edges",
        )
    ),
    ("repro.comm.coordinator", "CoordinatorRuntime.collect", "coordinator",
     "coordinator.collects"),
    ("repro.comm.coordinator", "CoordinatorRuntime.collect_from",
     "coordinator", "coordinator.collects"),
    ("repro.comm.coordinator", "CoordinatorRuntime.broadcast", "coordinator",
     "coordinator.broadcasts"),
    ("repro.core.referee", "*", "referee", "referee.calls"),
    ("repro.patterns.matcher", "*", "matcher", "matcher.calls"),
    ("repro.streaming.stream", "*", "streaming", None),
    ("repro.streaming.reduction", "*", "streaming", None),
    *(
        (f"repro.lowerbounds.{module}", "*", "lowerbounds", None)
        for module in (
            "boolean_matching", "covered", "distributions", "embedding",
            "information", "oneway_analysis", "oneway_protocols",
            "symmetrization",
        )
    ),
    ("repro.lowerbounds.distributions", "MuDistribution.sample",
     "lowerbounds", None),
)

#: The protocol entry points: own group each, and their results' ledger
#: summaries are read on the way out.
PROTOCOLS: tuple[tuple[str, str], ...] = (
    ("repro.core.unrestricted", "find_triangle_unrestricted"),
    ("repro.core.simultaneous_low", "find_triangle_sim_low"),
    ("repro.core.simultaneous_high", "find_triangle_sim_high"),
    ("repro.core.oblivious", "find_triangle_sim_oblivious"),
    ("repro.core.exact_baseline", "exact_triangle_detection"),
    ("repro.core.subgraph_detection", "find_subgraph_simultaneous"),
)

#: Group of the Table 1 row frames the driver pushes itself.
ROW_GROUP = "analysis"

#: Counter ``ledger.row|<row id>|<scope>``: bits per ledger scope per
#: row (``|`` because row ids such as ``L4.5`` contain dots).
LEDGER_ROW_PREFIX = "ledger.row|"

_SCOPE_CHARS = re.compile(r"[^A-Za-z0-9_.-]")


def scope_name(label: str) -> str:
    """A ledger label as a metric-name fragment (``B~i`` -> ``B_i``)."""
    return _SCOPE_CHARS.sub("_", label)


def patch_references(original, replacement) -> list[tuple[object, str, object]]:
    """Point every ``repro`` module attribute holding ``original`` at
    ``replacement``; returns the patched sites for :func:`restore`."""
    sites = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                sites.append((module, name, original))
    return sites


def restore(sites: list[tuple[object, str, object]]) -> None:
    """Undo :func:`patch_references` (or :class:`Layers` patches)."""
    for owner, name, original in reversed(sites):
        setattr(owner, name, original)


def _public_functions(module) -> list[str]:
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(value)
        and value.__module__ == module.__name__
    )


def _resolve(module_name: str, attribute: str):
    """(owner, name) pairs one target expands to."""
    module = importlib.import_module(module_name)
    if attribute == "*":
        return [(module, name) for name in _public_functions(module)]
    if "." in attribute:
        cls_name, name = attribute.split(".")
        return [(getattr(module, cls_name), name)]
    return [(module, attribute)]


class BufferedRecorder(TraceRecorder):
    """A :class:`TraceRecorder` that keeps records in memory.

    Records are written on :meth:`flush` (the driver flushes when the
    run ends, fork workers at the end of every batch) instead of one
    file write per span, so tracing adds no I/O to the timed region.
    A fork child drops the parent's unflushed records and starts its own
    per-pid sibling file, like the base class, but keeps the parent's
    clock origin: a span the child opened before its first write took
    its start offset from that origin, and resetting it (as the base
    class does) would corrupt that span's duration.
    """

    def __init__(self, path) -> None:
        self._buffer: list[dict] = []
        super().__init__(path)

    def _write(self, record: dict) -> None:
        with self._lock:
            if os.getpid() != self._pid:
                self._tls = threading.local()
                self._buffer = []
                self._open_for_pid()
            self._buffer.append(record)

    def flush(self) -> None:
        with self._lock:
            if os.getpid() != self._pid or self._file is None:
                return  # a child that never wrote: the buffer is the parent's
            if self._buffer:
                self._file.write("".join(
                    json.dumps(record, separators=(",", ":")) + "\n"
                    for record in self._buffer
                ))
                self._file.flush()
                self._buffer = []

    def close(self) -> None:
        self.flush()
        super().close()


class Layers:
    """Installs, accounts for, and removes the per-layer wrappers."""

    def __init__(self, registry, recorder: BufferedRecorder | None = None
                 ) -> None:
        self.registry = registry
        self.recorder = recorder
        self.row = ""  # the Table 1 row being run; fork workers inherit it
        self.installed = False
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = [[0.0]]
        self._hot = {"rank": [0, 0.0], "pred": [0, 0.0]}
        self._driver_pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for module_name, attribute, group, count_key in TARGETS:
            for owner, name in _resolve(module_name, attribute):
                self._wrap_site(owner, name, group, count_key, wrappers)
        for module_name, name in PROTOCOLS:
            module = importlib.import_module(module_name)
            self._wrap_site(module, name, f"protocol.{name}",
                            f"protocol.{name}.calls", wrappers)
        # Replace every other reference to a wrapped function, so calls
        # through any import site are measured: module attributes
        # (``from x import f`` copies) and default arguments (seams such
        # as ``matcher=find_copy_in_rows``).
        def swap(value):
            found = wrappers.get(id(value))
            return found[1] if found is not None and found[0] is value else None

        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if swap(value) is not None:
                    self._patch(module, name, value, swap(value))
                functions = [value]
                if isinstance(value, type) and value.__module__ == module.__name__:
                    functions = list(vars(value).values())
                for function in functions:
                    self._patch_defaults(inspect.unwrap(function), swap)
        self.installed = True

    def _patch_defaults(self, function, swap) -> None:
        if not inspect.isfunction(function):
            return
        defaults = function.__defaults__ or ()
        if any(swap(value) for value in defaults):
            self._patch(function, "__defaults__", defaults, tuple(
                swap(value) or value for value in defaults))
        kwdefaults = function.__kwdefaults__ or {}
        if any(swap(value) for value in kwdefaults.values()):
            self._patch(function, "__kwdefaults__", kwdefaults, {
                key: swap(value) or value for key, value in kwdefaults.items()
            })

    def _wrap_site(self, owner, name: str, group: str, count_key: str | None,
                   wrappers: dict) -> None:
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(
            owner, name)
        wrapper = self._make_wrapper(raw, group, count_key, name)
        wrappers[id(raw)] = (raw, wrapper)
        self._patch(owner, name, raw, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches.clear()
        self.installed = False

    def patched_sites(self) -> list[tuple[object, str, object]]:
        """(owner, name, original) for every site currently patched."""
        return list(self._patches)

    # -- accounting -----------------------------------------------------

    def _after_fork(self) -> None:
        if self.installed:
            del self._stack[1:]
            self._stack[0][0] = 0.0
            for acc in self._hot.values():
                acc[0], acc[1] = 0, 0.0

    def _make_wrapper(self, fn, group: str, count_key: str | None,
                      name: str):
        counters = self.registry.counters
        stack = self._stack
        self_key = f"self.{group}"
        if name == "permutation_rank" or name == "bernoulli_predicate":
            kind = "rank" if name == "permutation_rank" else "pred"
            inner = self._timed(fn, counters, stack, self_key, count_key)

            @functools.wraps(fn)
            def closure_factory(*args, **kwargs):
                return self._count_closure(inner(*args, **kwargs), kind)

            return closure_factory
        wrapper = self._timed(fn, counters, stack, self_key, count_key)
        if name == "run_batch":
            return self._batch_wrapper(wrapper)
        if group.startswith("protocol."):
            return self._protocol_wrapper(wrapper)
        return wrapper

    @staticmethod
    def _timed(fn, counters: dict, stack: list, self_key: str,
               count_key: str | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                stack[-1][0] += elapsed
                counters[self_key] = (
                    counters.get(self_key, 0.0) + elapsed - frame[0]
                )
                if count_key is not None:
                    counters[count_key] = counters.get(count_key, 0) + 1

        return wrapper

    def _count_closure(self, fn, kind: str):
        acc = self._hot[kind]
        stack = self._stack

        def counted(item):
            start = perf()
            result = fn(item)
            elapsed = perf() - start
            stack[-1][0] += elapsed
            acc[0] += 1
            acc[1] += elapsed
            return result

        return counted

    def fold(self) -> None:
        """Move the hot-closure accumulators into the registry."""
        counters = self.registry.counters
        for kind, acc in self._hot.items():
            evals = f"randomness.{kind}_evals"
            seconds = f"self.randomness.{kind}"
            counters[evals] = counters.get(evals, 0) + acc[0]
            counters[seconds] = counters.get(seconds, 0.0) + acc[1]
            acc[0], acc[1] = 0, 0.0

    def _batch_wrapper(self, timed):
        counters = self.registry.counters

        @functools.wraps(timed)
        def run_batch(task, batch, *args, **kwargs):
            start = perf()
            try:
                return timed(task, batch, *args, **kwargs)
            finally:
                end = perf()
                in_worker = os.getpid() != self._driver_pid
                attrs = {"row": self.row, "point": batch.point_index,
                         "n": batch.specs[0].n,
                         "t0": start, "t1": end, "worker": in_worker}
                if in_worker and len(self._stack) == 1:
                    # The registry holds exactly this batch's deltas: the
                    # executor ships and resets it after every batch.
                    self.fold()
                    attrs["layers"] = {
                        key: value for key, value in counters.items()
                        if key.startswith("self.")
                    }
                obs_trace.event("bench.batch", **attrs)
                if in_worker and self.recorder is not None:
                    self.recorder.flush()

        return run_batch

    def _protocol_wrapper(self, timed):
        counters = self.registry.counters

        @functools.wraps(timed)
        def protocol(*args, **kwargs):
            result = timed(*args, **kwargs)
            cost = getattr(result, "cost", None)
            if cost is not None:
                for key, value in (("ledger.bits", cost.total_bits),
                                   ("ledger.messages", cost.messages),
                                   ("ledger.rounds", cost.rounds)):
                    counters[key] = counters.get(key, 0) + value
                for label, bits in cost.bits_by_label.items():
                    key = f"{LEDGER_ROW_PREFIX}{self.row}|{scope_name(label)}"
                    counters[key] = counters.get(key, 0) + bits
            return result

        return protocol

    # -- driver-side row frames ----------------------------------------

    def run_row(self, row_fn, **kwargs):
        """Call one Table 1 row inside an ``analysis`` frame."""
        return self._timed(row_fn, self.registry.counters, self._stack,
                           f"self.{ROW_GROUP}", None)(**kwargs)
