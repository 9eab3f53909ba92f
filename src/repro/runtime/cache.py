"""Instance cache: reuse generated inputs across protocols.

Table 1 compares several protocols at the same grid points, and instance
generation (planted epsilon-far graphs plus partitioning) is a large
fraction of sweep wall-time.  The cache memoises built instances under a
key that identifies the *construction*, never the protocol:

    (instance_key, n, d, k, seed)

so two sweeps that pass the same ``instance_key`` and share a grid point
and sweep seed get the very same instance — the second protocol pays
nothing for generation and, just as importantly, is measured on
identical inputs.

An entry lives until the process drops the cache (or LRU evicts it), so
the lifetime rule is the caller's: pass a cache only to sweeps whose
instances a *later* sweep reads.  Table 1 does so for sim-low (re-read
by X-1), T1-R2c's aware sweep (re-read by its oblivious sweep) and
T1-R3's µ samples (re-read by every larger reservoir size); its other
sweeps build uncached, and the executor drops each of their instances
after its last trial.  On a quick run that leaves 35 entries at the end
instead of 84, for the same 111 hits.  With the executor's own rule (a
batch drops each instance after its last reader), this took perfbench
peak RSS from 62.9 to 49.9 MiB on ``table1_full_rest``, 56.1 to 45.7
MiB on ``table1_quick`` and 82.0 to 75.3 MiB on ``table1_quick_w2``
(``--seconds 20 --trace 0``, medians of parent/change pairs, 2 vCPUs).

What is cached is the instance's input, not protocol scratch: a cached
:class:`~repro.graphs.partition.EdgePartition` keeps its graph and view
key arrays, while the players a batch builds on it (degree arrays,
neighbour indexes, rows) are released after the batch's last trial on
it (:meth:`~repro.runtime.executor.TrialTask.run_batch`), and a later
hit rebuilds them from the keys.

The cache is a per-process LRU dict.  Serial sweeps that share a cache
object hit it directly.  Forked pool workers inherit a snapshot of it
(copy-on-write) and their own additions die with them; a spawn pool
pickles it along with the task.  Either way a worker that misses
rebuilds the instance from its key, and since every instance is a pure
function of that key the records do not change — only the build is
repeated.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.obs import metrics as obs_metrics

__all__ = ["InstanceCache", "instance_nbytes"]

#: Recursion cap for :func:`instance_nbytes` — instances are shallow
#: (partition -> graph, tuples of results), deep cycles are not.
_NBYTES_MAX_DEPTH = 4


def instance_nbytes(value: Any, _depth: int = 0) -> int:
    """Best-effort adjacency bytes held by a cached instance.

    Recognises anything exposing an integer ``nbytes`` (``Graph``
    reports its kernel's ``memory_bytes`` once built plus its edge-key
    array's bytes while it holds one, so sizing builds nothing;
    ``EdgePartition`` adds its view key arrays to its graph's),
    follows a ``graph`` attribute (``PlantedInstance``), and sums over
    tuples/lists.  Everything else counts zero — this sizes the
    dominant adjacency payload for sweep logs, it is not a full object
    graph measurement.
    """
    if _depth >= _NBYTES_MAX_DEPTH or value is None:
        return 0
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    total = 0
    graph = getattr(value, "graph", None)
    if graph is not None:
        total += instance_nbytes(graph, _depth + 1)
    elif isinstance(value, (tuple, list)):
        for item in value:
            total += instance_nbytes(item, _depth + 1)
    return total


class InstanceCache:
    """Per-process LRU memory cache of built instances."""

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.build_seconds = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_build(self, key: Hashable,
                     builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on first use."""
        if key in self._entries:
            self.hits += 1
            obs_metrics.inc("cache.hit")
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        obs_metrics.inc("cache.miss")
        start = time.perf_counter()
        value = builder()
        self.builds += 1
        elapsed = time.perf_counter() - start
        self.build_seconds += elapsed
        obs_metrics.inc("cache.build")
        obs_metrics.inc("cache.build_seconds", elapsed)
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return value

    def stats(self) -> dict:
        """Counter snapshot — the capacity signal sweeps log.

        **Snapshot semantics**: the returned dict is a point-in-time
        copy, never a live view, and the counters behind it accumulate
        over the cache object's whole lifetime — a cache shared across
        several sweeps reports their *combined* traffic.  For per-run
        numbers, call :meth:`reset` at the start of the run (or diff
        two snapshots); ``entries``/``instance_bytes`` describe current
        occupancy and are unaffected by ``reset``.

        Every miss calls ``builder()`` once; ``builds`` counts the calls
        that returned and ``build_seconds`` the wall-clock they took.
        ``instance_bytes`` sums :func:`instance_nbytes` over the live
        entries — what sweep logs report as resident instance memory at
        scale.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "builds": self.builds,
            "build_seconds": self.build_seconds,
            "instance_bytes": sum(
                instance_nbytes(value) for value in self._entries.values()
            ),
        }

    def reset(self) -> None:
        """Zero the traffic counters, keeping the cached entries.

        The per-run companion to :meth:`stats`: reset at the start of a
        sweep, and the next snapshot describes that sweep alone — while
        the instances themselves stay warm for reuse.
        """
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.build_seconds = 0.0

    def clear(self) -> None:
        """Drop every cached entry and zero the counters."""
        self._entries.clear()
        self.reset()
