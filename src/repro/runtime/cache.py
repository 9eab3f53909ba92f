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

What is cached is the instance's input, not protocol scratch: a cached
:class:`~repro.graphs.partition.EdgePartition` keeps its graph and view
key arrays, while the players a batch builds on it (degree arrays,
neighbour indexes, rows) are released when that batch ends
(:meth:`~repro.runtime.executor.TrialTask.run_batch`), and a later hit
rebuilds them from the keys.

Two tiers:

* **memory** — an LRU dict, per process.  Serial sweeps that share a
  cache object hit it directly.  Forked workers inherit a snapshot of it
  (copy-on-write) but their own additions die with them.
* **disk** — optional pickle files under ``disk_dir``, shared by every
  process that points at the directory; this is what lets parallel
  workers of a *later* sweep reuse instances a *previous* sweep built.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Hashable

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["InstanceCache", "canonical_key_bytes", "instance_nbytes"]

_LOGGER = logging.getLogger(__name__)

#: Recursion cap for :func:`instance_nbytes` — instances are shallow
#: (partition -> graph, tuples of results), deep cycles are not.
_NBYTES_MAX_DEPTH = 4


def instance_nbytes(value: Any, _depth: int = 0) -> int:
    """Best-effort adjacency bytes held by a cached instance.

    Recognises anything exposing an integer ``nbytes`` (``Graph``
    reports its kernel's ``memory_bytes``, or its edge-key array's
    bytes while the kernel is unbuilt, so sizing builds nothing;
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


def canonical_key_bytes(key: Any) -> bytes:
    """A canonical, process-independent encoding of a cache key.

    ``repr`` is unstable across processes for keys containing dicts
    (insertion order), sets (hash order), or objects with default reprs
    (memory addresses) — silent disk-tier misses or collisions.  This
    encoding is recursive and type-tagged: dicts sort by encoded key,
    sets sort by encoded element, floats use shortest-roundtrip repr,
    and anything un-encodable is rejected loudly so a bad key never
    degrades into a wrong path.
    """
    parts: list[str] = []
    _encode_key(key, parts)
    return "".join(parts).encode()


def _encode_key(value: Any, out: list[str]) -> None:
    if value is None:
        out.append("N;")
    elif value is True:
        out.append("B1;")
    elif value is False:
        out.append("B0;")
    elif isinstance(value, int):
        out.append(f"I{value};")
    elif isinstance(value, float):
        out.append(f"F{value!r};")
    elif isinstance(value, str):
        out.append(f"S{len(value)}:{value};")
    elif isinstance(value, bytes):
        out.append(f"Y{value.hex()};")
    elif isinstance(value, (tuple, list)):
        out.append("T(" if isinstance(value, tuple) else "L(")
        for item in value:
            _encode_key(item, out)
        out.append(")")
    elif isinstance(value, (set, frozenset)):
        encoded = []
        for item in value:
            item_parts: list[str] = []
            _encode_key(item, item_parts)
            encoded.append("".join(item_parts))
        out.append("E{" + "".join(sorted(encoded)) + "}")
    elif isinstance(value, dict):
        encoded_items = []
        for k, v in value.items():
            k_parts: list[str] = []
            _encode_key(k, k_parts)
            v_parts: list[str] = []
            _encode_key(v, v_parts)
            encoded_items.append(("".join(k_parts), "".join(v_parts)))
        out.append(
            "D{" + "".join(k + "=" + v for k, v in sorted(encoded_items))
            + "}"
        )
    else:
        raise TypeError(
            f"cache key component {value!r} of type "
            f"{type(value).__name__} has no canonical encoding; use "
            "ints/floats/strings/bytes/bools/None and "
            "tuples/lists/sets/dicts of them"
        )


class InstanceCache:
    """LRU memory cache with an optional on-disk pickle tier."""

    def __init__(self, max_entries: int = 128,
                 disk_dir: str | Path | None = None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.build_seconds = 0.0
        self.quarantined = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _disk_path(self, key: Hashable) -> Path | None:
        if self.disk_dir is None:
            return None
        digest = hashlib.blake2b(canonical_key_bytes(key), digest_size=16)
        return self.disk_dir / f"{digest.hexdigest()}.pkl"

    def get_or_build(self, key: Hashable,
                     builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on first use."""
        if key in self._entries:
            self.hits += 1
            obs_metrics.inc("cache.hit")
            self._entries.move_to_end(key)
            return self._entries[key]
        path = self._disk_path(key)
        if path is not None and path.exists():
            try:
                with path.open("rb") as handle:
                    value = pickle.load(handle)
            except Exception as error:
                # A torn write from a killed worker, disk corruption, or
                # a stale incompatible pickle must not take the sweep
                # down — quarantine the file (keeping it for post-mortem)
                # and rebuild the instance as a plain miss.
                quarantine = path.with_suffix(".corrupt")
                with contextlib.suppress(OSError):
                    os.replace(path, quarantine)
                self.quarantined += 1
                obs_metrics.inc("cache.quarantined")
                obs_trace.event("cache_quarantine", path=str(path),
                                error=type(error).__name__)
                _LOGGER.warning(
                    "instance cache entry %s is corrupt (%s: %s); "
                    "quarantined to %s and rebuilding",
                    path, type(error).__name__, error, quarantine,
                )
            else:
                self.hits += 1
                obs_metrics.inc("cache.hit")
                obs_metrics.inc("cache.disk_hit")
                self._store_memory(key, value)
                return value
        self.misses += 1
        obs_metrics.inc("cache.miss")
        start = time.perf_counter()
        value = builder()
        self.builds += 1
        elapsed = time.perf_counter() - start
        self.build_seconds += elapsed
        obs_metrics.inc("cache.build")
        obs_metrics.inc("cache.build_seconds", elapsed)
        self._store_memory(key, value)
        if path is not None:
            # Per-writer tmp file + atomic rename: concurrent builders of
            # the same key each install a complete pickle, last one wins.
            fd, tmp_name = tempfile.mkstemp(
                dir=self.disk_dir, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(value, handle)
                os.replace(tmp_name, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_name)
                raise
        return value

    def _store_memory(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def stats(self) -> dict:
        """Counter snapshot — the capacity signal sweeps log.

        **Snapshot semantics**: the returned dict is a point-in-time
        copy, never a live view, and the counters behind it accumulate
        over the cache object's whole lifetime — a cache shared across
        several sweeps reports their *combined* traffic.  For per-run
        numbers, call :meth:`reset` at the start of the run (or diff
        two snapshots); ``entries``/``instance_bytes`` describe current
        occupancy and are unaffected by ``reset``.

        ``builds``/``build_seconds`` isolate real construction work from
        bookkeeping: a miss served from the disk tier counts as a hit,
        so ``builds`` is exactly the number of times ``builder()`` ran
        and ``build_seconds`` the wall-clock it consumed.
        ``instance_bytes`` sums :func:`instance_nbytes` over the live
        memory tier — what sweep logs report as resident instance
        memory at scale.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "builds": self.builds,
            "build_seconds": self.build_seconds,
            "quarantined": self.quarantined,
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
        self.quarantined = 0

    def clear(self) -> None:
        """Drop every cached entry and zero the counters."""
        self._entries.clear()
        self.reset()
