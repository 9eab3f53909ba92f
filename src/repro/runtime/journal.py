"""Durable trial journal: crash-safe, resumable sweep records.

A :class:`RunJournal` is an append-only JSONL file holding one line per
completed :class:`~repro.runtime.spec.TrialResult`, keyed by the
canonical encoding of the trial's spec coordinates
(:func:`~repro.runtime.cache.canonical_key_bytes` — the same
process-independent encoding the disk instance cache keys on).  Each
line carries a blake2b checksum of its payload, and every append is
flushed and (by default) fsync'd before :meth:`record` returns, so a
sweep killed at any instant leaves a journal whose intact prefix is
exactly the set of trials that completed.

The recovery contract:

* a **truncated or corrupt tail** (the classic crash-mid-write artifact)
  is detected by the checksum, logged, and truncated away on open — the
  journal stays usable and only the torn record is re-run;
* **resuming** a sweep (``run_trials(..., journal=..., resume=True)``)
  skips every spec already present and replays its recorded result
  verbatim, so an interrupted-and-resumed sweep returns records
  byte-identical to an uninterrupted one (asserted in
  ``tests/test_fault_tolerance.py``);
* only ``status == "ok"`` results are journaled — failed trials are
  retried on resume rather than replayed.

Results must be JSON-faithful to be journaled: ints, floats, bools,
strings, None, and ``extras`` dicts of the same (no tuples — JSON
round-trips them as lists).  :meth:`record` verifies the round trip and
raises :class:`JournalError` on an unfaithful result rather than
silently journaling something that would not resume byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
from pathlib import Path
from typing import Iterator

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.cache import canonical_key_bytes
from repro.runtime.spec import TrialResult, TrialSpec

__all__ = ["RunJournal", "JournalError", "spec_key"]

_LOGGER = logging.getLogger(__name__)

#: Format tag written in the header line; bump on incompatible changes.
_MAGIC = "repro-run-journal-v1"


class JournalError(RuntimeError):
    """A journal file cannot be used as asked (format, label, fidelity)."""


def spec_key(spec: TrialSpec) -> str:
    """The canonical journal key of one trial spec.

    Every coordinate that determines the trial's outcome participates —
    grid point, trial index, (n, d, k), the derived seed, and the
    instance seed — through the same canonical encoding the disk cache
    uses, so the key is identical in every process on every platform.
    """
    payload = canonical_key_bytes((
        "trial", spec.point_index, spec.trial_index,
        spec.n, spec.d, spec.k, spec.seed, spec.instance_seed,
    ))
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _result_to_json(result: TrialResult) -> dict:
    return {
        "point_index": result.point_index,
        "trial_index": result.trial_index,
        "n": result.n,
        "d": result.d,
        "k": result.k,
        "seed": result.seed,
        "bits": result.bits,
        "found": result.found,
        "extras": result.extras,
        "status": result.status,
        "error": result.error,
    }


def _result_from_json(payload: dict) -> TrialResult:
    # Interning restores the string-object sharing a live run has (the
    # ``"ok"`` status and extras keys are code constants shared across
    # every record), so a resumed record list pickles to the same bytes
    # as an uninterrupted one.
    extras = {sys.intern(key): value
              for key, value in payload["extras"].items()}
    return TrialResult(
        point_index=payload["point_index"],
        trial_index=payload["trial_index"],
        n=payload["n"],
        d=payload["d"],
        k=payload["k"],
        seed=payload["seed"],
        bits=payload["bits"],
        found=payload["found"],
        extras=extras,
        status=sys.intern(payload.get("status", "ok")),
        error=payload.get("error"),
    )


def _checksum(payload: str) -> str:
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


class RunJournal:
    """Append-only, checksummed JSONL record of completed trials.

    Parameters
    ----------
    path:
        The journal file.  Created (with parents) if missing; an
        existing file is validated and its records loaded.
    label:
        Optional free-form tag identifying *what* is being journaled
        (e.g. an instance key or row id).  Two sweeps running different
        protocols over the same grid produce identical spec keys, so
        journaling them into one file would silently serve one
        protocol's results to the other; a label mismatch on reopen
        raises :class:`JournalError` instead.
    fsync:
        ``True`` (default) fsyncs after every append — the crash-safe
        setting.  ``False`` trades durability of the last few records
        for throughput (the OS still sees every write immediately).
    """

    def __init__(self, path: str | Path, *, label: str | None = None,
                 fsync: bool = True) -> None:
        self.path = Path(path)
        self.label = label
        self.fsync = fsync
        self._entries: dict[str, TrialResult] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._replay_existing()
        self._handle = self.path.open("a", encoding="utf-8")
        if self._needs_header:
            self._append_line(json.dumps(
                {"journal": _MAGIC, "label": self.label}, sort_keys=True
            ))

    # ------------------------------------------------------------------
    # Loading / recovery
    # ------------------------------------------------------------------

    def _replay_existing(self) -> None:
        self._needs_header = True
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        if not raw:
            return
        valid_bytes = 0
        torn = False
        position = 0
        while position < len(raw):
            newline = raw.find(b"\n", position)
            line = raw[position:] if newline < 0 else raw[position:newline]
            entry = self._parse_line(line) if line else ("blank", "", None)
            if entry is None or newline < 0:
                # Corrupt record, or a final line missing its newline (a
                # crash mid-append; keeping it would corrupt the next
                # append by concatenation).  Either way: torn tail.
                torn = True
                break
            position = valid_bytes = newline + 1
            kind, key, result = entry
            if kind == "record":
                self._entries[key] = result
        if torn:
            _LOGGER.warning(
                "journal %s: corrupt or torn record after byte %d "
                "(%d intact records); truncating the damaged tail",
                self.path, valid_bytes, len(self._entries),
            )
            obs_trace.event("journal.truncated", path=str(self.path),
                            valid_bytes=valid_bytes,
                            intact=len(self._entries))
            obs_metrics.inc("journal.truncations")
            with self.path.open("r+b") as handle:
                handle.truncate(valid_bytes)
        if self._entries:
            obs_metrics.inc("journal.loaded", len(self._entries))

    def _parse_line(self, line: bytes):
        try:
            entry = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict):
            return None
        if "journal" in entry:
            if entry.get("journal") != _MAGIC:
                raise JournalError(
                    f"{self.path} is not a {_MAGIC} file "
                    f"(header says {entry.get('journal')!r})"
                )
            if self.label is not None and entry.get("label") != self.label:
                raise JournalError(
                    f"journal {self.path} was written for label "
                    f"{entry.get('label')!r}, not {self.label!r}; refusing "
                    "to mix records from different runs in one file"
                )
            if self.label is None:
                self.label = entry.get("label")
            self._needs_header = False
            return ("header", "", None)
        key = entry.get("key")
        payload = entry.get("result")
        checksum = entry.get("checksum")
        if not isinstance(key, str) or not isinstance(payload, dict):
            return None
        body = json.dumps(payload, sort_keys=True)
        if checksum != _checksum(key + body):
            return None
        try:
            result = _result_from_json(payload)
        except (KeyError, TypeError):
            return None
        return ("record", key, result)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _append_line(self, text: str) -> None:
        self._handle.write(text + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def record(self, spec: TrialSpec, result: TrialResult) -> None:
        """Durably append one completed result, keyed by its spec.

        Idempotent: re-recording a spec already in the journal is a
        no-op (retries and resumed sweeps recompute deterministic
        results, so the stored record is already correct).  Only
        ``status == "ok"`` results are persisted — errors are transient
        by policy and must be retried on resume.
        """
        if result.status != "ok":
            return
        key = spec_key(spec)
        if key in self._entries:
            return
        payload = _result_to_json(result)
        body = json.dumps(payload, sort_keys=True)
        if _result_from_json(json.loads(body)) != result:
            raise JournalError(
                "result does not survive the JSON round trip (journaled "
                "sweeps need JSON-faithful extras: ints/floats/bools/"
                f"strings/None, no tuples): {result!r}"
            )
        with obs_trace.span("journal.append"):
            self._append_line(json.dumps(
                {"key": key, "result": payload,
                 "checksum": _checksum(key + body)},
                sort_keys=True,
            ))
        obs_metrics.inc("journal.appends")
        self._entries[key] = result

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, spec: TrialSpec) -> TrialResult | None:
        """The recorded result for ``spec``, or ``None`` if not journaled."""
        return self._entries.get(spec_key(spec))

    def __contains__(self, spec: TrialSpec) -> bool:
        return spec_key(spec) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def results(self) -> Iterator[TrialResult]:
        """All journaled results, in append order."""
        return iter(self._entries.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"RunJournal({str(self.path)!r}, label={self.label!r}, "
            f"records={len(self._entries)})"
        )
