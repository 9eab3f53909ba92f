"""Structured trace recording: JSONL spans and events.

A :class:`TraceRecorder` writes one JSON object per line to a trace
file.  Two record types:

``span``
    A named interval with a monotonic-clock start offset and duration,
    a process-unique id, and the id of its parent span (``None`` for a
    root).  Spans nest via a thread-local stack, so every thread keeps
    a coherent parent/child chain of its own.

``event``
    A point-in-time occurrence attached to the innermost open span of
    the emitting thread, if any.  Two kinds are emitted: ``metrics``
    (a metrics snapshot) and ``log`` (a mirrored ``repro`` log record).

As with metrics, the recorder is installed as a module global
(:func:`set_recorder` / :func:`use_recorder`, or
``run_sweep(trace=...)``).  When no recorder is installed —
the default — :func:`span` returns a shared null context manager and
:func:`event` returns immediately, so instrumentation costs one global
load plus a ``None`` check.  Nothing in this module reads or seeds a
random number generator; tracing cannot perturb any record.

File layout: the first line is a header
``{"trace": "repro-trace-v1", "pid": ..., "start": ...}``.  ``t0``/``t``
offsets are seconds since that header's monotonic ``start``, so
durations are immune to wall-clock steps.  A recorder detects running
in a forked child (pid change) and transparently reopens a sibling file
``<stem>-p<pid><suffix>`` so each process appends only to its own file;
``python -m repro.obs summarize`` accepts a directory and stitches the
family back together.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import threading
import time
from pathlib import Path
from typing import Iterator

__all__ = [
    "TraceRecorder",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "span",
    "event",
]

TRACE_MAGIC = "repro-trace-v1"


class _SpanHandle:
    """An open span; a context manager that writes the record on exit."""

    __slots__ = ("recorder", "name", "span_id", "parent_id", "t0", "attrs")

    def __init__(self, recorder: "TraceRecorder", name: str,
                 span_id: str, parent_id: str | None,
                 t0: float, attrs: dict | None) -> None:
        self.recorder = recorder
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t0 = t0
        self.attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            attrs = dict(self.attrs or {})
            attrs["error"] = exc_type.__name__
            self.attrs = attrs
        self.recorder._close_span(self)
        return False


class _NullSpan:
    """The span handle used when tracing is off — a shared do-nothing
    context manager, so disabled instrumentation allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class TraceRecorder:
    """Writes span/event JSONL records to ``path``.

    Thread-safe: a lock serialises writes, and the span stack is
    thread-local so concurrent threads nest independently.  Close with
    :meth:`close` (or use as a context manager); records are flushed on
    every write, so even an abandoned recorder leaves a readable file.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._requested_path = Path(path)
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._counter = 0
        self._pid = -1  # force open on first write
        self._file: io.TextIOBase | None = None
        self._start = time.monotonic()
        self._open_for_pid()

    # -- file management -----------------------------------------------

    def _path_for_pid(self, pid: int) -> Path:
        if self._pid == -1 or pid == self._root_pid:
            return self._requested_path
        stem = self._requested_path.stem
        suffix = self._requested_path.suffix or ".jsonl"
        return self._requested_path.with_name(f"{stem}-p{pid}{suffix}")

    def _open_for_pid(self) -> None:
        pid = os.getpid()
        if self._pid == -1:
            self._root_pid = pid
        path = self._path_for_pid(pid)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(path, "a", encoding="utf-8")
        self._pid = pid
        self.path = path
        header = {"trace": TRACE_MAGIC, "pid": pid,
                  "start": self._start, "wall": time.time()}
        self._file.write(json.dumps(header, separators=(",", ":")) + "\n")
        self._file.flush()

    def _write(self, record: dict) -> None:
        with self._lock:
            if os.getpid() != self._pid:
                # Forked child inherited the recorder: its thread-local
                # stack and file handle belong to the parent.  Reopen a
                # per-pid sibling file and start a fresh stack so the
                # child's spans never interleave into the parent's file.
                # The clock origin stays the parent's: a span the child
                # opened before this first write measured its start
                # from it, and the header records it for the new file.
                self._tls = threading.local()
                self._open_for_pid()
            file = self._file
            if file is None or file.closed:
                return
            file.write(json.dumps(record, separators=(",", ":")) + "\n")
            file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None and not self._file.closed:
                self._file.flush()
                self._file.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    # -- span / event API ----------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _next_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"{os.getpid():x}-{self._counter:x}"

    def span(self, name: str, **attrs) -> _SpanHandle:
        """Open a named span as a context manager; nests under the
        innermost open span of the calling thread."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        handle = _SpanHandle(
            self, name, self._next_id(), parent_id,
            time.monotonic() - self._start, attrs or None,
        )
        stack.append(handle)
        return handle

    def _close_span(self, handle: _SpanHandle) -> None:
        stack = self._stack()
        # Exits normally come in LIFO order; tolerate a mismatched exit
        # (e.g. a generator span collected late) by removing wherever
        # the handle sits rather than corrupting the stack.
        if stack and stack[-1] is handle:
            stack.pop()
        elif handle in stack:
            stack.remove(handle)
        record = {
            "type": "span",
            "name": handle.name,
            "id": handle.span_id,
            "parent": handle.parent_id,
            "pid": os.getpid(),
            "t0": round(handle.t0, 9),
            "dur": round(time.monotonic() - self._start - handle.t0, 9),
        }
        if handle.attrs:
            record["attrs"] = handle.attrs
        self._write(record)

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event under the current span."""
        stack = self._stack()
        record = {
            "type": "event",
            "name": name,
            "span": stack[-1].span_id if stack else None,
            "pid": os.getpid(),
            "t": round(time.monotonic() - self._start, 9),
        }
        if attrs:
            record["attrs"] = attrs
        self._write(record)


# ----------------------------------------------------------------------
# The active recorder (module global, mirrors obs.metrics)
# ----------------------------------------------------------------------
_RECORDER: TraceRecorder | None = None


def get_recorder() -> TraceRecorder | None:
    """The currently installed recorder, or ``None`` (tracing off)."""
    return _RECORDER


def set_recorder(recorder: TraceRecorder | None) -> TraceRecorder | None:
    """Install ``recorder`` as the active one; returns the previous.

    Also attaches/detaches the log bridge: while any recorder is
    active, WARNING-and-above records from the ``repro`` logger tree
    are mirrored into the trace as ``log`` events, so the runtime's
    diagnostics land in the same timeline as the spans they interrupt.
    """
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    _sync_log_bridge()
    return previous


@contextlib.contextmanager
def use_recorder(recorder: TraceRecorder | None) -> Iterator[None]:
    """Install ``recorder`` for the duration of the block."""
    previous = set_recorder(recorder)
    try:
        yield
    finally:
        set_recorder(previous)


def span(name: str, **attrs):
    """Open a span on the active recorder — free when tracing is off."""
    if _RECORDER is None:
        return _NULL_SPAN
    return _RECORDER.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Emit an event on the active recorder — free when tracing is off."""
    if _RECORDER is not None:
        _RECORDER.event(name, **attrs)


# ----------------------------------------------------------------------
# Log bridge: repro.* logging records -> trace events
# ----------------------------------------------------------------------
import logging  # noqa: E402  (kept at the bottom with its sole consumer)


class TraceLogHandler(logging.Handler):
    """Mirrors ``repro`` log records into the active trace as events."""

    def emit(self, record: logging.LogRecord) -> None:
        recorder = _RECORDER
        if recorder is None:
            return
        try:
            recorder.event(
                "log",
                level=record.levelname,
                logger=record.name,
                message=record.getMessage(),
            )
        except Exception:  # never let tracing break the logged path
            self.handleError(record)


_LOG_BRIDGE = TraceLogHandler(level=logging.WARNING)


def _sync_log_bridge() -> None:
    logger = logging.getLogger("repro")
    if _RECORDER is not None:
        if _LOG_BRIDGE not in logger.handlers:
            logger.addHandler(_LOG_BRIDGE)
    else:
        if _LOG_BRIDGE in logger.handlers:
            logger.removeHandler(_LOG_BRIDGE)
