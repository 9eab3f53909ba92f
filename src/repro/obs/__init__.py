"""Run-level observability: trace spans and metrics.

Two layers, both zero-RNG-impact and both off by default:

- :mod:`repro.obs.trace` — :class:`TraceRecorder`, structured JSONL
  span/event records with monotonic durations and parent/child ids.
  The trace is the one place time is recorded.
- :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, process-local
  counters and gauges with snapshot/merge so parallel workers ship
  their numbers home.

``python -m repro.obs summarize <trace.jsonl|dir>`` renders a run
report from a recorded trace (phase breakdown, per-row times, event
and log counts, cache effectiveness, trial count).
"""

from .metrics import (
    MetricsRegistry,
    get_metrics,
    set_metrics,
    use_metrics,
)
from .trace import (
    TraceRecorder,
    event,
    get_recorder,
    set_recorder,
    span,
    use_recorder,
)

__all__ = [
    "MetricsRegistry",
    "TraceRecorder",
    "event",
    "get_metrics",
    "get_recorder",
    "set_metrics",
    "set_recorder",
    "span",
    "use_metrics",
    "use_recorder",
]
