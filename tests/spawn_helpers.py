"""Module-level trial callables for the spawn-executor tests.

Spawn-method process pools receive the active task pickled through the
pool initializer; pickling a function serialises only its module-qualname
reference, so these callables must live at module level in an importable
module (closures defined inside a test body would not survive the trip).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.analysis.experiments import default_instance
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.obs import metrics as obs_metrics

spawn_instance = default_instance(epsilon=0.3, k=3)


def spawn_protocol(partition, seed):
    return find_triangle_sim_low(
        partition, SimLowParams(epsilon=0.3, delta=0.2), seed=seed
    )


def failing_protocol(partition, seed):
    raise KeyError(f"protocol broke at seed {seed}")


# ----------------------------------------------------------------------
# Tiny callables for the executor-path tests: a tuple "instance" and a
# protocol whose outcome is a pure function of (instance, seed), so a
# grid of any size runs in microseconds per trial.
# ----------------------------------------------------------------------

class TinyOutcome(NamedTuple):
    total_bits: float
    found: bool


def tiny_instance(n, d, seed):
    return (n, d, seed)


def tiny_protocol(instance, seed):
    return TinyOutcome(float(instance[0] + seed % 5), seed % 2 == 0)


def counting_protocol(instance, seed):
    """``tiny_protocol`` that also counts its calls in the active
    metrics registry (a no-op with metrics off)."""
    obs_metrics.inc("helper.protocol_calls")
    return tiny_protocol(instance, seed)


def failing_instance(n, d, seed):
    raise RuntimeError(f"generator broke at n={n}")


def failing_metrics(spec, instance, outcome):
    raise ValueError(f"metrics hook broke at point {spec.point_index}")


#: The grid point size at which ``late_failing_protocol`` raises.
LATE_FAILURE_N = 30


def late_failing_protocol(instance, seed):
    """Succeeds everywhere but at grid points of size ``LATE_FAILURE_N``."""
    if instance[0] == LATE_FAILURE_N:
        raise ZeroDivisionError(f"late failure at seed {seed}")
    return tiny_protocol(instance, seed)
