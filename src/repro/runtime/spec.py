"""Trial data model: what to run (`TrialSpec`) and what happened
(`TrialResult`).

Specs and results are plain frozen dataclasses of primitives so they
cross process boundaries cheaply — the heavyweight objects (graphs,
partitions, protocol closures) never travel; workers rebuild them from
the spec's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

from repro.runtime.seeding import derive_seed

__all__ = [
    "TrialSpec",
    "TrialResult",
    "TrialBatch",
    "build_specs",
    "batch_specs",
]


@dataclass(frozen=True)
class TrialSpec:
    """One trial to execute: a grid point, a trial index, a derived seed.

    ``seed`` drives both instance generation and protocol coins, exactly
    as the serial harness always did, so any two protocols given the same
    spec see the same input instance.

    ``instance_seed`` optionally decouples instance generation from the
    protocol coins: trials of a grid point built with
    ``build_specs(..., shared_instances=True)`` share one instance seed
    (so the batched engine builds the point's instance once) while each
    trial still draws fresh public coins from ``seed``.  ``None`` keeps
    the historical coupling.
    """

    point_index: int
    trial_index: int
    n: int
    d: float
    k: int
    seed: int
    instance_seed: int | None = None

    @property
    def effective_instance_seed(self) -> int:
        """The seed instance generation actually uses."""
        return self.seed if self.instance_seed is None else self.instance_seed


@dataclass(frozen=True)
class TrialResult:
    """One trial's outcome, echoing the spec coordinates it came from.

    ``extras`` holds optional per-trial metrics (picklable primitives
    only) recorded by a :class:`~repro.runtime.executor.TrialTask`
    metrics hook.

    ``status`` is always ``"ok"``: a trial that fails raises, and the
    run fails fast, so every record that exists carries a real
    measurement.  It is a class constant rather than a field, so it
    never enters the pickled state.
    """

    point_index: int
    trial_index: int
    n: int
    d: float
    k: int
    seed: int
    bits: float
    found: bool
    extras: dict = field(default_factory=dict)
    status: ClassVar[str] = "ok"

    @classmethod
    def from_outcome(cls, spec: TrialSpec, bits: float, found: bool,
                     extras: dict | None = None) -> "TrialResult":
        return cls(
            point_index=spec.point_index,
            trial_index=spec.trial_index,
            n=spec.n,
            d=spec.d,
            k=spec.k,
            seed=spec.seed,
            bits=float(bits),
            found=bool(found),
            extras=dict(extras) if extras else {},
        )


@dataclass(frozen=True)
class TrialBatch:
    """All trials of one grid point — the executor's unit of work.

    Sharding stays by grid point: a parallel run hands whole batches to
    workers, so the per-batch instance reuse never crosses a process
    boundary and records stay byte-identical to per-trial execution.
    The pool submits batches largest first (by the sum of ``n·d·k`` over
    their specs) and collects them in batch order, so the order of the
    batches given to an executor is the order of its records.
    """

    point_index: int
    specs: tuple[TrialSpec, ...]

    def __len__(self) -> int:
        return len(self.specs)


def build_specs(grid: Sequence[tuple[int, float, int]], trials: int,
                sweep_seed: int, *,
                shared_instances: bool = False) -> list[TrialSpec]:
    """Expand an (n, d, k) grid into one spec per (point, trial).

    Specs come out in deterministic row-major order — point major, trial
    minor — which is also the order executors return results in.

    ``shared_instances=True`` gives every trial of a grid point the same
    instance seed (derived from the point alone, on an independent
    ``"instance"`` stream) so the whole point runs against one instance;
    protocol coins stay per-trial.  The default keeps the historical
    fresh-instance-per-trial behaviour and produces specs identical to
    earlier releases.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    specs: list[TrialSpec] = []
    for point_index, (n, d, k) in enumerate(grid):
        instance_seed = (
            derive_seed(sweep_seed, point_index, 0, stream="instance")
            if shared_instances else None
        )
        for trial_index in range(trials):
            specs.append(
                TrialSpec(
                    point_index=point_index,
                    trial_index=trial_index,
                    n=n,
                    d=d,
                    k=k,
                    seed=derive_seed(sweep_seed, point_index, trial_index),
                    instance_seed=instance_seed,
                )
            )
    return specs


def batch_specs(specs: Sequence[TrialSpec]) -> list[TrialBatch]:
    """Group specs into per-grid-point batches, first-seen point order.

    Within a batch, specs keep their relative order, so flattening the
    batches of a point-major spec list reproduces the list exactly.
    """
    groups: dict[int, list[TrialSpec]] = {}
    for spec in specs:
        groups.setdefault(spec.point_index, []).append(spec)
    return [
        TrialBatch(point_index=point, specs=tuple(members))
        for point, members in groups.items()
    ]
