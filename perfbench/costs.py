"""Turn one traced run into per-layer metrics.

Inputs are the run's merged :class:`~repro.obs.metrics.MetricsRegistry`
snapshot (counts and per-group self times from every process) and its
trace directory: ``trace.jsonl`` from the driver plus one
``trace-p<pid>.jsonl`` sibling per fork worker.

Time in parallel runs
    A worker second is not a wall-clock second: while two workers run
    batches, the driver's clock advances by one second for two seconds
    of work.  Each worker batch therefore counts with weight
    ``w = mean over the batch of 1/c(t)``, where ``c(t)`` is the number
    of worker batches running at ``t``.  The weighted worker time equals
    the part of the driver's pool wait that some worker covered, which
    is moved out of ``executor`` self time into the layers that did the
    work.  Layer self times plus ``bench.unattributed_s`` then sum to the
    traced wall clock in serial and parallel runs alike.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from layers import LEDGER_ROW_PREFIX, PROTOCOLS, ROW_GROUP
from repro.obs.summarize import load_trace


def batch_table(trace_dir: Path) -> list[dict]:
    """One entry per executed batch: row, n, point, pid, seconds.

    Seconds and pid come from the program's own ``batch`` spans; the row
    and n come from the ``bench.batch`` event the wrapper emits right
    after each span closes in the same (per-process) file.
    """
    table = []
    for path in sorted(trace_dir.glob("trace*.jsonl")):
        last_span = None
        for record in load_trace(path):
            if record.get("type") == "span" and record["name"] == "batch":
                last_span = record
            elif (record.get("type") == "event"
                  and record["name"] == "bench.batch"):
                attrs = record["attrs"]
                entry = {
                    "row": attrs["row"], "n": attrs["n"],
                    "point": attrs["point"], "pid": record["pid"],
                    "worker": attrs["worker"], "seconds": last_span["dur"],
                    "t0": attrs["t0"], "t1": attrs["t1"],
                }
                if "layers" in attrs:
                    entry["layers"] = attrs["layers"]
                table.append(entry)
                last_span = None
    return table


def concurrency_weights(batches: list[dict]) -> list[float]:
    """``mean(1/c(t))`` over each batch's interval (see module doc)."""
    edges = sorted({b["t0"] for b in batches} | {b["t1"] for b in batches})
    weights = []
    for batch in batches:
        share = 0.0
        for left, right in zip(edges, edges[1:]):
            if right <= batch["t0"] or left >= batch["t1"]:
                continue
            running = sum(
                1 for other in batches
                if other["t0"] <= left and other["t1"] >= right
            )
            share += (right - left) / running
        span = batch["t1"] - batch["t0"]
        weights.append(share / span if span > 0 else 0.0)
    return weights


def attribute_self_times(counters: dict, batches: list[dict]
                         ) -> dict[str, float]:
    """Per-group self seconds on the driver's clock."""
    final = defaultdict(float)
    for key, value in counters.items():
        if key.startswith("self."):
            final[key[len("self."):]] += value
    in_workers = [b for b in batches if "layers" in b]
    covered = 0.0
    for batch, weight in zip(in_workers, concurrency_weights(in_workers)):
        covered += weight * (batch["t1"] - batch["t0"])
        for key, value in batch["layers"].items():
            final[key[len("self."):]] += (weight - 1.0) * value
    final["executor"] -= covered
    return dict(final)


def layer_metrics(snapshot: dict, trace_dir: Path, *, wall_s: float,
                  workers: int, row_seconds: dict[str, float],
                  row_ids: list[str], trials: int, instance_bytes: int
                  ) -> tuple[dict, list[dict], dict]:
    """(metrics, batch cost table, ledger bits per row and scope).

    ``ledger.bits.<scope>`` is emitted for every scope seen; the caller
    keeps the ones ``BENCHMARK.json`` lists.
    """
    counters = snapshot["counters"]
    batches = batch_table(trace_dir)
    selfs = attribute_self_times(counters, batches)

    def count(key: str) -> float:
        return counters.get(key, 0)

    def self_s(*groups: str) -> float:
        return sum(selfs.get(group, 0.0) for group in groups)

    busy = sum(b["seconds"] for b in batches)
    capacity = workers * wall_s
    hits, misses = count("cache.hit"), count("cache.miss")
    rank_evals, rank_fns = count("randomness.rank_evals"), count(
        "randomness.rank_fns")
    randomness_groups = [g for g in selfs if g.startswith("randomness.")]
    metrics = {f"row.{row}.s": row_seconds.get(row, 0.0) for row in row_ids}
    metrics.update({
        "analysis.self_s": self_s(ROW_GROUP),
        "executor.trials": trials,
        "executor.batches": count("executor.batches"),
        "executor.self_s": self_s("executor"),
        "executor.busy_s": busy,
        "executor.idle_s": capacity - busy,
        "executor.parallel_eff": busy / capacity if capacity else 0.0,
        "executor.critical_batch_s": max(
            (b["seconds"] for b in batches), default=0.0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.build_s": count("cache.build_seconds"),
        "cache.instance_bytes": instance_bytes,
        "cache.self_s": self_s("cache"),
        "generators.calls": count("generators.calls"),
        "generators.s": self_s("generators"),
        "generators.path.vectorized": count("generator.path.vectorized"),
        "generators.path.scalar": count("generator.path.scalar"),
        "partition.calls": count("partition.calls"),
        "partition.s": self_s("partition"),
        "kernel.select.bigint": count("kernel.select.bigint"),
        "kernel.select.packed": count("kernel.select.packed"),
        "kernel.select.csr": count("kernel.select.csr"),
        "triangles.calls": count("triangles.calls"),
        "triangles.s": self_s("triangles"),
        "randomness.streams": count("randomness.streams"),
        "randomness.streams_s": self_s("randomness.streams"),
        "randomness.rank_evals": rank_evals,
        "randomness.rank_s": self_s("randomness.rank"),
        "randomness.pred_evals": count("randomness.pred_evals"),
        "randomness.pred_s": self_s("randomness.pred"),
        "randomness.subset_calls": count("randomness.subset_calls"),
        "randomness.subset_s": self_s("randomness.subset"),
        "randomness.rank_evals_per_pick": (
            rank_evals / rank_fns if rank_fns else 0.0),
        "randomness.self_s": self_s(*randomness_groups),
        "players.calls": count("players.calls"),
        "players.self_s": self_s("players.harvest", "players.make"),
        "players.make_s": self_s("players.make"),
        "coordinator.collects": count("coordinator.collects"),
        "coordinator.broadcasts": count("coordinator.broadcasts"),
        "coordinator.self_s": self_s("coordinator"),
        "ledger.messages": count("ledger.messages"),
        "ledger.rounds": count("ledger.rounds"),
        "ledger.bits": count("ledger.bits"),
    })
    by_row: dict[str, dict[str, int]] = defaultdict(dict)
    totals: dict[str, int] = defaultdict(int)
    for key, value in counters.items():
        if key.startswith(LEDGER_ROW_PREFIX):
            _, row, scope = key.split("|")
            by_row[row][scope] = value
            totals[scope] += value
    for scope, bits in totals.items():
        metrics[f"ledger.bits.{scope}"] = bits
    for _, name in PROTOCOLS:
        metrics[f"protocol.{name}.calls"] = count(f"protocol.{name}.calls")
        metrics[f"protocol.{name}.self_s"] = self_s(f"protocol.{name}")
    metrics.update({
        "referee.calls": count("referee.calls"),
        "referee.s": self_s("referee"),
        "matcher.calls": count("matcher.calls"),
        "matcher.s": self_s("matcher"),
        "streaming.s": self_s("streaming"),
        "lowerbounds.s": self_s("lowerbounds"),
        "bench.unattributed_s": wall_s - sum(selfs.values()),
    })
    table = [
        {key: b[key] for key in ("row", "n", "point", "pid", "worker",
                                 "seconds")}
        for b in batches
    ]
    return metrics, table, by_row
