"""Table 1 regeneration benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload table1_quick --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen: ``interactions.json``):

``table1_quick``
    All 11 quick rows, serial, one shared instance cache — the same work
    as ``python -m repro.analysis``.
``table1_full_rest``
    The ten rows other than T1-R1 at ``--full`` sizes, serial.
``table1_quick_w2``
    The quick rows at ``workers=2`` (fork pool, disk-tier cache).

Every repetition runs in a fresh process (``workload.py``) with an empty
``InstanceCache``, as every CLI invocation does.  ``--seed`` is the base
seed every row receives, so one seed always builds the same instances.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (first row call
to last ``RowReport``, median over repetitions), ``setup_s`` (process
start until ready for the first row, median over several set-ups),
``peak_rss_mb`` (driver plus largest worker, median) and ``ok_frac``
(1 - ``failed_frac``).  The run repeats the workload until the
repetitions add up to ``--seconds`` and it has the workload's minimum
number of them (``workload.WORKLOADS``).

``--trace 1`` runs one untraced and one traced repetition and prints the
per-layer metrics (``layers.py``, ``costs.py``) plus
``bench.trace_overhead`` (traced wall over untraced wall), and writes
the per-grid-point batch cost table to ``batch_costs.json``.

Outputs are checked: every trial must end ``ok``; T1-R1's triangle-free
controls must never report a triangle; every row's ``measured`` value
must lie in its band (``bands.json``); ``RowReport``s must be identical
across repetitions and between the traced and untraced runs.  Each check
and each trial is one operation of ``attempted``/``failed``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (every repetition,
the per-grid-point batch cost table, ledger bits per row and scope) go
to ``perfbench/out/<workload>-seed<seed>-trace<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every run must end within this many seconds.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A repetition failed to produce a result."""


class Runner:
    def __init__(self, out_dir: Path, deadline: float) -> None:
        self.out_dir = out_dir
        self.deadline = deadline
        tmp = out_dir / "tmp"  # the parallel cache's disk tier lands here
        tmp.mkdir(parents=True)
        self.env = dict(os.environ)
        existing = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + existing if existing else "")
        self.env["TMPDIR"] = str(tmp)
        self.count = 0

    def spawn(self, *args: str) -> tuple[float, dict]:
        """Run ``workload.py`` once; (seconds from start to ready, result)."""
        self.count += 1
        out = self.out_dir / f"rep{self.count}.json"
        command = [sys.executable, str(HERE / "workload.py"), "--out",
                   str(out), *args]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before a repetition could start")
        started = time.monotonic()
        # Own session, so a timeout or a termination of this process can
        # stop the pool workers too.
        process = subprocess.Popen(command, cwd=ROOT, env=self.env,
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.PIPE, text=True,
                                   start_new_session=True)
        try:
            _, stderr = process.communicate(timeout=remaining)
        except BaseException as error:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            if isinstance(error, subprocess.TimeoutExpired):
                raise BenchError(
                    "a repetition overran the run's time limit") from None
            raise
        if process.returncode != 0:
            raise BenchError(
                f"workload.py exited {process.returncode}:\n" + stderr[-4000:])
        result = json.loads(out.read_text(encoding="utf-8"))
        return result["ready"] - started, result


def load_bands(quick: bool) -> dict[str, list[float]]:
    bands = json.loads((HERE / "bands.json").read_text(encoding="utf-8"))
    return bands["quick" if quick else "full"]


def check_repetition(result: dict, bands: dict | None) -> tuple[int, int]:
    """(attempted, failed) operations of one repetition."""
    statuses = result["statuses"]
    attempted = sum(statuses.values())
    failed = attempted - statuses.get("ok", 0)
    # One-sided error: every T1-R1 control is triangle-free.
    attempted += result["one_sided_trials"]
    failed += result["one_sided_found"]
    if bands is not None:
        for report in result["reports"]:
            low, high = bands.get(report["row_id"], (None, None))
            attempted += 1
            if low is None or not low <= report["measured"] <= high:
                failed += 1
                print(f"band check failed: {report['row_id']} measured "
                      f"{report['measured']!r} outside [{low}, {high}]",
                      file=sys.stderr)
    return attempted, failed


def run(args: argparse.Namespace) -> dict:
    started = time.monotonic()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    runner = Runner(out_dir, started + RUN_LIMIT_S)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    quick, _, _, min_repetitions = WORKLOADS[args.workload]
    bands = None if args.smoke else load_bands(quick)

    setups: list[float] = []
    repetitions: list[dict] = []

    def repeat() -> float:
        began = time.monotonic()
        setup, result = runner.spawn(*common)
        setups.append(setup)
        repetitions.append(result)
        return time.monotonic() - began

    traced = None
    if args.trace:
        repeat()
        trace_dir = out_dir / "trace"
        trace_dir.mkdir()
        _, traced = runner.spawn(*common, "--trace-dir", str(trace_dir))
    else:
        # Set-up probes are spread over the run, one after every
        # repetition: on shared machines CPU speed drifts in phases of
        # tens of seconds, and probes taken back to back see one phase.
        def probe() -> None:
            setups.append(runner.spawn("--setup-only")[0])

        runner.spawn("--setup-only")  # warm-up: byte-compiles the sources
        probe()
        probe()
        measured = last = 0.0
        while measured < args.seconds or len(repetitions) < min_repetitions:
            if runner.deadline - time.monotonic() < 1.5 * last:
                break
            last = repeat()
            measured += last
            probe()

    attempted = failed = 0
    for result in repetitions + ([traced] if traced else []):
        ops, bad = check_repetition(result, bands)
        attempted += ops
        failed += bad
    reference = repetitions[0]["reports"]
    for result in repetitions[1:] + ([traced] if traced else []):
        attempted += 1
        if result["reports"] != reference:
            failed += 1
            print("RowReports differ between repetitions at one seed",
                  file=sys.stderr)

    wall = statistics.median(r["wall_s"] for r in repetitions)
    if traced:
        layers = dict(traced["layers"])
        layers["bench.trace_overhead"] = traced["wall_s"] / wall
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
            for m in bench["per_layer"]
        }
        unlisted = sorted(
            name for name in layers
            if name not in metrics and name.startswith("ledger.bits.")
        )
        if unlisted:
            print("ledger scopes not listed in BENCHMARK.json: "
                  + ", ".join(unlisted), file=sys.stderr)
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in repetitions),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": failed, "setups": setups,
        "repetitions": repetitions, "traced": traced, "metrics": metrics,
    }
    (out_dir / "result.json").write_text(json.dumps(details, indent=1),
                                         encoding="utf-8")
    if traced:  # per-grid-point costs, the input a longest-first scheduler needs
        (out_dir / "batch_costs.json").write_text(
            json.dumps(traced["batches"], indent=1), encoding="utf-8")
    report(details, wall)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report(details: dict, wall: float) -> None:
    """Human-readable summary (everything before the final JSON line)."""
    print(f"workload {details['workload']}  seed {details['seed']}  "
          f"repetitions {len(details['repetitions'])}  "
          f"operations {details['attempted']}  failed {details['failed']}")
    print(f"  {'failed_frac':<34} "
          f"{details['failed'] / details['attempted']:>14.6f} ratio")
    for name, metric in details["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6f} {metric['unit']}")
    traced = details["traced"]
    if not traced:
        return
    print(f"  untraced wall_s {wall:.3f}; traced wall_s {traced['wall_s']:.3f}")
    print("  ledger bits by row and scope:")
    for row, scopes in traced["ledger_by_row"].items():
        print(f"    {row:<8} " + ", ".join(
            f"{scope}={bits}" for scope, bits in sorted(scopes.items())))
    print("  batch cost table (row, n, pid, seconds), slowest first:")
    for batch in sorted(traced["batches"], key=lambda b: -b["seconds"]):
        print(f"    {batch['row']:<8} n={batch['n']:<6} pid={batch['pid']:<8} "
              f"{batch['seconds']:.3f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="sweeps cut to two grid points; no band checks")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Turn a termination request into an exception, so the repetition
    # running at that moment is stopped with its workers (Runner.spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
