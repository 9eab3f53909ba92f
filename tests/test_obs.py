"""Tests for the observability subsystem (PR 10, ``repro.obs``).

The load-bearing contract: tracing and metrics never touch a random
number generator, so `TrialResult` records are byte-identical with
observability on or off — across serial and parallel executors (fork
and spawn) and across the batched and per-trial engines.  The per-trial
*profile* is the one opt-in surface that deliberately changes the
record, so it lives behind its own flag.

Also covered: `MetricsRegistry` snapshot/merge algebra (merge must be
associative so worker-shipping order cannot change aggregates), trace
JSONL round-trips through `load_trace`, the `summarize` report's
self-time partition, the logging bridge, and `InstanceCache.reset`.
"""

import json
import logging
import os
import pickle
import time

import pytest

import spawn_helpers
from repro.analysis.experiments import run_sweep
from repro.graphs.generators import far_instance
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.summarize import load_trace, main as summarize_main, summarize
from repro.obs.trace import TraceRecorder
from repro.runtime import InstanceCache, ParallelExecutor, TrialTask, build_specs

GRID = [(120, 4.0, 3), (200, 4.0, 3)]


@pytest.fixture(autouse=True)
def _isolate_workers_env(monkeypatch):
    """An ambient REPRO_WORKERS must not reroute the executor-sensitive
    assertions below."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


@pytest.fixture(autouse=True)
def _no_leaked_globals():
    """Every test must restore the module-global recorder/registry —
    a leak here would silently couple unrelated tests."""
    yield
    assert obs_metrics.get_metrics() is None
    assert obs_trace.get_recorder() is None


def sweep(**kwargs):
    return run_sweep(
        spawn_helpers.spawn_protocol, spawn_helpers.spawn_instance,
        GRID, trials=2, seed=9, **kwargs,
    )


# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 2)
        registry.gauge("g", 7.0)
        registry.observe("h", 0.25)
        registry.observe("h", 0.75)
        assert registry.counters["a"] == 3
        assert registry.gauges["g"] == 7.0
        hist = registry.histograms["h"]
        assert hist["count"] == 2
        assert hist["sum"] == 1.0
        assert hist["min"] == 0.25
        assert hist["max"] == 0.75
        # 0.25 sits in [2^-3, 2^-2) -> exponent -1 of frexp is -2;
        # what matters is that the two land in distinct power-of-two
        # buckets and the counts are exact.
        assert sum(hist["buckets"].values()) == 2

    def test_zero_duration_lands_in_underflow_bucket(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.0)
        registry.observe("h", -1.0)
        assert registry.histograms["h"]["buckets"] == {"underflow": 2}

    def test_snapshot_is_json_faithful_and_roundtrips(self):
        registry = MetricsRegistry()
        registry.inc("c", 5)
        registry.gauge("g", 1.5)
        registry.observe("h", 0.1)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        rebuilt = MetricsRegistry.from_snapshot(snapshot)
        assert rebuilt.snapshot() == snapshot
        # The snapshot is a deep copy: mutating the registry afterwards
        # must not reach into it.
        registry.inc("c")
        registry.observe("h", 0.1)
        assert snapshot["counters"]["c"] == 5
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_merge_is_associative(self):
        def filled(seed_values):
            registry = MetricsRegistry()
            for i, value in enumerate(seed_values):
                registry.inc(f"c{i % 2}", value)
                registry.observe("h", value)
            return registry.snapshot()

        # Dyadic values: float addition is exact on them, so the
        # associativity claim is exact rather than within-epsilon.
        a = filled([0.125, 0.5, 2.0])
        b = filled([0.25, 8.0])
        c = filled([0.0625])

        left = MetricsRegistry.from_snapshot(a)
        left.merge(b)
        left.merge(c)

        bc = MetricsRegistry.from_snapshot(b)
        bc.merge(c)
        right = MetricsRegistry.from_snapshot(a)
        right.merge(bc)

        assert left.snapshot() == right.snapshot()

    def test_module_helpers_are_noops_without_registry(self):
        assert obs_metrics.get_metrics() is None
        obs_metrics.inc("nope")
        obs_metrics.gauge("nope", 1.0)
        obs_metrics.observe("nope", 0.5)
        with obs_metrics.timer("nope"):
            pass  # the shared null timer records nothing

    def test_ship_returns_deltas_and_resets(self):
        registry = MetricsRegistry()
        with obs_metrics.use_metrics(registry):
            obs_metrics.inc("x", 4)
            shipped = obs_metrics.ship()
            assert shipped["counters"]["x"] == 4
            assert registry.counters == {}  # reset after snapshot
            obs_metrics.inc("x", 1)
            obs_metrics.absorb(shipped)
        assert registry.counters["x"] == 5

    def test_absorb_none_is_noop(self):
        registry = MetricsRegistry()
        with obs_metrics.use_metrics(registry):
            obs_metrics.absorb(None)
        assert registry.counters == {}


# ----------------------------------------------------------------------
class TestTraceRecorder:
    def test_span_event_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            with recorder.span("outer", n=120) as outer:
                recorder.event("ping", value=1)
                with recorder.span("inner"):
                    pass
        records = load_trace(path)
        spans = {r["name"]: r for r in records if r["type"] == "span"}
        events = [r for r in records if r["type"] == "event"]
        assert spans["outer"]["parent"] is None
        assert spans["outer"]["attrs"] == {"n": 120}
        assert spans["inner"]["parent"] == outer.span_id
        assert spans["outer"]["dur"] >= spans["inner"]["dur"] >= 0.0
        (ping,) = events
        assert ping["span"] == outer.span_id
        assert ping["attrs"] == {"value": 1}

    def test_exception_stamps_error_attr(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            with pytest.raises(RuntimeError):
                with recorder.span("doomed"):
                    raise RuntimeError("boom")
        (span,) = load_trace(path)
        assert span["attrs"]["error"] == "RuntimeError"

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            with recorder.span("kept"):
                pass
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "name": "torn')  # no newline
        records = load_trace(path)
        assert [r["name"] for r in records] == ["kept"]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text('{"type": "span", "name": "x"}\n')
        with pytest.raises(ValueError, match="missing header"):
            load_trace(path)

    def test_directory_loads_sibling_files(self, tmp_path):
        for name in ("trace.jsonl", "trace-p123.jsonl"):
            with TraceRecorder(tmp_path / name) as recorder:
                with recorder.span(name):
                    pass
        names = {r["name"] for r in load_trace(tmp_path)}
        assert names == {"trace.jsonl", "trace-p123.jsonl"}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_child_span_keeps_parent_clock(self, tmp_path):
        """A span a fork child opens before its first write (as a pool
        worker's first ``batch`` span does, ahead of its first ``trial``)
        must time from the same clock origin it is closed against."""
        nap = 0.05
        with TraceRecorder(tmp_path / "trace.jsonl") as recorder:
            with recorder.span("parent"):
                pass
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    with recorder.span("child"):
                        time.sleep(nap)
                        with recorder.span("first-write"):
                            pass
                    code = 0
                finally:
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        (child,) = [r for r in load_trace(tmp_path) if r["name"] == "child"]
        assert child["pid"] == pid
        assert child["dur"] >= nap

    def test_disabled_tracing_uses_shared_null_span(self):
        assert obs_trace.get_recorder() is None
        assert obs_trace.span("x") is obs_trace.span("y")
        obs_trace.event("nope")  # must not raise

    def test_log_bridge_mirrors_warnings_into_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(path)
        with obs_trace.use_recorder(recorder):
            logging.getLogger("repro.test_obs").warning("bridged %d", 1)
            logging.getLogger("repro.test_obs").debug("below threshold")
        recorder.close()
        logs = [r for r in load_trace(path) if r["name"] == "log"]
        assert len(logs) == 1
        assert logs[0]["attrs"]["level"] == "WARNING"
        assert logs[0]["attrs"]["message"] == "bridged 1"
        # Detached with the recorder: no handler left behind.
        bridge_gone = all(
            not isinstance(h, obs_trace.TraceLogHandler)
            for h in logging.getLogger("repro").handlers
        )
        assert bridge_gone

    def test_far_instance_shortfall_reaches_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(path)
        with obs_trace.use_recorder(recorder):
            far_instance(90, 12.0, 0.5, seed=3)
        recorder.close()
        logs = [r for r in load_trace(path) if r["name"] == "log"]
        assert any("certifies only" in r["attrs"]["message"] for r in logs)


# ----------------------------------------------------------------------
class TestByteIdentity:
    """Records must not change when tracing/metrics are enabled."""

    def test_serial_batched(self, tmp_path):
        plain = sweep(workers=1)
        observed = sweep(workers=1, trace=tmp_path / "t.jsonl",
                         metrics=MetricsRegistry())
        assert pickle.dumps(observed.records) == pickle.dumps(plain.records)

    def test_serial_per_trial(self, tmp_path):
        # The per-trial oracle, traced and untraced, against the sweep.
        task = TrialTask(spawn_helpers.spawn_instance,
                         spawn_helpers.spawn_protocol)
        specs = build_specs(GRID, trials=2, sweep_seed=9)
        plain = [task(spec) for spec in specs]
        with TraceRecorder(tmp_path / "t.jsonl") as recorder, \
                obs_trace.use_recorder(recorder), \
                obs_metrics.use_metrics(MetricsRegistry()):
            observed = [task(spec) for spec in specs]
        assert pickle.dumps(observed) == pickle.dumps(plain)
        assert pickle.dumps(sweep(workers=1).records) == pickle.dumps(plain)

    def test_parallel_fork(self, tmp_path):
        plain = sweep(workers=1)
        observed = sweep(
            executor=ParallelExecutor(workers=2, start_method="fork"),
            trace=tmp_path / "t.jsonl", metrics=MetricsRegistry(),
        )
        assert pickle.dumps(observed.records) == pickle.dumps(plain.records)

    def test_parallel_spawn(self, tmp_path):
        plain = sweep(workers=1)
        observed = sweep(
            executor=ParallelExecutor(workers=2, start_method="spawn"),
            trace=tmp_path / "t.jsonl", metrics=MetricsRegistry(),
        )
        assert pickle.dumps(observed.records) == pickle.dumps(plain.records)

    def test_worker_metrics_ship_home_exactly(self):
        """Fork workers inherit the driver registry; worker_sync plus
        delta shipping must keep the totals identical to a serial run."""
        serial = MetricsRegistry()
        sweep(workers=1, metrics=serial)
        parallel = MetricsRegistry()
        sweep(executor=ParallelExecutor(workers=2, start_method="fork"),
              metrics=parallel)
        trials = len(GRID) * 2
        assert serial.counters["trial.ok"] == trials
        assert parallel.counters["trial.ok"] == trials
        # Per-trial work counters are execution-placement invariant.
        for name in serial.counters:
            if name.startswith(("kernel.select.", "generator.path.")):
                assert parallel.counters.get(name) == serial.counters[name]


# ----------------------------------------------------------------------
class TestProfile:
    def test_profile_off_by_default(self):
        result = sweep(workers=1)
        assert all("profile" not in r.extras for r in result.records)

    def test_profile_attaches_phase_breakdown(self):
        result = sweep(workers=1, profile=True)
        for record in result.records:
            profile = record.extras["profile"]
            assert set(profile) >= {"build", "protocol"}
            assert all(v >= 0.0 for v in profile.values())

    def test_profile_survives_parallel_executors(self):
        result = sweep(
            executor=ParallelExecutor(workers=2, start_method="fork"),
            profile=True,
        )
        assert all("profile" in r.extras for r in result.records)


# ----------------------------------------------------------------------
class TestSummarize:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sweep(workers=1, trace=path, metrics=MetricsRegistry())
        return path

    def test_phase_self_times_partition_wall_clock(self, trace_path):
        records = load_trace(trace_path)
        report = summarize(records)
        assert "Phase breakdown (self time):" in report
        coverage_line = next(
            line for line in report.splitlines() if "Run wall clock" in line
        )
        covered = float(coverage_line.split("cover ")[1].rstrip("%)"))
        # Self time partitions the root span exactly; only clock-read
        # jitter and 1e-9 rounding can move the needle.
        assert 99.0 <= covered <= 101.0

    def test_metrics_sections_rendered(self, trace_path):
        report = summarize(load_trace(trace_path))
        assert "Backend mix:" in report
        assert "Generator paths:" in report
        assert f"Trials: ok={len(GRID) * 2:g}" in report

    def test_without_metrics_snapshot_degrades_gracefully(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sweep(workers=1, trace=path)
        report = summarize(load_trace(path))
        assert "no metrics snapshot" in report

    def test_cli_entrypoint(self, trace_path, capsys):
        assert summarize_main([str(trace_path)]) == 0
        assert "Phase breakdown" in capsys.readouterr().out
        assert summarize_main([]) == 2
        assert summarize_main(["no", "such", "args"]) == 2
        assert summarize_main([str(trace_path.parent / "absent.jsonl")]) == 1


# ----------------------------------------------------------------------
class TestCacheReset:
    def test_reset_zeroes_counters_keeps_entries(self):
        cache = InstanceCache()
        cache.get_or_build(("k", 1), lambda: "value")
        cache.get_or_build(("k", 1), lambda: "value")
        assert cache.stats()["hits"] == 1
        assert cache.stats()["builds"] == 1
        cache.reset()
        stats = cache.stats()
        assert stats["hits"] == stats["misses"] == stats["builds"] == 0
        assert stats["entries"] == 1  # the instance itself stays warm
        cache.get_or_build(("k", 1), lambda: "value")
        assert cache.stats()["hits"] == 1

    def test_clear_drops_entries_too(self):
        cache = InstanceCache()
        cache.get_or_build(("k", 1), lambda: "value")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 0
