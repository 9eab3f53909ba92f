"""Tests for the report writer and the CLI entry point."""

import json
import subprocess
import sys

import pytest

from env_helpers import child_env
from repro.analysis.report import build_report, write_report
from repro.analysis.__main__ import ROWS_BY_ID, main
from repro.obs.summarize import load_trace, summarize
from repro.obs.trace import TraceRecorder, use_recorder

_CHILD_ENV = child_env()


class TestCli:
    def test_single_fast_row(self, capsys):
        exit_code = main(["--row", "T1-R6"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "T1-R6" in out
        assert "measured=" in out

    def test_unknown_row(self, capsys):
        exit_code = main(["--row", "T1-R99"])
        assert exit_code == 2
        assert "unknown row" in capsys.readouterr().err

    def test_backend_option_is_gone(self):
        """One kernel ships, so the CLI takes no kernel choice."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--backend", "csr"],
            capture_output=True, text=True, timeout=300, env=_CHILD_ENV,
        )
        assert result.returncode == 2
        assert "unrecognized arguments: --backend csr" in result.stderr
        assert result.stdout == ""

    def test_rows_by_id_covers_all(self):
        from repro.analysis.table1 import ALL_ROWS

        assert len(ROWS_BY_ID) == len(ALL_ROWS)
        assert set(ROWS_BY_ID.values()) == set(ALL_ROWS)

    def test_traced_row_is_one_row_span(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        metrics_out = tmp_path / "metrics.json"
        exit_code = main(["--row", "T1-R2A", "--workers", "1",
                          "--trace-dir", str(trace_dir),
                          "--metrics-out", str(metrics_out)])
        assert exit_code == 0
        assert capsys.readouterr().out.startswith("T1-R2a ")
        records = load_trace(trace_dir)
        (row,) = [r for r in records if r["name"] == "row"]
        assert row["attrs"] == {"row": "T1-R2a"}
        report = summarize(records)
        rows_table = report.split("Rows:\n", 1)[1].split("\n\n", 1)[0]
        assert "T1-R2a" in rows_table
        snapshot = json.loads(metrics_out.read_text())
        assert set(snapshot) == {"counters", "gauges"}

    def test_metrics_gauge_the_cache_at_the_end_of_the_run(self, tmp_path):
        """The entry gauge is written once the run's cache closes, so it
        counts every instance the run cached (T1-R3's samples arrive
        through ``run_trials``, after the last ``run_sweep`` that passes
        a cache)."""
        metrics_out = tmp_path / "metrics.json"
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--workers", "1",
             "--metrics-out", str(metrics_out)],
            capture_output=True, text=True, timeout=300, env=_CHILD_ENV,
        )
        assert result.returncode == 0, result.stderr
        snapshot = json.loads(metrics_out.read_text())
        assert snapshot["counters"]["cache.build"] == 35
        assert snapshot["gauges"]["cache.entries"] == 35
        assert snapshot["gauges"]["cache.instance_bytes"] > 0

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--row", "L4.5"],
            capture_output=True, text=True, timeout=300, env=_CHILD_ENV,
        )
        assert result.returncode == 0
        assert "L4.5" in result.stdout


class TestReportRendering:
    def test_row_rendering(self):
        from repro.analysis.table1 import RowReport
        from repro.analysis.report import _render_row

        row = RowReport(
            row_id="T1-X", description="demo", paper_bound="O(1)",
            metric="bits", claimed=None, measured=1.5, note="n/a",
        )
        rendered = _render_row(row)
        assert rendered.startswith("| T1-X |")
        assert "—" in rendered
        assert "1.500" in rendered

    def test_write_report_roundtrip(self, tmp_path, monkeypatch):
        # Restrict to the fast rows so the round-trip test stays quick;
        # the full-suite path is exercised by the benchmarks.
        import repro.analysis.report as report_module
        from repro.analysis import table1

        monkeypatch.setattr(
            report_module, "ALL_ROWS",
            [table1.row_bm_lower, table1.row_symmetrization],
        )
        target = write_report(tmp_path / "report.md", quick=True, seed=0)
        text = target.read_text()
        assert "# Table 1 reproduction report" in text
        assert "T1-R6" in text
        assert "T1-R5" in text
        assert "| row | seconds |" in text

    def test_build_report_traces_one_row_span_per_row(self, tmp_path,
                                                      monkeypatch):
        import repro.analysis.report as report_module
        from repro.analysis import table1

        monkeypatch.setattr(
            report_module, "ALL_ROWS",
            [table1.row_bm_lower, table1.row_symmetrization],
        )
        recorder = TraceRecorder(tmp_path / "trace.jsonl")
        with use_recorder(recorder):
            build_report(quick=True, seed=0)
        recorder.close()
        rows = [r["attrs"]["row"] for r in load_trace(tmp_path)
                if r["name"] == "row"]
        assert rows == ["T1-R6", "T1-R5"]

    def test_build_report_header(self, monkeypatch):
        import repro.analysis.report as report_module
        from repro.analysis import table1

        monkeypatch.setattr(
            report_module, "ALL_ROWS", [table1.row_bm_lower]
        )
        text = build_report(quick=True, seed=1)
        assert "mode: quick, seed 1" in text
        assert "python" in text
