"""Tests for the analysis harness (scaling fits, sweeps, Table 1 rows)."""

import math

import pytest

from repro.analysis.experiments import default_instance, run_sweep
from repro.analysis.scaling import fit_power_law, strip_polylog
from repro.analysis.table1 import (
    ROW_IDS,
    RowReport,
    row_bm_lower,
    row_exact_baseline,
    row_sim_covered_lower,
    row_sim_low_upper,
    row_symmetrization,
)
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.runtime import InstanceCache


class TestPowerLawFit:
    def test_exact_power_law_recovered(self):
        xs = [10.0, 100.0, 1000.0, 10_000.0]
        ys = [3.0 * x ** 0.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_fit_close(self):
        xs = [10.0, 100.0, 1000.0, 10_000.0]
        ys = [2.0 * x ** 0.33 * factor for x, factor in zip(xs, (1.1, 0.9, 1.05, 0.95))]
        fit = fit_power_law(xs, ys)
        assert abs(fit.exponent - 0.33) < 0.05

    def test_predicted(self):
        fit = fit_power_law([1.0, 10.0], [2.0, 20.0])
        assert fit.predicted(100.0) == pytest.approx(200.0)

    def test_matches_tolerance(self):
        fit = fit_power_law([1.0, 10.0], [1.0, 10.0])
        assert fit.matches(1.0, tolerance=0.01)
        assert not fit.matches(0.5, tolerance=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([0.0, 1.0], [1.0, 2.0])

    def test_strip_polylog(self):
        sizes = [16.0, 256.0]
        values = [10.0 * math.log2(s) ** 2 for s in sizes]
        stripped = strip_polylog(values, sizes, log_power=2.0)
        assert stripped[0] == pytest.approx(stripped[1])

    def test_strip_validation(self):
        with pytest.raises(ValueError):
            strip_polylog([1.0], [1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            strip_polylog([1.0], [1.0], 1.0)


class TestSweep:
    def test_sweep_records_points(self):
        instance_fn = default_instance(epsilon=0.3, k=3)
        sweep = run_sweep(
            lambda partition, s: find_triangle_sim_low(
                partition, SimLowParams(epsilon=0.3, delta=0.2), seed=s
            ),
            instance_fn,
            grid=[(200, 4.0, 3), (400, 4.0, 3)],
            trials=2,
            seed=1,
        )
        assert len(sweep.points) == 2
        assert sweep.points[0].n == 200
        assert all(p.median_bits > 0 for p in sweep.points)

    def test_sweep_axes(self):
        instance_fn = default_instance(epsilon=0.3, k=3)
        sweep = run_sweep(
            lambda partition, s: find_triangle_sim_low(
                partition, SimLowParams(epsilon=0.3), seed=s
            ),
            instance_fn,
            grid=[(200, 4.0, 3)],
            trials=1,
        )
        assert sweep.xs("n") == [200]
        assert sweep.xs("d") == [4.0]
        assert sweep.xs("nd") == [800.0]
        with pytest.raises(ValueError):
            sweep.xs("bogus")

    def test_detection_rate_tracked(self):
        instance_fn = default_instance(epsilon=0.3, k=3)
        sweep = run_sweep(
            lambda partition, s: find_triangle_sim_low(
                partition, SimLowParams(epsilon=0.3, delta=0.1), seed=s
            ),
            instance_fn,
            grid=[(600, 5.0, 3)],
            trials=3,
        )
        assert sweep.points[0].detection_rate >= 2 / 3

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            run_sweep(
                lambda p, s: None, default_instance(), [(10, 1.0, 2)],
                trials=0,
            )


class TestTable1FastRows:
    def test_bm_row_passes(self):
        report = row_bm_lower(quick=True, seed=0)
        assert isinstance(report, RowReport)
        assert report.measured == 1.0

    def test_symmetrization_row_matches(self):
        report = row_symmetrization(quick=True, seed=0)
        assert abs(report.measured - report.claimed) < 0.2 * report.claimed

    def test_covered_row_monotone(self):
        report = row_sim_covered_lower(quick=True, seed=0)
        assert report.measured > 0.5  # budget buys covered pairs

    def test_row_formatting(self):
        report = row_bm_lower(quick=True, seed=0)
        text = report.formatted()
        assert "T1-R6" in text
        assert "measured=" in text

    def test_subgraph_patterns_row(self):
        from repro.analysis.table1 import row_subgraph_patterns

        report = row_subgraph_patterns(quick=True, seed=0)
        assert report.row_id == "X-2"
        assert report.measured >= 0.8
        # Per-pattern detection rates are itemized in the note.
        for name in ("K4", "C4", "C5", "P4", "K1,3"):
            assert name in report.note


class TestTable1CacheUse:
    """A row caches its instances only when a later sweep reads them."""

    @pytest.mark.parametrize("row_id", ["T1-R1", "T1-R2b", "X-2", "T1-R6"])
    def test_rows_nobody_rereads_leave_the_cache_empty(self, row_id):
        row_fn = {rid: fn for fn, rid in ROW_IDS.items()}[row_id]
        cache = InstanceCache()
        report = row_fn(quick=True, seed=1, workers=1, cache=cache)
        assert report.row_id == row_id
        stats = cache.stats()
        assert len(cache) == 0
        assert stats["hits"] == stats["misses"] == stats["builds"] == 0

    def test_exact_baseline_reuses_sim_low_instances(self):
        cache = InstanceCache()
        row_sim_low_upper(quick=True, seed=1, workers=1, cache=cache)
        built = len(cache)
        assert built == cache.stats()["builds"] > 0
        cache.reset()
        row_exact_baseline(quick=True, seed=1, workers=1, cache=cache)
        stats = cache.stats()
        assert stats["hits"] == 8
        assert stats["builds"] == stats["misses"] == 0
        assert len(cache) == built
