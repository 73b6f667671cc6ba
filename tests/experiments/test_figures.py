"""Tests for the figure/table experiment drivers (reduced grids)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.ablations import (
    render_ablation,
    run_probe_ablation,
    run_rebalance_ablation,
    run_selection_ablation,
)
from repro.experiments.fig1_models import render_fig1, run_fig1
from repro.experiments.fig4_exectime import render_sweep, run_fig4
from repro.experiments.fig5_blackscholes import run_fig5
from repro.experiments.fig6_distribution import (
    gpu_share,
    render_fig6,
    run_fig6,
)
from repro.experiments.fig7_idleness import render_fig7, run_fig7
from repro.experiments.solver_overhead import run_solver_overhead
from repro.experiments.table1 import render_table1, table1_rows


class TestTable1:
    def test_rows_cover_all_machines(self):
        rows = table1_rows()
        machines = {r[0] for r in rows}
        assert machines == {"A", "B", "C", "D"}

    def test_render_contains_models(self):
        text = render_table1()
        for model in ("Tesla K20c", "GTX 295", "GTX 680", "GTX Titan"):
            assert model in text


class TestFig1:
    def test_curves_and_fits(self):
        curves = run_fig1(points=8, sizes={"matmul": 4096, "blackscholes": 20_000})
        assert len(curves) == 4  # 2 apps x 2 devices
        for c in curves:
            assert len(c.block_sizes) >= 5
            assert np.all(c.measured_s > 0)
            assert np.all(c.fitted_s > 0)

    def test_cpu_fits_track_measurements(self):
        curves = run_fig1(points=8, sizes={"matmul": 4096, "blackscholes": 20_000})
        for c in curves:
            if c.device_id == "A.cpu":
                assert c.max_relative_error < 0.25

    def test_non_finite_noise_rejected(self):
        with pytest.raises(ConfigurationError, match="sigma must be finite"):
            run_fig1(points=4, noise_sigma=float("nan"))

    def test_render(self):
        curves = run_fig1(points=6, sizes={"matmul": 4096, "blackscholes": 20_000})
        text = render_fig1(curves)
        assert "Fig.1" in text
        assert "R2" in text


class TestFig4Fig5:
    def test_fig4_grid_shape(self):
        points = run_fig4(
            "matmul", sizes=[2048], machine_counts=[2], replications=1,
            policies=("greedy", "plb-hec"),
        )
        assert len(points) == 1
        assert points[0].app_name == "matmul"

    def test_render_sweep(self):
        points = run_fig4(
            "matmul", sizes=[2048], machine_counts=[2], replications=1,
            policies=("greedy", "plb-hec"),
        )
        text = render_sweep(points)
        assert "speedup" in text
        assert "plb-hec" in text

    def test_fig5_runs(self):
        points = run_fig5(
            sizes=[20_000], machine_counts=[2], replications=1,
            policies=("greedy", "hdss"),
        )
        assert points[0].app_name == "blackscholes"


class TestFig6:
    def test_distributions_normalised(self):
        cases = run_fig6(
            cases=(("matmul", (8192,)),), replications=1,
        )
        case = cases[0]
        for dist in case.distributions.values():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-6)

    def test_gpus_dominate(self):
        cases = run_fig6(cases=(("matmul", (16384,)),), replications=1)
        for dist in cases[0].distributions.values():
            assert gpu_share(dist) > 0.5

    def test_render(self):
        cases = run_fig6(cases=(("matmul", (8192,)),), replications=1)
        assert "gpu_total" in render_fig6(cases)


class TestFig7:
    def test_plb_less_idle_than_hdss(self):
        cases = run_fig7(cases=(("matmul", (16384,)),), replications=1)
        case = cases[0]
        assert case.mean_idle("plb-hec") < case.mean_idle("hdss")

    def test_render(self):
        cases = run_fig7(cases=(("matmul", (8192,)),), replications=1)
        assert "rebalances" in render_fig7(cases)


class TestSolverOverhead:
    def test_stats(self):
        stats = run_solver_overhead(repetitions=5, size=16384)
        assert stats.mean_ms > 0
        assert stats.samples == 5
        assert stats.method in ("certified", "ipm", "waterfill", "proportional")


class TestAblations:
    def test_selection_ablation_rows(self):
        rows = run_selection_ablation(n=8192)
        names = [r.variant for r in rows]
        assert any("ipm" in n for n in names)
        assert any("oracle" in n for n in names)
        oracle_time = [r for r in rows if r.variant == "oracle"][0].makespan
        for r in rows:
            assert r.makespan >= oracle_time * 0.999

    def test_rebalance_ablation_rows(self):
        rows = run_rebalance_ablation(n=8192)
        assert rows[0].variant == "undisturbed"
        perturbed = [r for r in rows[1:]]
        assert all(r.makespan >= rows[0].makespan * 0.8 for r in perturbed)

    def test_probe_ablation_ordering(self):
        rows = run_probe_ablation(n=16384)
        uniform = [r for r in rows if "uniform" in r.variant][0]
        per_device = [r for r in rows if "per-device" in r.variant][0]
        assert per_device.makespan < uniform.makespan

    def test_render(self):
        rows = run_selection_ablation(n=8192)
        assert "variant" in render_ablation(rows, title="t")
