"""Tests for repro.experiments.solver_overhead."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import solver_overhead
from repro.experiments.solver_overhead import (
    OverheadStats,
    fitted_models_for_scenario,
    run_solver_overhead,
)
from repro.solver import reduction


class TestFittedModels:
    def test_scenario_models_cover_cluster(self):
        models = fitted_models_for_scenario(size=16384, num_machines=2)
        assert set(models) == {"A.cpu", "A.gpu0", "B.cpu", "B.gpu0"}

    def test_models_usable_by_solver(self):
        from repro.solver import solve_block_partition

        models = fitted_models_for_scenario(size=16384, num_machines=2)
        result = solve_block_partition(models, 2000.0)
        assert result.units.sum() == pytest.approx(2000.0, rel=1e-6)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, sigma):
        with pytest.raises(ConfigurationError, match="sigma must be finite"):
            fitted_models_for_scenario(size=16384, num_machines=2, noise_sigma=sigma)

    def test_probe_ladder_scaled_by_speed(self):
        models = fitted_models_for_scenario(size=16384, num_machines=2)
        # the GPU was probed over a wider range than the CPU
        assert models["A.gpu0"].x_max > models["B.cpu"].x_max


class TestRunSolverOverhead:
    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_repetitions_must_be_positive(self, repetitions):
        with pytest.raises(ConfigurationError, match="repetitions"):
            run_solver_overhead(repetitions=repetitions)

    def test_stats_contract(self):
        stats = run_solver_overhead(repetitions=4, size=16384, num_machines=2)
        assert isinstance(stats, OverheadStats)
        assert stats.samples == 4
        assert stats.mean_ms > 0
        assert stats.std_ms >= 0
        assert stats.method in ("certified", "ipm", "waterfill", "proportional")

    def test_custom_quantum(self):
        stats = run_solver_overhead(
            repetitions=2, quantum=512.0, size=16384, num_machines=2
        )
        assert stats.mean_ms > 0

    def test_every_repetition_builds_its_own_tables(self, monkeypatch):
        """S1 times one decision's solve: no repetition reuses the
        waterfill tables of another."""
        solved = []
        real = solver_overhead.solve_block_partition

        def recording(models, q):
            solved.append(list(models.values()))
            return real(models, q)

        monkeypatch.setattr(solver_overhead, "solve_block_partition", recording)
        before = reduction._table.cache_info()
        run_solver_overhead(repetitions=4, size=16384, num_machines=2)
        after = reduction._table.cache_info()
        assert len(solved) == 4
        assert len({id(m) for models in solved for m in models}) == 4 * 4
        assert after.hits == before.hits
        assert after.misses - before.misses == 4 * 4
