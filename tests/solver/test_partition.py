"""Tests for repro.solver.partition (the high-level solve chain)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.modeling.perf_profile import PerfProfile
from repro.solver import solve_block_partition
from repro.solver.partition import _trust_caps
from tests.conftest import make_fitted_models


def model(device_id, slope, intercept=0.1, sizes=(10, 100, 1000, 5000)):
    prof = PerfProfile(device_id)
    for u in sizes:
        prof.add(u, intercept + slope * u, 1e-6 * u)
    return prof.fit()


class TestSolveBlockPartition:
    def test_ipm_on_clean_models(self):
        models = {f"d{i}": model(f"d{i}", 0.001 * (i + 1)) for i in range(4)}
        result = solve_block_partition(models, 10_000.0)
        assert result.method == "certified"
        assert result.converged
        assert result.units.sum() == pytest.approx(10_000.0, rel=1e-6)

    def test_equal_time_property(self):
        models = {f"d{i}": model(f"d{i}", 0.001 * (i + 1)) for i in range(4)}
        result = solve_block_partition(models, 10_000.0)
        times = [
            float(models[d].E(u))
            for d, u in result.units_by_device.items()
            if u > 1
        ]
        spread = (max(times) - min(times)) / max(times)
        assert spread < 0.05

    def test_matches_ground_truth_partition(self, mm_ground_truth):
        models = make_fitted_models(mm_ground_truth)
        result = solve_block_partition(models, 2048.0)
        ideal = mm_ground_truth.ideal_partition(2048)
        for d, u in result.units_by_device.items():
            assert u == pytest.approx(ideal[d], abs=0.12 * 2048)

    def test_fractions_sum_to_one(self):
        models = {f"d{i}": model(f"d{i}", 0.001) for i in range(3)}
        result = solve_block_partition(models, 900.0)
        assert sum(result.fractions.values()) == pytest.approx(1.0)

    def test_single_device(self):
        result = solve_block_partition({"only": model("only", 0.01)}, 100.0)
        assert result.units_by_device["only"] == pytest.approx(100.0)
        assert result.converged

    def test_sequence_input(self):
        models = [model("a", 0.001), model("b", 0.002)]
        result = solve_block_partition(models, 100.0)
        assert result.device_ids == ("a", "b")

    def test_huge_intercept_device_idled(self):
        models = {
            "cheap1": model("cheap1", 0.001, intercept=0.01),
            "cheap2": model("cheap2", 0.001, intercept=0.01),
            "pricey": model("pricey", 0.001, intercept=1e3),
        }
        result = solve_block_partition(models, 2000.0)
        assert result.units_by_device["pricey"] == pytest.approx(0.0, abs=1e-6)
        assert result.converged

    def test_empty_models_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_block_partition({}, 100.0)

    def test_nonpositive_quantum_rejected(self):
        one = {"a": model("a", 0.01)}
        three = {d: model(d, 0.01 * (i + 1)) for i, d in enumerate("abc")}
        for q in (-5.0, 0.0, float("nan"), float("inf")):
            for models in (one, three):
                with pytest.raises(ConfigurationError):
                    solve_block_partition(models, q)

    def test_never_raises_with_fallback(self):
        # a deliberately degenerate model set: identical flat curves
        prof = PerfProfile("flat")
        prof.add(1, 1.0, 0.0)
        prof.add(2, 1.0, 0.0)
        flat = prof.fit()
        result = solve_block_partition({"a": flat, "b": flat}, 100.0)
        assert result.units.sum() == pytest.approx(100.0, rel=1e-6)

    def test_trust_caps_limit_extrapolation(self):
        # models probed only up to 100 units cannot be assigned 100x that
        models = {
            "a": model("a", 0.001, sizes=(10, 30, 60, 100)),
            "b": model("b", 0.001, sizes=(10, 30, 60, 100)),
        }
        result = solve_block_partition(models, 600.0)
        # caps are 4x the probed range = 400; both devices stay within
        for u in result.units_by_device.values():
            assert u <= 400.0 + 1e-6

    def test_caps_relaxed_when_insufficient(self):
        # quantum far beyond every trust cap still gets fully assigned
        models = {
            "a": model("a", 0.001, sizes=(10, 30, 60, 100)),
            "b": model("b", 0.001, sizes=(10, 30, 60, 100)),
        }
        result = solve_block_partition(models, 10_000.0)
        assert result.units.sum() == pytest.approx(10_000.0, rel=1e-6)


class TestTrustCaps:
    def test_basic_caps(self):
        models = [model("a", 0.001, sizes=(10, 100)), model("b", 0.001)]
        caps = _trust_caps(models, 1000.0)
        assert caps[0] == pytest.approx(400.0)
        assert caps[1] == pytest.approx(1000.0)  # 4*5000 clipped at q

    def test_caps_cover_quantum(self):
        models = [model(f"d{i}", 0.001, sizes=(5, 10, 20)) for i in range(3)]
        caps = _trust_caps(models, 100_000.0)
        assert caps.sum() >= 100_000.0
