"""Tests for repro.modeling.model_select."""

import numpy as np
import pytest

from repro.errors import FitError
from repro.modeling.basis import CONSTANT, CUBE, EXP, LINEAR, SQUARE, X_EXP
from repro.modeling.model_select import (
    _MONOTONE_BASIS,
    _is_sane,
    adjusted_r2,
    select_model,
)
from repro.modeling.least_squares import fit_basis_model


class TestAdjustedR2:
    def test_penalises_parameters(self):
        assert adjusted_r2(0.9, 10, 5) < adjusted_r2(0.9, 10, 2)

    def test_falls_back_when_undefined(self):
        assert adjusted_r2(0.9, 3, 2) == 0.9
        assert adjusted_r2(0.9, 3, 3) == 0.9

    def test_perfect_fit_stays_one(self):
        assert adjusted_r2(1.0, 10, 3) == pytest.approx(1.0)


class TestIsSane:
    def test_accepts_increasing_positive(self):
        x = np.array([1.0, 10.0, 100.0])
        fit = fit_basis_model(x, 1.0 + 0.5 * x, (CONSTANT, LINEAR))
        assert _is_sane(fit)

    def test_rejects_negative_extrapolation(self):
        # cubic with negative leading coefficient turns down then negative
        x = np.array([1.0, 5.0, 20.0, 60.0, 100.0])
        y = 1.0 + x - 1e-4 * x**3
        fit = fit_basis_model(x, y, (CONSTANT, LINEAR, CUBE))
        assert not _is_sane(fit)

    def test_rejects_explosive_growth(self):
        # x*e^x grows ~e^4x over 4x range: way past the quadratic bound
        x = np.array([1.0, 5.0, 20.0, 60.0, 100.0])
        fit = fit_basis_model(x, x * np.exp(x / 100.0), (X_EXP,))
        assert not _is_sane(fit)

    def test_accepts_convex_quadratic(self):
        x = np.array([1.0, 10.0, 50.0, 100.0])
        y = 1.0 + 0.1 * x + 0.001 * x**2
        fit = fit_basis_model(x, y, (CONSTANT, LINEAR, SQUARE))
        assert _is_sane(fit)


class TestSelectModel:
    def test_recovers_linear_ground_truth(self):
        x = np.array([8.0, 16.0, 64.0, 256.0, 1024.0])
        y = 0.5 + 0.01 * x
        fit = select_model(x, y)
        assert fit.r2 == pytest.approx(1.0)
        assert abs(fit.predict(512.0) - (0.5 + 5.12)) < 1e-6

    def test_parsimony_prefers_small_model_on_linear_data(self):
        rng = np.random.default_rng(0)
        x = np.array([8.0, 16.0, 64.0, 256.0, 512.0, 1024.0])
        y = (0.5 + 0.01 * x) * np.exp(rng.normal(0, 0.01, x.size))
        fit = select_model(x, y)
        assert len(fit.basis) <= 3

    def test_curved_data_gets_curved_model(self):
        x = np.array([8.0, 16.0, 64.0, 256.0, 512.0, 1024.0])
        y = 0.5 + 0.01 * x + 2e-5 * x**2
        fit = select_model(x, y)
        # prediction must track the curvature, whatever basis was picked
        assert fit.predict(800.0) == pytest.approx(
            0.5 + 8.0 + 2e-5 * 800**2, rel=0.02
        )

    def test_selected_model_is_sane_on_pathological_data(self):
        # strongly convex data whose best unconstrained fits all go
        # negative near zero: the NNLS fallback must keep it physical
        x = np.array([100.0, 200.0, 400.0, 800.0])
        y = 0.001 * x**2
        fit = select_model(x, y)
        grid = np.linspace(1.0, 3200.0, 50)
        assert np.all(np.asarray(fit.predict(grid)) >= 0.0)

    def test_zero_weight_points_do_not_move_the_nnls_fallback(self):
        # every candidate is insane on this cubic, so the NNLS fallback
        # answers; stale points down-weighted to zero must not pull it
        fresh_x, fresh_y = [100.0, 200.0, 400.0, 800.0], [1.0, 8.0, 64.0, 512.0]
        stale_x, stale_y = [150.0, 300.0, 600.0], [40.0, 5.0, 900.0]
        fresh = select_model(fresh_x, fresh_y, x_scale=800.0)
        weighted = select_model(
            fresh_x + stale_x,
            fresh_y + stale_y,
            weights=[1.0] * 4 + [0.0] * 3,
            x_scale=800.0,
        )
        assert fresh.basis == weighted.basis == _MONOTONE_BASIS
        np.testing.assert_allclose(
            weighted.coefficients,
            fresh.coefficients,
            rtol=1e-12,
            atol=1e-12 * fresh.coefficients.max(),
        )
        # the reported quality stays unweighted: the stale points count
        assert weighted.n_points == 7 and weighted.r2 < fresh.r2

    def test_single_point_rejected(self):
        with pytest.raises(FitError):
            select_model([1.0], [1.0])

    def test_two_points_fall_back_to_interpolation(self):
        fit = select_model([10.0, 20.0], [1.0, 2.0])
        assert fit.predict(10.0) == pytest.approx(1.0, rel=1e-6)
        assert fit.predict(20.0) == pytest.approx(2.0, rel=1e-6)

    def test_custom_candidates(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        fit = select_model(x, 3 * x, candidates=[(LINEAR,), (CONSTANT, LINEAR)])
        assert set(fit.names) <= {"1", "x"}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected_before_any_solve(self, bad, capfd):
        # such a weight used to reach LAPACK, which printed DLASCL errors
        # for every candidate before the point count was blamed
        x, y = [10, 20, 40, 80, 160], [1, 2, 4, 8, 16]
        with pytest.raises(FitError, match="weights must be finite"):
            select_model(x, y, weights=[1, 1, bad, 1, 1])
        assert "DLASCL" not in "".join(capfd.readouterr())

    def test_non_finite_basis_columns_are_refused_silently(self, capfd):
        # e^u overflows at u = x / 1: such a design used to reach LAPACK,
        # which printed DLASCL errors before numpy raised
        x, y = [1000, 2000, 3000, 4000, 5000, 6000], [1, 2, 3, 4.5, 5, 7]
        with np.errstate(over="ignore"):
            fit = select_model(x, y, x_scale=1.0)
            with pytest.raises(FitError, match="not finite"):
                fit_basis_model(x, y, (CONSTANT, LINEAR, EXP), x_scale=1.0)
        assert "e^x" not in fit.names and "x e^x" not in fit.names
        assert capfd.readouterr() == ("", "")

    def test_weights_passed_through(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        y = np.array([1.0, 2.0, 4.0, 8.0, 100.0])
        fit = select_model(x, y, weights=[1, 1, 1, 1, 1e-12])
        assert fit.predict(8.0) == pytest.approx(8.0, rel=0.05)

    def test_flat_data_gets_model(self):
        # intercept-dominated device: times barely vary
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = np.array([1.0, 1.001, 1.002, 1.004])
        fit = select_model(x, y)
        assert fit.rel_rmse < 0.01
