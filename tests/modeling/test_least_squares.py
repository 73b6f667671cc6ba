"""Tests for repro.modeling.least_squares."""

import numpy as np
import pytest

from repro.errors import FitError
from repro.modeling.basis import CONSTANT, LINEAR, LOG, SQUARE
from repro.modeling.least_squares import (
    _relative_rmse,
    fit_basis_model,
    r_squared,
)


class TestRSquared:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == pytest.approx(1.0)

    def test_mean_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        y_hat = np.full(3, y.mean())
        assert r_squared(y, y_hat) == pytest.approx(0.0)

    def test_constant_target_exact(self):
        y = np.full(4, 2.0)
        assert r_squared(y, y) == 1.0

    def test_constant_target_with_residuals(self):
        y = np.full(4, 2.0)
        assert r_squared(y, y + 0.1) == 0.0

    def test_worse_than_mean_is_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y[::-1]) < 0.0


class TestRelativeRmse:
    def test_zero_residuals(self):
        y = np.array([1.0, 2.0])
        assert _relative_rmse(y, y) == 0.0

    def test_scale_invariant(self):
        y = np.array([1.0, 2.0])
        a = _relative_rmse(y, y * 1.1)
        b = _relative_rmse(y * 100, y * 110)
        assert a == pytest.approx(b)

    def test_flat_target_meaningful(self):
        # R2 is 0 here, but rel_rmse correctly reports a 1% error
        y = np.full(5, 10.0)
        noisy = y * 1.01
        assert _relative_rmse(y, noisy) == pytest.approx(0.01)


class TestFitBasisModel:
    def test_recovers_linear_coefficients(self):
        x = np.array([10.0, 20.0, 40.0, 80.0])
        y = 3.0 + 0.5 * x
        fit = fit_basis_model(x, y, (CONSTANT, LINEAR))
        assert fit.predict(60.0) == pytest.approx(33.0, rel=1e-9)
        assert fit.r2 == pytest.approx(1.0)

    def test_recovers_quadratic(self):
        x = np.linspace(1, 100, 10)
        y = 1.0 + 2.0 * x + 0.03 * x**2
        fit = fit_basis_model(x, y, (CONSTANT, LINEAR, SQUARE))
        assert fit.predict(55.0) == pytest.approx(1 + 110 + 0.03 * 55**2, rel=1e-8)

    def test_derivative_matches_finite_difference(self):
        x = np.linspace(1, 100, 8)
        y = 5.0 + 0.1 * x + 0.4 * np.log(x / x.max())
        fit = fit_basis_model(x, y, (CONSTANT, LINEAR, LOG))
        h = 1e-4
        for at in (10.0, 50.0):
            numeric = (fit.predict(at + h) - fit.predict(at - h)) / (2 * h)
            assert fit.derivative(at) == pytest.approx(numeric, rel=1e-4)

    def test_second_derivative_matches(self):
        x = np.linspace(1, 100, 8)
        y = 0.03 * x**2
        fit = fit_basis_model(x, y, (CONSTANT, LINEAR, SQUARE))
        assert fit.second_derivative(50.0) == pytest.approx(0.06, rel=1e-6)

    def test_vectorised_predict(self):
        x = np.array([1.0, 2.0, 4.0])
        fit = fit_basis_model(x, 2 * x, (LINEAR,))
        out = fit.predict(np.array([1.0, 3.0]))
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, [2.0, 6.0])

    def test_scalar_predict_returns_float(self):
        x = np.array([1.0, 2.0, 4.0])
        fit = fit_basis_model(x, 2 * x, (LINEAR,))
        assert isinstance(fit.predict(2.0), float)

    def test_x_scale_defaults_to_max(self):
        x = np.array([10.0, 1000.0])
        fit = fit_basis_model(x, x, (LINEAR,))
        assert fit.x_scale == 1000.0

    def test_weights_prioritise_points(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 2.0, 3.0, 100.0])  # outlier at the end
        balanced = fit_basis_model(x, y, (LINEAR,))
        downweighted = fit_basis_model(
            x, y, (LINEAR,), weights=[1.0, 1.0, 1.0, 1e-9]
        )
        assert abs(downweighted.predict(3.0) - 3.0) < abs(
            balanced.predict(3.0) - 3.0
        )

    def test_underdetermined_rejected(self):
        with pytest.raises(FitError, match="cannot determine"):
            fit_basis_model([1.0], [1.0], (CONSTANT, LINEAR))

    def test_empty_rejected(self):
        with pytest.raises(FitError):
            fit_basis_model([], [], (LINEAR,))

    def test_nonpositive_x_rejected(self):
        with pytest.raises(FitError, match="positive"):
            fit_basis_model([0.0, 1.0], [1.0, 2.0], (LINEAR,))

    def test_nan_rejected(self):
        with pytest.raises(FitError, match="finite"):
            fit_basis_model([1.0, 2.0], [1.0, float("nan")], (LINEAR,))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FitError):
            fit_basis_model([1.0, 2.0], [1.0], (LINEAR,))

    def test_empty_basis_rejected(self):
        with pytest.raises(FitError):
            fit_basis_model([1.0, 2.0], [1.0, 2.0], ())

    def test_bad_weights_rejected(self):
        with pytest.raises(FitError):
            fit_basis_model([1.0, 2.0], [1.0, 2.0], (LINEAR,), weights=[-1.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(FitError, match="weights must be finite"):
            fit_basis_model([1.0, 2.0], [1.0, 2.0], (LINEAR,), weights=[bad, 1.0])

    def test_in_fitted_range(self):
        x = np.array([1.0, 100.0])
        fit = fit_basis_model(x, x, (LINEAR,))
        assert fit.in_fitted_range(350.0)
        assert not fit.in_fitted_range(500.0)
        assert not fit.in_fitted_range(-1.0)

    def test_describe_mentions_basis(self):
        fit = fit_basis_model([1.0, 2.0], [1.0, 2.0], (LINEAR,))
        assert "x" in fit.describe()
        assert "R2" in fit.describe()

    def test_mixed_magnitude_conditioning(self):
        # exp vs cubic columns differ hugely in norm; column scaling must cope
        x = np.linspace(1, 1000, 12)
        y = 1e-3 * x + 5.0
        from repro.modeling.basis import EXP, CUBE

        fit = fit_basis_model(x, y, (CONSTANT, LINEAR, CUBE, EXP))
        assert fit.r2 > 0.999999
