"""Reference model selection: one independent fit per candidate subset.

This is the straightforward form of :func:`repro.modeling.select_model`:
every candidate re-validates the inputs, evaluates its basis functions
on the data, solves, and is then checked for physical sanity through
``FitResult.predict``/``derivative`` on its own grid.  The library
shares the validation and the basis columns across candidates instead;
``test_select_identity.py`` checks the two agree bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import FitError
from repro.modeling.basis import (
    CANDIDATE_MODELS,
    CONSTANT,
    CUBE,
    LINEAR,
    SQRT,
    SQUARE,
    BasisFunction,
)
from repro.modeling.least_squares import FitResult, _relative_rmse, r_squared
from repro.modeling.model_select import PARSIMONY_TOL, adjusted_r2


def reference_fit_basis_model(
    x: Sequence[float],
    y: Sequence[float],
    basis: Sequence[BasisFunction],
    *,
    x_scale: float | None = None,
    weights: Sequence[float] | None = None,
) -> FitResult:
    """Column-scaled least squares of ``y`` on ``basis`` at ``x / x_scale``."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or xa.shape != ya.shape:
        raise FitError(f"x and y must be equal-length 1-D, got {xa.shape}, {ya.shape}")
    if xa.size == 0:
        raise FitError("cannot fit a model to zero points")
    if np.any(xa <= 0.0):
        raise FitError(f"block sizes must be positive, got {xa.min()}")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise FitError("x and y must be finite")
    nb = len(basis)
    if nb == 0:
        raise FitError("basis must be non-empty")
    if xa.size < nb:
        raise FitError(f"{xa.size} points cannot determine {nb} coefficients")
    scale = float(x_scale) if x_scale is not None else float(xa.max())
    if scale <= 0.0:
        raise FitError(f"x_scale must be positive, got {scale}")

    u = xa / scale
    design = np.column_stack([b.f(u) for b in basis])
    target = ya
    if weights is not None:
        w_raw = np.asarray(weights, dtype=float)
        if w_raw.shape != xa.shape or np.any(w_raw < 0):
            raise FitError("weights must be non-negative and match x")
        w = np.sqrt(w_raw)
        design = design * w[:, None]
        target = ya * w
    if not np.all(np.isfinite(design)):
        # such a design would reach LAPACK, which reports it on stderr
        raise FitError(f"basis {[b.name for b in basis]} is not finite at the data")

    col_norms = np.linalg.norm(design, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    try:
        coef_scaled, *_ = np.linalg.lstsq(design / col_norms, target, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"least-squares solve failed: {exc}") from exc
    coef = coef_scaled / col_norms

    u_all = xa / scale
    y_hat = np.asarray(sum(a * b.f(u_all) for a, b in zip(coef, basis)))
    return FitResult(
        basis=tuple(basis),
        coefficients=np.asarray(coef, dtype=float),
        x_scale=scale,
        r2=r_squared(ya, y_hat),
        n_points=int(xa.size),
        x_max=float(xa.max()),
        rel_rmse=_relative_rmse(ya, y_hat),
    )


def _is_sane(fit: FitResult, *, extrapolation_slack: float = 4.0) -> bool:
    """Positive, non-decreasing and at most quadratically growing."""
    grid = np.linspace(fit.x_max * 1e-3, fit.x_max * extrapolation_slack, 65)
    values = np.asarray(fit.predict(grid))
    if np.any(~np.isfinite(values)) or np.any(values <= 0.0):
        return False
    slopes = np.asarray(fit.derivative(grid))
    tol = -1e-9 * max(abs(values).max(), 1.0) / max(fit.x_max, 1.0)
    if not np.all(slopes >= tol):
        return False
    at_edge = float(fit.predict(fit.x_max))
    at_far = float(fit.predict(fit.x_max * extrapolation_slack))
    if at_edge > 0.0 and at_far > extrapolation_slack**2 * at_edge:
        return False
    return True


def _clamped_linear_fit(
    xa: np.ndarray,
    ya: np.ndarray,
    x_scale: float | None,
    weights: Sequence[float] | None,
) -> FitResult | None:
    """Non-negative least squares over ``{1, x, x^2, x^3, sqrt x}``, on
    rows scaled by √w; R² and relative RMSE unweighted."""
    from scipy.optimize import nnls

    basis = (CONSTANT, LINEAR, SQUARE, CUBE, SQRT)
    scale = float(x_scale) if x_scale is not None else float(xa.max())
    if scale <= 0.0 or np.any(xa <= 0.0):
        return None
    u = xa / scale
    design = np.column_stack([b.f(u) for b in basis])
    weighted, target = design, ya
    if weights is not None:
        w = np.sqrt(np.asarray(weights, dtype=float))
        weighted = design * w[:, None]
        target = ya * w
    col_norms = np.linalg.norm(weighted, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    try:
        coef_scaled, _ = nnls(weighted / col_norms, target)
    except (ValueError, RuntimeError):
        return None
    coef = coef_scaled / col_norms
    if not np.any(coef > 0.0):
        coef = np.zeros(len(basis))
        coef[0] = max(float(ya.mean()), 1e-12)
    y_hat = design @ coef
    return FitResult(
        basis=basis,
        coefficients=coef,
        x_scale=scale,
        r2=r_squared(ya, y_hat),
        n_points=int(xa.size),
        x_max=float(xa.max()),
        rel_rmse=_relative_rmse(ya, y_hat),
    )


def reference_select_model(
    x: Sequence[float],
    y: Sequence[float],
    *,
    candidates: Sequence[Sequence[BasisFunction]] = CANDIDATE_MODELS,
    weights: Sequence[float] | None = None,
    x_scale: float | None = None,
    require_sane: bool = True,
) -> FitResult:
    """Best sane candidate by adjusted R², parsimony window, then fallbacks."""
    xa = np.asarray(x, dtype=float)
    if xa.size < 2:
        raise FitError(f"model selection needs >= 2 points, got {xa.size}")
    sane_fits: list[tuple[float, FitResult]] = []
    fallback: FitResult | None = None
    fallback_score = -np.inf
    for cand in candidates:
        if len(cand) >= xa.size:
            continue
        try:
            fit = reference_fit_basis_model(
                x, y, cand, weights=weights, x_scale=x_scale
            )
        except FitError:
            continue
        score = adjusted_r2(fit.r2, fit.n_points, len(cand))
        if require_sane and not _is_sane(fit):
            if score > fallback_score:
                fallback, fallback_score = fit, score
            continue
        sane_fits.append((score, fit))
    best: FitResult | None = None
    if sane_fits:
        top = max(score for score, _ in sane_fits)
        near_best = [
            (score, fit)
            for score, fit in sane_fits
            if score >= top - PARSIMONY_TOL
        ]
        near_best.sort(key=lambda sf: (len(sf[1].basis), -sf[0]))
        best = near_best[0][1]
    if best is None and fallback is not None:
        clamped = _clamped_linear_fit(
            xa, np.asarray(y, dtype=float), x_scale, weights
        )
        if clamped is not None:
            best = clamped
        else:
            best = fallback
    if best is None:
        for cand in sorted(candidates, key=len):
            if len(cand) > xa.size:
                continue
            try:
                return reference_fit_basis_model(
                    x, y, cand, weights=weights, x_scale=x_scale
                )
            except FitError:
                continue
        raise FitError(f"no candidate model supportable with {xa.size} points")
    return best
