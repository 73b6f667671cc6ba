"""Model selection over the candidate basis subsets.

The paper fits "a curve that best represents the measured times" from
the eq. (1) family and accepts it once R² >= 0.7.  Fitting all eight
family members to the four initial probe points would interpolate
exactly (8 coefficients, 4 points) and report a meaningless R² = 1, so —
like any careful implementation — we fit a ladder of candidate subsets
(:data:`repro.modeling.basis.CANDIDATE_MODELS`), skip candidates with
more coefficients than points, and select by *adjusted* R², which
penalises extra terms and prevents overfitting (the stated purpose of
the paper's 0.7 threshold).
"""

from __future__ import annotations

from typing import Callable, Sequence

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
from repro.modeling.least_squares import (
    FitResult,
    _relative_rmse,
    checked_data,
    fit_basis_model,
    fit_columns,
    r_squared,
)

__all__ = ["select_model", "adjusted_r2"]

#: Adjusted-R² window within which a smaller model beats a bigger one.
PARSIMONY_TOL = 1e-3


def adjusted_r2(r2: float, n_points: int, n_params: int) -> float:
    """Adjusted coefficient of determination.

    ``1 - (1 - r2) * (n - 1) / (n - p - 1)``; falls back to plain R²
    when the correction is undefined (``n <= p + 1``).
    """
    if n_points <= n_params + 1:
        return r2
    return 1.0 - (1.0 - r2) * (n_points - 1) / (n_points - n_params - 1)


class _SanityGrid:
    """The physical-sanity check's grid, with each basis evaluated once.

    A real execution-time model is positive, non-decreasing in block
    size, and grows at most polynomially-gently: processing k times the
    data takes at most ~k² as long (cache falloff is bounded; nothing in
    a data-parallel kernel is exponential in the *block size*).
    Flexible candidates (cubics, exponentials) can match the training
    points perfectly yet swing negative, downward, or astronomically
    upward just beyond them, which would poison the block-size solver;
    those are filtered here.  The check spans the fitted range plus the
    extrapolation slack the selection phase is allowed to use.

    Every candidate of one selection shares ``x_max`` and ``x_scale``, so
    each basis function's value and slope on the 65-point grid (and its
    value at the range edge and far end) are computed once and combined
    per candidate term by term, exactly as :meth:`FitResult.predict` and
    :meth:`FitResult.derivative` would.
    """

    def __init__(
        self, x_max: float, x_scale: float, extrapolation_slack: float = 4.0
    ) -> None:
        self.x_max = x_max
        self.x_scale = x_scale
        self.slack = extrapolation_slack
        grid = np.linspace(x_max * 1e-3, x_max * extrapolation_slack, 65)
        self._u_grid = np.asarray(grid, dtype=float) / x_scale
        self._u_edge = np.asarray(x_max, dtype=float) / x_scale
        self._u_far = np.asarray(x_max * extrapolation_slack, dtype=float) / x_scale
        # keyed by id(): the candidates holding the bases outlive the grid
        self._terms: dict[int, tuple] = {}

    def _basis_terms(self, b: BasisFunction) -> tuple:
        """``b``'s grid values, grid slopes, edge value and far value."""
        terms = self._terms.get(id(b))
        if terms is None:
            terms = self._terms[id(b)] = (
                b.f(self._u_grid),
                b.df(self._u_grid),
                b.f(self._u_edge),
                b.f(self._u_far),
            )
        return terms

    def accepts(self, fit: FitResult) -> bool:
        """Whether ``fit`` is positive, non-decreasing and gently growing."""
        coef = fit.coefficients
        terms = [self._basis_terms(b) for b in fit.basis]
        values = np.asarray(sum(a * t[0] for a, t in zip(coef, terms)))
        if np.any(~np.isfinite(values)) or np.any(values <= 0.0):
            return False
        slopes = sum(a * t[1] for a, t in zip(coef, terms))
        slopes = np.asarray(slopes / self.x_scale)
        # tolerate microscopic negative slopes from floating-point noise
        tol = -1e-9 * max(abs(values).max(), 1.0) / max(self.x_max, 1.0)
        if not np.all(slopes >= tol):
            return False
        # growth bound: F(slack * x_max) <= slack^2 * F(x_max)
        at_edge = float(sum(a * t[2] for a, t in zip(coef, terms)))
        at_far = float(sum(a * t[3] for a, t in zip(coef, terms)))
        if at_edge > 0.0 and at_far > self.slack**2 * at_edge:
            return False
        return True


def _is_sane(fit: FitResult, *, extrapolation_slack: float = 4.0) -> bool:
    """Reject physically implausible execution-time curves.

    See :class:`_SanityGrid`; this checks one fit on its own grid.
    """
    return _SanityGrid(fit.x_max, fit.x_scale, extrapolation_slack).accepts(fit)


#: Non-negative combinations of these are positive and non-decreasing on
#: (0, inf), so the NNLS fallback over them is sane by construction.
_MONOTONE_BASIS = (CONSTANT, LINEAR, SQUARE, CUBE, SQRT)


def _clamped_linear_fit(
    column: Callable[[BasisFunction], np.ndarray],
    ya: np.ndarray,
    x_scale: float,
    x_max: float,
) -> FitResult | None:
    """Non-negative least squares over inherently monotone bases.

    Any non-negative combination of ``{1, x, x^2, x^3, sqrt x}`` is
    positive and non-decreasing on (0, inf), so this fit is sane by
    construction — the safety net when every unconstrained candidate
    fails the physical-sanity check (typical for strongly convex CPU
    cache-pressure curves, whose best affine fit has a negative
    intercept).  ``column(b)`` is basis ``b`` evaluated at the data.
    """
    from scipy.optimize import nnls

    basis = _MONOTONE_BASIS
    design = np.column_stack([column(b) for b in basis])
    col_norms = np.linalg.norm(design, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    try:
        coef_scaled, _ = nnls(design / col_norms, ya)
    except (ValueError, RuntimeError):
        return None
    coef = coef_scaled / col_norms
    if not np.any(coef > 0.0):
        # degenerate all-zero model: use the mean as a constant floor
        coef = np.zeros(len(basis))
        coef[0] = max(float(ya.mean()), 1e-12)
    y_hat = design @ coef
    return FitResult(
        basis=basis,
        coefficients=coef,
        x_scale=x_scale,
        r2=r_squared(ya, y_hat),
        n_points=int(ya.size),
        x_max=x_max,
        rel_rmse=_relative_rmse(ya, y_hat),
    )


def select_model(
    x: Sequence[float],
    y: Sequence[float],
    *,
    candidates: Sequence[Sequence[BasisFunction]] = CANDIDATE_MODELS,
    weights: Sequence[float] | None = None,
    x_scale: float | None = None,
    require_sane: bool = True,
) -> FitResult:
    """Fit every supportable candidate and return the best.

    "Best" is the highest adjusted R² among *sane* candidates (positive
    and non-decreasing over the usable range — see :class:`_SanityGrid`);
    among candidates within :data:`PARSIMONY_TOL` of the best score the
    one with the fewest coefficients wins.  If no candidate is sane, the
    non-negative fit over monotone bases is returned, or the best insane
    candidate when that fit fails (the R² threshold loop in Algorithm 1
    will keep probing).  Requires at least two points.

    The inputs are validated once and each basis function is evaluated
    once on the data and once on the sanity grid; every candidate is
    then fitted from those shared columns by
    :func:`~repro.modeling.least_squares.fit_columns`.

    Raises
    ------
    FitError
        If no candidate can be fitted (fewer than 2 points, invalid
        inputs, or every candidate larger than the point count).
    """
    xa = np.asarray(x, dtype=float)
    if xa.size < 2:
        raise FitError(f"model selection needs >= 2 points, got {xa.size}")
    xa, ya, scale, sqrt_w = checked_data(x, y, x_scale=x_scale, weights=weights)
    x_max = float(xa.max())
    u = xa / scale
    columns: dict[int, np.ndarray] = {}  # by id(), as in _SanityGrid

    def column(b: BasisFunction) -> np.ndarray:
        col = columns.get(id(b))
        if col is None:
            col = columns[id(b)] = b.f(u)
        return col

    grid = _SanityGrid(x_max, scale) if require_sane else None
    # Strictly require n_points > n_params for selection candidates so the
    # reported R2 reflects generalisation, not interpolation.  (A 2-term
    # candidate therefore needs 3 points; with exactly 2 points we fall
    # back to the interpolating linear fit below.)
    sane_fits: list[tuple[float, FitResult]] = []
    fallback: FitResult | None = None
    fallback_score = -np.inf
    for cand in candidates:
        if not 0 < len(cand) < xa.size:
            continue
        try:
            fit = fit_columns(
                cand,
                [column(b) for b in cand],
                ya,
                x_scale=scale,
                x_max=x_max,
                sqrt_weights=sqrt_w,
            )
        except FitError:
            continue
        score = adjusted_r2(fit.r2, fit.n_points, len(cand))
        if grid is not None and not grid.accepts(fit):
            if score > fallback_score:
                fallback, fallback_score = fit, score
            continue
        sane_fits.append((score, fit))
    best: FitResult | None = None
    if sane_fits:
        # Parsimony window: flexible candidates (cubics, exponentials)
        # routinely edge out the true model by a hair of adjusted R2 while
        # extrapolating far worse, so among candidates within
        # PARSIMONY_TOL of the best score we keep the smallest model.
        top = max(score for score, _ in sane_fits)
        near_best = [
            (score, fit)
            for score, fit in sane_fits
            if score >= top - PARSIMONY_TOL
        ]
        near_best.sort(key=lambda sf: (len(sf[1].basis), -sf[0]))
        best = near_best[0][1]
    if best is None and fallback is not None:
        # Every candidate is unphysical somewhere in the usable range
        # (e.g. strongly convex data pushes every affine fit's intercept
        # negative).  A coefficient-clamped linear model is always sane
        # and beats handing the solver a curve that goes negative.
        clamped = _clamped_linear_fit(column, ya, scale, x_max)
        best = clamped if clamped is not None else fallback
    if best is None:
        # Too few points for any strict candidate: fall back to the
        # smallest candidate that is exactly determined (interpolation),
        # flagged by r2 of the interpolating fit.
        for cand in sorted(candidates, key=len):
            if len(cand) > xa.size:
                continue
            try:
                return fit_basis_model(x, y, cand, weights=weights, x_scale=x_scale)
            except FitError:
                continue
        raise FitError(
            f"no candidate model supportable with {xa.size} points"
        )
    return best
