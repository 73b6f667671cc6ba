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
from repro.modeling.least_squares import FitData, FitResult, fit_basis_model

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


#: Sanity-grid points; a table row holds each point's value and slope,
#: then the value at the range edge and at the far end.
_GRID_POINTS = 65
_EDGE, _FAR = 2 * _GRID_POINTS, 2 * _GRID_POINTS + 1


class _SanityGrid:
    """The physical-sanity rule, checked for many fits in one table pass.

    A real execution-time model is positive, non-decreasing in block
    size, and grows at most polynomially-gently: processing k times the
    data takes at most ~k² as long (cache falloff is bounded; nothing in
    a data-parallel kernel is exponential in the *block size*).
    Flexible candidates (cubics, exponentials) can match the training
    points perfectly yet swing negative, downward, or astronomically
    upward just beyond them, which would poison the block-size solver;
    those are filtered here.  The check spans the fitted range plus the
    extrapolation slack the selection phase is allowed to use.

    Every fit of one selection shares ``x_max`` and ``x_scale``, so each
    basis function's value and slope on the 65-point grid, and its value
    at the range edge and far end, are computed once.  :meth:`accepts`
    then combines them for all fits at once, term by term in coefficient
    order, with the same products and sums :meth:`FitResult.predict` and
    :meth:`FitResult.derivative` would form for each fit alone.
    """

    def __init__(
        self, x_max: float, x_scale: float, extrapolation_slack: float = 4.0
    ) -> None:
        self.x_max = x_max
        self.x_scale = x_scale
        self.slack = extrapolation_slack
        grid = np.linspace(x_max * 1e-3, x_max * extrapolation_slack, _GRID_POINTS)
        self._u_grid = np.asarray(grid, dtype=float) / x_scale
        self._u_edge = np.asarray(x_max, dtype=float) / x_scale
        self._u_far = np.asarray(x_max * extrapolation_slack, dtype=float) / x_scale

    def _terms(self, bases: Sequence[BasisFunction]) -> np.ndarray:
        """One row per basis, then an all-zero row that pads short fits."""
        terms = np.zeros((len(bases) + 1, _FAR + 1))
        terms[:-1, :_GRID_POINTS] = [b.f(self._u_grid) for b in bases]
        terms[:-1, _GRID_POINTS:_EDGE] = [b.df(self._u_grid) for b in bases]
        terms[:-1, _EDGE] = [b.f(self._u_edge) for b in bases]
        terms[:-1, _FAR] = [b.f(self._u_far) for b in bases]
        return terms

    def accepts(
        self, fits: Sequence[tuple[Sequence[BasisFunction], np.ndarray]]
    ) -> np.ndarray:
        """Which ``(basis, coefficients)`` fits are positive, non-decreasing
        and gently growing, as a boolean array.

        Each fit is a row of the table; a fit with fewer terms than the
        widest is padded with zero coefficients on the all-zero row, and
        adding those zeros changes no value the checks compare.
        """
        width = max(len(basis) for basis, _ in fits)
        coef = np.zeros((len(fits), width))
        table = np.full((len(fits), width), -1)  # -1: the padding row
        index: dict[int, tuple[int, BasisFunction]] = {}  # by id(), as in FitData
        for i, (basis, a) in enumerate(fits):
            coef[i, : len(basis)] = a
            table[i, : len(basis)] = [
                index.setdefault(id(b), (len(index), b))[0] for b in basis
            ]
        products = coef[:, :, None] * self._terms([b for _, b in index.values()])[table]
        total = np.zeros((len(fits), _FAR + 1))
        for p in range(width):  # term by term, in coefficient order
            total += products[:, p]
        values = total[:, :_GRID_POINTS]
        low, high = values.min(axis=1), values.max(axis=1)
        positive = (low > 0.0) & (high < np.inf)  # NaN fails both
        # tolerate microscopic negative slopes from floating-point noise
        # (a positive row's largest magnitude is its largest value)
        tol = -1e-9 * np.maximum(high, 1.0) / max(self.x_max, 1.0)
        slopes = total[:, _GRID_POINTS:_EDGE] / self.x_scale
        rising = slopes.min(axis=1) >= tol
        # growth bound: F(slack * x_max) <= slack^2 * F(x_max)
        edge, far = total[:, _EDGE], total[:, _FAR]
        gentle = ~((edge > 0.0) & (far > self.slack**2 * edge))
        return positive & rising & gentle


def _is_sane(fit: FitResult, *, extrapolation_slack: float = 4.0) -> bool:
    """Reject physically implausible execution-time curves.

    See :class:`_SanityGrid`; this is its one-row case.
    """
    grid = _SanityGrid(fit.x_max, fit.x_scale, extrapolation_slack)
    return bool(grid.accepts([(fit.basis, fit.coefficients)])[0])


#: Non-negative combinations of these are positive and non-decreasing on
#: (0, inf).  They are not always sane: once x^3 carries weight, the
#: growth bound F(4 x_max) <= 16 F(x_max) can fail.
_MONOTONE_BASIS = (CONSTANT, LINEAR, SQUARE, CUBE, SQRT)


def _clamped_linear_fit(data: FitData) -> FitResult | None:
    """Non-negative least squares over inherently monotone bases.

    Any non-negative combination of ``{1, x, x^2, x^3, sqrt x}`` is
    positive and non-decreasing on (0, inf), so this fit passes the
    positivity and slope checks by construction — the safety net when
    every unconstrained candidate fails the physical-sanity check
    (typical for strongly convex CPU cache-pressure curves, whose best
    affine fit has a negative intercept).  It can still break the growth
    bound when the data rise faster than x^2.  The rows are weighted by
    √w as the ladder's are, so a zero-weight point does not move the
    answer; its R² and relative RMSE are unweighted, as the ladder's are.
    """
    from scipy.optimize import nnls

    basis = _MONOTONE_BASIS
    design = np.column_stack([b.f(data.u) for b in basis])
    weighted, target = data.weighted(design)
    col_norms = np.linalg.norm(weighted, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    try:
        coef_scaled, _ = nnls(weighted / col_norms, target)
    except (ValueError, RuntimeError):
        return None
    coef = coef_scaled / col_norms
    if not np.any(coef > 0.0):
        # degenerate all-zero model: use the mean as a constant floor
        coef = np.zeros(len(basis))
        coef[0] = max(float(data.y.mean()), 1e-12)
    return data.result(basis, coef, data.quality(design @ coef))


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

    One pass: the inputs are validated once, and each basis function is
    evaluated once on the data and once on the sanity grid
    (:class:`~repro.modeling.least_squares.FitData`,
    :class:`_SanityGrid`).  Each candidate then costs one column-scaled
    ``lstsq`` solve on its own design and one residual reduction for its
    R² and relative RMSE; one table pass checks every candidate's
    sanity, and only the answer becomes a :class:`FitResult`.  The
    result is bit-identical to fitting and checking each candidate on
    its own.

    Raises
    ------
    FitError
        If no candidate can be fitted (fewer than 2 points, invalid
        inputs, or every candidate larger than the point count).
    """
    xa = np.asarray(x, dtype=float)
    if xa.size < 2:
        raise FitError(f"model selection needs >= 2 points, got {xa.size}")
    # Strictly require n_points > n_params for selection candidates so the
    # reported R2 reflects generalisation, not interpolation.  (A 2-term
    # candidate therefore needs 3 points; with exactly 2 points we fall
    # back to the interpolating linear fit below.)
    ladder = [cand for cand in candidates if 0 < len(cand) < xa.size]
    data = FitData(
        x, y, [b for cand in ladder for b in cand], x_scale=x_scale, weights=weights
    )
    fits: list[tuple[Sequence[BasisFunction], np.ndarray]] = []
    quality: list[tuple[float, float]] = []
    for cand in ladder:
        try:
            coef, fit_quality = data.solve(cand)
        except FitError:
            continue
        fits.append((cand, coef))
        quality.append(fit_quality)
    scores = [
        adjusted_r2(r2, data.n_points, len(cand))
        for (cand, _), (r2, _) in zip(fits, quality)
    ]
    sane = [True] * len(fits)
    if require_sane and fits:
        sane = _SanityGrid(data.x_max, data.x_scale).accepts(fits).tolist()
    best: FitResult | None = None
    chosen = [i for i in range(len(fits)) if sane[i]]
    if chosen:
        # Parsimony window: flexible candidates (cubics, exponentials)
        # routinely edge out the true model by a hair of adjusted R2 while
        # extrapolating far worse, so among candidates within
        # PARSIMONY_TOL of the best score we keep the smallest model.
        top = max(scores[i] for i in chosen)
        near_best = [i for i in chosen if scores[i] >= top - PARSIMONY_TOL]
        near_best.sort(key=lambda i: (len(fits[i][0]), -scores[i]))
        best = data.result(*fits[near_best[0]], quality[near_best[0]])
    else:
        fallback: int | None = None
        fallback_score = -np.inf
        for i, score in enumerate(scores):
            if score > fallback_score:
                fallback, fallback_score = i, score
        if fallback is not None:
            # Every candidate is unphysical somewhere in the usable range
            # (e.g. strongly convex data pushes every affine fit's
            # intercept negative).  A coefficient-clamped linear model
            # stays positive and non-decreasing, which beats handing the
            # solver a curve that goes negative.
            best = _clamped_linear_fit(data)
            if best is None:
                best = data.result(*fits[fallback], quality[fallback])
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
