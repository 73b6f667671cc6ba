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

import functools
import math
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

#: A certified answer scores at least ``1 - PARSIMONY_TOL``, so the best
#: sane score does too, and every candidate in its window scores at least
#: this (rounded as the window's own bound is).
_WINDOW_FLOOR = (1.0 - PARSIMONY_TOL) - PARSIMONY_TOL


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
#: the all-zero table row that pads short fits
_PADDING = np.zeros(_FAR + 1)
#: sanity grids kept, and basis rows kept per grid (the default ladder
#: uses 9 bases)
_GRIDS, _ROWS = 64, 32


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

    The grid depends only on ``x_max``, ``x_scale`` and the slack, which
    every fit of one selection shares and successive selections of one
    profile mostly repeat, so :func:`_shared_grid` keeps the last
    :data:`_GRIDS` grids.  Each basis function's value and slope on the
    65-point grid, and its value at the range edge and far end, are
    computed once per grid, when a checked fit first uses the basis, and
    kept by the basis itself (an ``id()`` is reused once its object is
    collected), at most :data:`_ROWS` of them (a full grid starts
    over).  :meth:`accepts` then combines them for many fits at once,
    term by term in coefficient order, with the same products and sums
    :meth:`FitResult.predict` and :meth:`FitResult.derivative` would
    form for each fit alone.
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
        self._rows: dict[BasisFunction, np.ndarray] = {}

    def _row(self, basis: BasisFunction) -> np.ndarray:
        """``basis``'s table row, evaluated on first use."""
        row = self._rows.get(basis)
        if row is None:
            if len(self._rows) >= _ROWS:
                self._rows.clear()
            ends = (basis.f(self._u_edge), basis.f(self._u_far))
            row = np.concatenate((basis.f(self._u_grid), basis.df(self._u_grid), ends))
            row.flags.writeable = False  # later selections share it
            self._rows[basis] = row
        return row

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
        coef = np.zeros((len(fits), width, 1))
        for i, (basis, a) in enumerate(fits):
            coef[i, : len(basis), 0] = a
        terms = np.array(
            [
                [self._row(b) for b in basis] + [_PADDING] * (width - len(basis))
                for basis, _ in fits
            ]
        )
        total = (coef * terms).sum(axis=1)  # term by term, in coefficient order
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


#: the kept grid of ``(x_max, x_scale[, extrapolation_slack])``
_shared_grid = functools.lru_cache(maxsize=_GRIDS)(_SanityGrid)


def _is_sane(fit: FitResult, *, extrapolation_slack: float = 4.0) -> bool:
    """Reject physically implausible execution-time curves.

    See :class:`_SanityGrid`; this is its one-row case.
    """
    grid = _shared_grid(fit.x_max, fit.x_scale, extrapolation_slack)
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


def _check_sanity(
    grid: _SanityGrid,
    ladder: Sequence[Sequence[BasisFunction]],
    coefs: dict[int, np.ndarray],
    indices: Sequence[int],
    sane: list[bool | None],
) -> None:
    """Record in ``sane`` the sanity of the fits at ``indices`` not
    checked yet (``None``), in one table pass."""
    todo = [i for i in indices if sane[i] is None]
    if todo:
        fits = [(ladder[i], coefs[i]) for i in todo]
        for i, ok in zip(todo, grid.accepts(fits).tolist()):
            sane[i] = ok


def _parsimonious(
    fitted: Sequence[int],
    widths: Sequence[int],
    scores: dict[int, float],
    sane: Sequence[bool | None],
) -> int | None:
    """The selection rule over the ``fitted`` candidates (in ladder order):
    the smallest sane candidate within :data:`PARSIMONY_TOL` of the best
    sane score, the better score among equals; None when none is sane.

    Flexible candidates (cubics, exponentials) routinely edge out the
    true model by a hair of adjusted R² while extrapolating far worse,
    so among candidates within the window we keep the smallest model.
    """
    chosen = [i for i in fitted if sane[i]]
    if not chosen:
        return None
    top = max(scores[i] for i in chosen)
    near_best = [i for i in chosen if scores[i] >= top - PARSIMONY_TOL]
    near_best.sort(key=lambda i: (widths[i], -scores[i]))
    return near_best[0]


def select_model(
    x: Sequence[float],
    y: Sequence[float],
    *,
    candidates: Sequence[Sequence[BasisFunction]] = CANDIDATE_MODELS,
    weights: Sequence[float] | None = None,
    x_scale: float | None = None,
    require_sane: bool = True,
) -> FitResult:
    """Fit the supportable candidates and return the best.

    "Best" is the highest adjusted R² among *sane* candidates (positive
    and non-decreasing over the usable range — see :class:`_SanityGrid`);
    among candidates within :data:`PARSIMONY_TOL` of the best score the
    one with the fewest coefficients wins.  If no candidate is sane, the
    non-negative fit over monotone bases is returned, or the best insane
    candidate when that fit fails (the R² threshold loop in Algorithm 1
    will keep probing).  Requires at least two points.

    The ladder is fitted one width class at a time, narrowest first
    (ladder order within a class), and stops early once the answer is
    certain.  After each class the rule above picks among the candidates
    fitted so far; when that provisional answer scores at least
    ``1 - PARSIMONY_TOL``, no wider candidate can displace it: adjusted
    R² never exceeds 1, so the window's floor never rises above the
    answer's score; every unfitted candidate is wider, so it sorts after
    the answer; and a fitted candidate outside the window stays outside,
    because the best score only grows.  The certificate is used only
    when sanity is required and every score fitted so far is finite
    (with NaN scores, ``max`` depends on order); otherwise the whole
    ladder runs.  Either way the answer is the full ladder's, bit for bit.

    Each class costs its candidates' column-scaled ``lstsq`` solves
    (:meth:`~repro.modeling.least_squares.FitData.solve`, from basis
    columns evaluated once, on first use) and one table pass for their
    R² and relative RMSE.  Sanity (:class:`_SanityGrid`, one table pass)
    is checked only where the rule needs it: while a certificate is
    possible, for the candidates scoring at least
    :data:`_WINDOW_FLOOR`, the only ones a certified answer's window can
    hold; for the rest, once the ladder runs out.  The grid is the one
    kept for the data's ``(x_max, x_scale)``, so its rows are evaluated
    once across the selections that share it.  Only the answer becomes a
    :class:`FitResult`.

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
    grid = _shared_grid(data.x_max, data.x_scale)
    widths = [len(cand) for cand in ladder]
    classes: dict[int, list[int]] = {}  # ladder indices by width
    for i, width in enumerate(widths):
        classes.setdefault(width, []).append(i)
    # the fitted candidates' coefficients, qualities and scores, and every
    # candidate's sanity (None: not checked yet), by ladder index
    coefs: dict[int, np.ndarray] = {}
    quality: dict[int, tuple[float, float]] = {}
    scores: dict[int, float] = {}
    sane: list[bool | None] = [None if require_sane else True] * len(ladder)
    certifiable = require_sane
    for width in sorted(classes):
        members = classes[width]
        data.evaluate([b for i in members for b in ladder[i]])
        fitted = []
        for i in members:
            try:
                coefs[i] = data.solve(ladder[i])
            except FitError:
                continue
            fitted.append(i)
        if not fitted:
            continue
        fits = [(ladder[i], coefs[i]) for i in fitted]
        for i, fit_quality in zip(fitted, data.qualities(fits)):
            quality[i] = fit_quality
            scores[i] = adjusted_r2(fit_quality[0], data.n_points, width)
            certifiable = certifiable and math.isfinite(scores[i])
        if certifiable and max(scores[i] for i in coefs) >= 1.0 - PARSIMONY_TOL:
            # a certified answer and its window score at least _WINDOW_FLOOR
            high = [i for i in sorted(coefs) if scores[i] >= _WINDOW_FLOOR]
            _check_sanity(grid, ladder, coefs, high, sane)
            answer = _parsimonious(high, widths, scores, sane)
            if answer is not None and scores[answer] >= 1.0 - PARSIMONY_TOL:
                return data.result(ladder[answer], coefs[answer], quality[answer])
    fitted = sorted(coefs)
    if require_sane:
        _check_sanity(grid, ladder, coefs, fitted, sane)
    answer = _parsimonious(fitted, widths, scores, sane)
    best: FitResult | None = None
    if answer is not None:
        best = data.result(ladder[answer], coefs[answer], quality[answer])
    else:
        fallback: int | None = None
        fallback_score = -np.inf
        for i in fitted:
            if scores[i] > fallback_score:
                fallback, fallback_score = i, scores[i]
        if fallback is not None:
            # Every candidate is unphysical somewhere in the usable range
            # (e.g. strongly convex data pushes every affine fit's
            # intercept negative).  A coefficient-clamped linear model
            # stays positive and non-decreasing, which beats handing the
            # solver a curve that goes negative.
            best = _clamped_linear_fit(data)
            if best is None:
                best = data.result(
                    ladder[fallback], coefs[fallback], quality[fallback]
                )
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
