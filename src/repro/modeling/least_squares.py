"""Guarded least-squares fitting over a basis-function set.

Implements the paper's curve-fitting step: given measured
``(block size, seconds)`` pairs, find coefficients ``a_i`` minimising
``sum_j (y_j - sum_i a_i f_i(x_j / x_scale))^2`` and report the
coefficient of determination R² the algorithm's 0.7 acceptance
threshold is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import FitError
from repro.modeling.basis import BasisFunction

#: Inputs the models evaluate as one block size without NumPy array
#: wrapping: Python ints and floats, and ``np.float64`` (a ``float``).
SCALAR_TYPES = (float, int)

__all__ = [
    "SCALAR_TYPES",
    "FitResult",
    "FitData",
    "fit_basis_model",
    "r_squared",
    "_relative_rmse",
]


def _spread(y: np.ndarray) -> tuple[float, float]:
    """``y``'s total sum of squares and mean magnitude: what R² and the
    relative RMSE divide by."""
    return float(np.sum((y - y.mean()) ** 2)), float(np.mean(np.abs(y)))


def _quality(
    y: np.ndarray, y_hat: np.ndarray, spread: tuple[float, float]
) -> tuple[float, float]:
    """R² and relative RMSE of ``y_hat`` against ``y``, from one residual.

    ``spread`` is :func:`_spread` of ``y``.  Degenerate targets: a
    constant one scores R² 1.0 when matched exactly and 0.0 otherwise; an
    all-zero one has relative RMSE 0.0 when matched exactly, else inf.
    """
    ss_tot, mean_abs = spread
    residual = y - y_hat
    ss_res = float((residual * residual).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    if mean_abs == 0.0:
        exact = float(np.max(np.abs(residual), initial=0.0)) == 0.0
        return r2, 0.0 if exact else float("inf")
    return r2, math.sqrt(ss_res / y.size) / mean_abs


def _relative_rmse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """RMS residual divided by the mean target magnitude."""
    y = np.asarray(y, dtype=float)
    return _quality(y, np.asarray(y_hat, dtype=float), _spread(y))[1]


def r_squared(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Coefficient of determination of predictions ``y_hat`` against ``y``.

    A constant target with zero residuals scores 1.0; a constant target
    with residuals scores 0.0 (the conventional degenerate-case choices).
    """
    y = np.asarray(y, dtype=float)
    return _quality(y, np.asarray(y_hat, dtype=float), _spread(y))[0]


@dataclass(frozen=True)
class FitResult:
    """A fitted basis-expansion model ``F[x] = sum_i a_i f_i(x/x_scale)``.

    Attributes
    ----------
    basis:
        The basis functions used (in coefficient order).
    coefficients:
        Fitted ``a_i``.
    x_scale:
        The raw-coordinate scale; predictions evaluate the basis at
        ``x / x_scale``.
    r2:
        Coefficient of determination on the training points.
    n_points:
        How many observations supported the fit.
    x_max:
        Largest raw x observed (extrapolation beyond it is permitted —
        the paper extrapolates — but flagged by :meth:`in_fitted_range`).
    """

    basis: tuple[BasisFunction, ...]
    coefficients: np.ndarray = field(repr=False)
    x_scale: float
    r2: float
    n_points: int
    x_max: float
    #: root-mean-square residual relative to the mean target — a fit
    #: quality measure that, unlike R², stays meaningful when the target
    #: is nearly constant (R² compares against the mean predictor, which
    #: is unbeatable on flat data).
    rel_rmse: float = float("inf")

    @property
    def names(self) -> tuple[str, ...]:
        """Names of the basis terms, in coefficient order."""
        return tuple(b.name for b in self.basis)

    def _expand(self, x: np.ndarray | float, term: str):
        """``sum_i a_i * basis_i.<term>(x / x_scale)``, and whether ``x`` is scalar.

        One block size is divided as a NumPy scalar instead of a 0-d
        array: the basis callables see the same value and NumPy's
        overflow and NaN semantics, without the array wrapping.
        """
        if isinstance(x, SCALAR_TYPES):
            u, scalar = np.float64(x) / self.x_scale, True
        else:
            u, scalar = np.asarray(x, dtype=float) / self.x_scale, np.isscalar(x)
        out = 0
        for a, b in zip(self.coefficients, self.basis):
            out = out + a * getattr(b, term)(u)
        return out, scalar

    def predict(self, x: np.ndarray | float) -> np.ndarray | float:
        """Model value at raw block size(s) ``x``."""
        out, scalar = self._expand(x, "f")
        return float(out) if scalar else np.asarray(out)

    def derivative(self, x: np.ndarray | float) -> np.ndarray | float:
        """dF/dx at raw block size(s) ``x`` (chain rule over the scale)."""
        out, scalar = self._expand(x, "df")
        out = out / self.x_scale
        return float(out) if scalar else np.asarray(out)

    def second_derivative(self, x: np.ndarray | float) -> np.ndarray | float:
        """d²F/dx² at raw block size(s) ``x``."""
        out, scalar = self._expand(x, "d2f")
        out = out / self.x_scale**2
        return float(out) if scalar else np.asarray(out)

    def in_fitted_range(self, x: float, *, slack: float = 4.0) -> bool:
        """Whether ``x`` lies within ``slack`` times the profiled range."""
        return 0.0 <= x <= self.x_max * slack

    def describe(self) -> str:
        """Human-readable model formula."""
        terms = [
            f"{a:+.4g}*{b.name}" for a, b in zip(self.coefficients, self.basis)
        ]
        return f"F[x] = {' '.join(terms)}  (u=x/{self.x_scale:.4g}, R2={self.r2:.3f})"


class FitData:
    """Validated fitting data, solved against many subsets of ``bases``.

    What does not depend on the subset is computed once: the validation,
    the scaled coordinate ``u = x / x_scale``, each basis column on the
    data (plain for predictions, weighted for the solve), the weighted
    target and the target's :func:`_spread`.  Model selection solves
    every candidate subset from one instance; :func:`fit_basis_model`
    builds one for its single basis.  ``x_scale`` defaults to ``max(x)``.

    Raises
    ------
    FitError
        On mismatched or empty data, non-positive or non-finite sizes,
        non-finite targets, a non-positive scale, or weights that are
        negative, non-finite or mis-shaped.
    """

    def __init__(
        self,
        x: Sequence[float],
        y: Sequence[float],
        bases: Sequence[BasisFunction],
        *,
        x_scale: float | None = None,
        weights: Sequence[float] | None = None,
    ) -> None:
        xa = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if xa.ndim != 1 or xa.shape != self.y.shape:
            raise FitError(
                f"x and y must be equal-length 1-D, got {xa.shape}, {self.y.shape}"
            )
        if xa.size == 0:
            raise FitError("cannot fit a model to zero points")
        if np.any(xa <= 0.0):
            raise FitError(f"block sizes must be positive, got {xa.min()}")
        if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(self.y))):
            raise FitError("x and y must be finite")
        self.x_scale = float(x_scale) if x_scale is not None else float(xa.max())
        if self.x_scale <= 0.0:
            raise FitError(f"x_scale must be positive, got {self.x_scale}")
        sqrt_w = None
        if weights is not None:
            w_raw = np.asarray(weights, dtype=float)
            if w_raw.shape != xa.shape or np.any(w_raw < 0):
                raise FitError("weights must be non-negative and match x")
            if not np.all(np.isfinite(w_raw)):
                # NaN or inf would reach LAPACK, which reports it on stderr
                raise FitError(f"weights must be finite, got {w_raw.tolist()}")
            sqrt_w = np.sqrt(w_raw)
        self.n_points = int(xa.size)
        self.x_max = float(xa.max())
        self.u = xa / self.x_scale
        distinct = list({id(b): b for b in bases}.values())
        # keyed by id(): the caller's basis tuples outlive this instance
        self._position = {id(b): j for j, b in enumerate(distinct)}
        columns = [b.f(self.u) for b in distinct]
        self._columns = np.column_stack(columns) if columns else np.empty((xa.size, 0))
        self._sqrt_w = sqrt_w
        self._design, self._target = self.weighted(self._columns)
        self._spread = _spread(self.y)

    def weighted(self, design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``design`` (basis columns at the data) and the target, each
        row scaled by √w as every solve weighs them."""
        if self._sqrt_w is None:
            return design, self.y
        return design * self._sqrt_w[:, None], self.y * self._sqrt_w

    def solve(
        self, basis: Sequence[BasisFunction]
    ) -> tuple[np.ndarray, tuple[float, float]]:
        """Coefficients of the weighted least-squares fit on ``basis``, and
        their (unweighted) R² and relative RMSE at the data.

        Raises
        ------
        FitError
            If the numerical solve fails.
        """
        position = [self._position[id(b)] for b in basis]
        design = self._design.take(position, axis=1)
        # Column scaling keeps mixed-magnitude bases (e^u vs u^3) conditioned.
        col_norms = np.linalg.norm(design, axis=0)
        col_norms[col_norms == 0.0] = 1.0
        try:
            coef_scaled, *_ = np.linalg.lstsq(
                design / col_norms, self._target, rcond=None
            )
        except np.linalg.LinAlgError as exc:  # pragma: no cover - lstsq rarely raises
            raise FitError(f"least-squares solve failed: {exc}") from exc
        coef = coef_scaled / col_norms
        # sum() over the transposed terms adds a_i * f_i(u) in coefficient
        # order, starting from 0, as FitResult.predict does
        y_hat = sum((self._columns.take(position, axis=1) * coef).T)
        return coef, self.quality(y_hat)

    def quality(self, y_hat: np.ndarray) -> tuple[float, float]:
        """R² and relative RMSE of predictions ``y_hat`` at the data."""
        return _quality(self.y, y_hat, self._spread)

    def result(
        self,
        basis: Sequence[BasisFunction],
        coef: np.ndarray,
        quality: tuple[float, float],
    ) -> FitResult:
        """The :class:`FitResult` of ``coef`` on ``basis``, with its ``quality``."""
        r2, rel_rmse = quality
        return FitResult(
            basis=tuple(basis),
            coefficients=np.asarray(coef, dtype=float),
            x_scale=self.x_scale,
            r2=r2,
            n_points=self.n_points,
            x_max=self.x_max,
            rel_rmse=rel_rmse,
        )


def fit_basis_model(
    x: Sequence[float],
    y: Sequence[float],
    basis: Sequence[BasisFunction],
    *,
    x_scale: float | None = None,
    weights: Sequence[float] | None = None,
) -> FitResult:
    """Least-squares fit of ``y`` against the basis expansion at ``x``.

    Parameters
    ----------
    x, y:
        Raw block sizes (positive) and measured seconds.
    basis:
        Basis functions to combine linearly.
    x_scale:
        Coordinate scale; defaults to ``max(x)`` so the basis sees
        ``u in (0, 1]``.
    weights:
        Optional per-point weights (e.g. to downweight stale probe
        rounds after a rebalance).

    Raises
    ------
    FitError
        If fewer points than coefficients are supplied, sizes are
        non-positive, or the numerical solve fails.
    """
    if len(basis) == 0:
        raise FitError("basis must be non-empty")
    data = FitData(x, y, basis, x_scale=x_scale, weights=weights)
    if data.n_points < len(basis):
        raise FitError(
            f"{data.n_points} points cannot determine {len(basis)} coefficients"
        )
    return data.result(basis, *data.solve(basis))
