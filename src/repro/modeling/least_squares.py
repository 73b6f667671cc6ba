"""Guarded least-squares fitting over a basis-function set.

Implements the paper's curve-fitting step: given measured
``(block size, seconds)`` pairs, find coefficients ``a_i`` minimising
``sum_j (y_j - sum_i a_i f_i(x_j / x_scale))^2`` and report the
coefficient of determination R² the algorithm's 0.7 acceptance
threshold is checked against.
"""

from __future__ import annotations

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
    "checked_data",
    "fit_basis_model",
    "fit_columns",
    "r_squared",
    "_relative_rmse",
]


def _relative_rmse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """RMS residual divided by the mean target magnitude."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    denom = float(np.mean(np.abs(y)))
    if denom == 0.0:
        return 0.0 if float(np.max(np.abs(y - y_hat), initial=0.0)) == 0.0 else float("inf")
    return float(np.sqrt(np.mean((y - y_hat) ** 2))) / denom


def r_squared(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Coefficient of determination of predictions ``y_hat`` against ``y``.

    A constant target with zero residuals scores 1.0; a constant target
    with residuals scores 0.0 (the conventional degenerate-case choices).
    """
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    ss_res = float(np.sum((y - y_hat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-24 else 0.0
    return 1.0 - ss_res / ss_tot


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


def checked_data(
    x: Sequence[float],
    y: Sequence[float],
    *,
    x_scale: float | None = None,
    weights: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray | None]:
    """Validate fitting inputs once for any number of basis subsets.

    Returns ``(x, y, x_scale, sqrt_weights)`` as floats; ``x_scale``
    defaults to ``max(x)`` and ``sqrt_weights`` is None when unweighted.

    Raises
    ------
    FitError
        On mismatched or empty data, non-positive or non-finite sizes,
        non-finite targets, a non-positive scale or bad weights.
    """
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
    scale = float(x_scale) if x_scale is not None else float(xa.max())
    if scale <= 0.0:
        raise FitError(f"x_scale must be positive, got {scale}")
    sqrt_w = None
    if weights is not None:
        w_raw = np.asarray(weights, dtype=float)
        if w_raw.shape != xa.shape or np.any(w_raw < 0):
            raise FitError("weights must be non-negative and match x")
        sqrt_w = np.sqrt(w_raw)
    return xa, ya, scale, sqrt_w


def fit_columns(
    basis: Sequence[BasisFunction],
    columns: Sequence[np.ndarray],
    y: np.ndarray,
    *,
    x_scale: float,
    x_max: float,
    sqrt_weights: np.ndarray | None = None,
) -> FitResult:
    """Least-squares fit from basis columns already evaluated at the data.

    ``columns[i]`` is ``basis[i].f(x / x_scale)``; inputs are assumed
    validated by :func:`checked_data`.  Model selection evaluates each
    basis function once and fits every candidate subset through here.

    Raises
    ------
    FitError
        If the numerical solve fails.
    """
    design = np.column_stack(columns)
    target = y
    if sqrt_weights is not None:
        design = design * sqrt_weights[:, None]
        target = y * sqrt_weights

    # Column scaling keeps mixed-magnitude bases (e^u vs u^3) conditioned.
    col_norms = np.linalg.norm(design, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    try:
        coef_scaled, *_ = np.linalg.lstsq(design / col_norms, target, rcond=None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - lstsq rarely raises
        raise FitError(f"least-squares solve failed: {exc}") from exc
    coef = coef_scaled / col_norms

    y_hat = np.asarray(sum(a * col for a, col in zip(coef, columns)))
    return FitResult(
        basis=tuple(basis),
        coefficients=np.asarray(coef, dtype=float),
        x_scale=x_scale,
        r2=r_squared(y, y_hat),
        n_points=int(y.size),
        x_max=x_max,
        rel_rmse=_relative_rmse(y, y_hat),
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
    xa, ya, scale, sqrt_w = checked_data(x, y, x_scale=x_scale, weights=weights)
    if xa.size < len(basis):
        raise FitError(
            f"{xa.size} points cannot determine {len(basis)} coefficients"
        )
    u = xa / scale
    return fit_columns(
        basis,
        [b.f(u) for b in basis],
        ya,
        x_scale=scale,
        x_max=float(xa.max()),
        sqrt_weights=sqrt_w,
    )
