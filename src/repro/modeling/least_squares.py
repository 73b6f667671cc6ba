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
    # sum / size is what ndarray.mean computes, without its wrapper
    mean = y.sum() / y.size
    return float(((y - mean) ** 2).sum()), float(np.abs(y).sum() / y.size)


def _quality(
    y: np.ndarray, y_hat: np.ndarray, spread: tuple[float, float]
) -> tuple[float, float]:
    """R² and relative RMSE of ``y_hat`` against ``y``, from one residual.

    ``spread`` is :func:`_spread` of ``y``.
    """
    residual = y - y_hat
    return _scores(float((residual * residual).sum()), residual, spread)


def _scores(
    ss_res: float, residual: np.ndarray, spread: tuple[float, float]
) -> tuple[float, float]:
    """R² and relative RMSE from a residual and its sum of squares.

    Degenerate targets: a constant one scores R² 1.0 when matched
    exactly and 0.0 otherwise; an all-zero one has relative RMSE 0.0
    when matched exactly, else inf.
    """
    ss_tot, mean_abs = spread
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    if mean_abs == 0.0:
        exact = float(np.max(np.abs(residual), initial=0.0)) == 0.0
        return r2, 0.0 if exact else float("inf")
    return r2, math.sqrt(ss_res / residual.size) / mean_abs


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
    the scaled coordinate ``u = x / x_scale``, the weighted target and
    the target's :func:`_spread`.  Each basis column is evaluated on the
    data on first use, with its weighted norm and its norm-scaled weighted
    column, so a selection that stops early never evaluates the bases it
    did not reach.  Model selection solves its candidate subsets from one
    instance; :func:`fit_basis_model` builds one for its single basis.
    ``x_scale`` defaults to ``max(x)``.

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
        if (xa <= 0.0).any():
            raise FitError(f"block sizes must be positive, got {xa.min()}")
        if not (np.isfinite(xa).all() and np.isfinite(self.y).all()):
            raise FitError("x and y must be finite")
        self.x_max = float(xa.max())
        self.x_scale = float(x_scale) if x_scale is not None else self.x_max
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
        self.u = xa / self.x_scale
        self._sqrt_w = sqrt_w
        self._target = self.y if sqrt_w is None else self.y * sqrt_w
        self._spread = _spread(self.y)
        # keyed by id(): the caller's basis tuples outlive this instance
        self._position: dict[int, int] = {}
        self._bases: list[BasisFunction] = []
        for b in bases:
            if self._position.setdefault(id(b), len(self._bases)) == len(self._bases):
                self._bases.append(b)
        m = len(self._bases)
        #: per basis, filled on first use: its column at the data (one
        #: row each, then an all-zero row that pads short fits), its
        #: weighted norm and its weighted column divided by that norm
        self._rows = np.zeros((m + 1, self.n_points))
        self._norms = np.empty(m)
        self._scaled = np.empty((m, self.n_points))
        self._finite: list[bool | None] = [None] * m  # None: not evaluated yet

    def weighted(self, design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``design`` (basis columns at the data) and the target, each
        row scaled by √w as every solve weighs them."""
        if self._sqrt_w is None:
            return design, self.y
        return design * self._sqrt_w[:, None], self.y * self._sqrt_w

    def evaluate(self, bases: Sequence[BasisFunction]) -> None:
        """Evaluate the columns of ``bases`` not evaluated yet, in one batch."""
        self._evaluate([self._position[id(b)] for b in bases])

    def _evaluate(self, position: Sequence[int]) -> None:
        todo = [j for j in position if self._finite[j] is None]
        if not todo:
            return
        todo = list(dict.fromkeys(todo))
        plain = np.array([self._bases[j].f(self.u) for j in todo])
        weighted = plain if self._sqrt_w is None else plain * self._sqrt_w
        # A norm over a design of >= 2 columns (a basis listed twice
        # included) sums each column's squares in row order; the
        # cumulative sum adds them in that order too.
        norms = np.sqrt(np.cumsum(weighted * weighted, axis=1)[:, -1])
        norms[norms == 0.0] = 1.0
        # a non-finite column has a non-finite norm (a finite column's may
        # overflow, so only those are looked at)
        finite = np.isfinite(norms)
        if not finite.all():
            finite = np.isfinite(weighted).all(axis=1)
            norms[~finite] = 1.0  # never solved; keeps the division quiet
        self._rows[todo] = plain
        self._norms[todo] = norms
        self._scaled[todo] = weighted / norms[:, None]
        for j, ok in zip(todo, finite.tolist()):
            self._finite[j] = ok

    def solve(self, basis: Sequence[BasisFunction]) -> np.ndarray:
        """Coefficients of the weighted least-squares fit on ``basis``.

        Raises
        ------
        FitError
            If a basis column is not finite at the data (it would reach
            LAPACK, which reports it on stderr), or the solve fails.
        """
        position = [self._position[id(b)] for b in basis]
        self._evaluate(position)
        if not all(self._finite[j] for j in position):
            names = [b.name for b in basis]
            raise FitError(f"basis {names} is not finite at the data")
        # Column scaling keeps mixed-magnitude bases (e^u vs u^3) conditioned.
        if len(position) >= 2:
            # LAPACK sees a copy in column order: the layout moves no bit
            design = self._scaled[position].T
            col_norms = self._norms.take(position)
        else:
            # a one-column norm sums pairwise, so it is not the shared one
            design, _ = self.weighted(self._rows[position].T.copy())
            col_norms = np.linalg.norm(design, axis=0)
            col_norms[col_norms == 0.0] = 1.0
            design = design / col_norms
        try:
            coef_scaled, *_ = np.linalg.lstsq(design, self._target, rcond=None)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - lstsq rarely raises
            raise FitError(f"least-squares solve failed: {exc}") from exc
        return coef_scaled / col_norms

    def qualities(
        self, fits: Sequence[tuple[Sequence[BasisFunction], np.ndarray]]
    ) -> list[tuple[float, float]]:
        """(Unweighted) R² and relative RMSE of each solved
        ``(basis, coefficients)`` fit at the data, in one table pass.

        Each fit is a row of the table; a fit with fewer terms than the
        widest is padded with zero coefficients on the all-zero row.  Each
        row adds its terms in coefficient order, with the products
        :meth:`FitResult.predict` forms, so its residuals are that fit's
        own.
        """
        width = max(len(basis) for basis, _ in fits)
        coef = np.zeros((len(fits), width, 1))
        table = []
        for i, (basis, a) in enumerate(fits):
            coef[i, : len(basis), 0] = a
            padding = [-1] * (width - len(basis))  # -1: the all-zero row
            table.append([self._position[id(b)] for b in basis] + padding)
        residual = self.y - (coef * self._rows[table]).sum(axis=1)
        ss_res = (residual * residual).sum(axis=1).tolist()
        return [_scores(ss, r, self._spread) for ss, r in zip(ss_res, residual)]

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
    coef = data.solve(basis)
    return data.result(basis, coef, data.qualities([(basis, coef)])[0])
