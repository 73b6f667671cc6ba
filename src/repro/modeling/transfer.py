"""The paper's transfer-time model ``G_p[x] = a1*x + a2`` (eq. (2)).

``a1`` captures network + PCIe bandwidth (seconds per unit), ``a2`` the
accumulated latencies.  Both are adjusted from profiling data by least
squares; negative coefficients (possible with noisy small samples) are
clamped to zero since bandwidth and latency are physically non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import FitError
from repro.modeling.least_squares import SCALAR_TYPES, r_squared

__all__ = ["LinearTransferFit", "fit_transfer_model"]


@dataclass(frozen=True)
class LinearTransferFit:
    """A fitted ``G[x] = slope*x + intercept`` transfer model.

    ``slope`` is seconds per application unit, ``intercept`` seconds per
    dispatch.  Both are guaranteed non-negative.
    """

    slope: float
    intercept: float
    r2: float
    n_points: int

    def predict(self, x: np.ndarray | float) -> np.ndarray | float:
        """Transfer seconds for block size(s) ``x``."""
        if isinstance(x, SCALAR_TYPES):
            return float(self.slope * np.float64(x) + self.intercept)
        out = self.slope * np.asarray(x, dtype=float) + self.intercept
        return float(out) if np.isscalar(x) else np.asarray(out)

    def derivative(self, x: np.ndarray | float) -> np.ndarray | float:
        """dG/dx — the constant slope, broadcast to the input shape."""
        if np.isscalar(x):
            return self.slope
        return np.full_like(np.asarray(x, dtype=float), self.slope)

    def describe(self) -> str:
        """Human-readable formula."""
        return (
            f"G[x] = {self.slope:.4g}*x + {self.intercept:.4g}"
            f"  (R2={self.r2:.3f})"
        )


def fit_transfer_model(
    x: Sequence[float], y: Sequence[float]
) -> LinearTransferFit:
    """Least-squares fit of the affine transfer model.

    With a single point the slope is taken as ``y/x`` and the intercept
    zero (the best assumption before a second observation arrives).

    Raises
    ------
    FitError
        On empty input, mismatched shapes or non-finite values.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or xa.shape != ya.shape or xa.size == 0:
        raise FitError(
            f"transfer fit needs equal-length non-empty 1-D data, got "
            f"{xa.shape} and {ya.shape}"
        )
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise FitError("transfer observations must be finite")
    if np.any(xa <= 0.0):
        raise FitError("block sizes must be positive")

    if xa.size == 1 or np.ptp(xa) == 0.0:
        slope = max(float(ya.mean() / xa.mean()), 0.0)
        pred = slope * xa
        return LinearTransferFit(
            slope=slope,
            intercept=0.0,
            r2=r_squared(ya, pred),
            n_points=int(xa.size),
        )

    design = np.column_stack([xa, np.ones_like(xa)])
    (slope, intercept), *_ = np.linalg.lstsq(design, ya, rcond=None)
    slope = max(float(slope), 0.0)
    intercept = max(float(intercept), 0.0)
    pred = slope * xa + intercept
    return LinearTransferFit(
        slope=slope,
        intercept=intercept,
        r2=r_squared(ya, pred),
        n_points=int(xa.size),
    )
