"""Generic smooth nonlinear program description.

The interior-point solver consumes problems of the form::

    minimise    f(x)
    subject to  c(x) = 0         (m equality constraints)
                l <= x <= u      (component-wise, +-inf allowed)

All callbacks are dense-NumPy; problem sizes in this library are tiny
(one variable per processing unit), so sparsity machinery would be
noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["NLPProblem"]


@dataclass
class NLPProblem:
    """An equality-constrained, bound-constrained smooth NLP.

    Attributes
    ----------
    n / m:
        Number of variables / equality constraints.
    objective / gradient:
        ``f(x) -> float`` and ``∇f(x) -> (n,)``.
    constraints / jacobian:
        ``c(x) -> (m,)`` and ``J(x) -> (m, n)``.
    hess_lagrangian:
        ``(x, lam, obj_factor) -> (n, n)`` — Hessian of
        ``obj_factor * f + lam . c``.  Must be symmetric.
    lower / upper:
        Variable bounds; use ``-np.inf`` / ``np.inf`` for free variables.
    name:
        Label for diagnostics.
    """

    n: int
    m: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    hess_lagrangian: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    lower: np.ndarray = field(default=None)  # type: ignore[assignment]
    upper: np.ndarray = field(default=None)  # type: ignore[assignment]
    name: str = "nlp"

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if self.m < 0:
            raise ConfigurationError(f"m must be >= 0, got {self.m}")
        if self.lower is None:
            self.lower = np.full(self.n, -np.inf)
        if self.upper is None:
            self.upper = np.full(self.n, np.inf)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != (self.n,) or self.upper.shape != (self.n,):
            raise ConfigurationError(
                f"bounds must have shape ({self.n},), got "
                f"{self.lower.shape} and {self.upper.shape}"
            )
        if np.any(self.lower > self.upper):
            raise ConfigurationError("lower bound exceeds upper bound")
        self._has_lower = np.isfinite(self.lower)
        self._has_upper = np.isfinite(self.upper)
        self._has_lower.flags.writeable = False
        self._has_upper.flags.writeable = False
        #: number of finite bounds, lower and upper together
        self.num_bounds = int(self._has_lower.sum() + self._has_upper.sum())

    # ------------------------------------------------------------------
    # checked evaluation wrappers
    # ------------------------------------------------------------------
    def eval_objective(self, x: np.ndarray) -> float:
        """Evaluate f with a finiteness check."""
        v = float(self.objective(x))
        if not np.isfinite(v):
            raise ConfigurationError(f"{self.name}: objective not finite at {x}")
        return v

    def eval_gradient(self, x: np.ndarray) -> np.ndarray:
        """Evaluate ∇f with shape/finiteness checks."""
        g = np.asarray(self.gradient(x), dtype=float)
        if g.shape != (self.n,):
            raise ConfigurationError(
                f"{self.name}: gradient shape {g.shape} != ({self.n},)"
            )
        if not np.all(np.isfinite(g)):
            raise ConfigurationError(f"{self.name}: gradient not finite at {x}")
        return g

    def eval_constraints(self, x: np.ndarray) -> np.ndarray:
        """Evaluate c with shape/finiteness checks."""
        c = np.asarray(self.constraints(x), dtype=float)
        if c.shape != (self.m,):
            raise ConfigurationError(
                f"{self.name}: constraints shape {c.shape} != ({self.m},)"
            )
        if not np.all(np.isfinite(c)):
            raise ConfigurationError(f"{self.name}: constraints not finite at {x}")
        return c

    def eval_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Evaluate J with shape/finiteness checks."""
        j = np.asarray(self.jacobian(x), dtype=float)
        if j.shape != (self.m, self.n):
            raise ConfigurationError(
                f"{self.name}: jacobian shape {j.shape} != ({self.m}, {self.n})"
            )
        if not np.all(np.isfinite(j)):
            raise ConfigurationError(f"{self.name}: jacobian not finite at {x}")
        return j

    def eval_hessian(
        self, x: np.ndarray, lam: np.ndarray, obj_factor: float = 1.0
    ) -> np.ndarray:
        """Evaluate the Lagrangian Hessian, symmetrised."""
        h = np.asarray(self.hess_lagrangian(x, lam, obj_factor), dtype=float)
        if h.shape != (self.n, self.n):
            raise ConfigurationError(
                f"{self.name}: hessian shape {h.shape} != ({self.n}, {self.n})"
            )
        if not np.all(np.isfinite(h)):
            raise ConfigurationError(f"{self.name}: hessian not finite at {x}")
        return 0.5 * (h + h.T)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def has_lower(self) -> np.ndarray:
        """Boolean mask (read-only) of variables with a finite lower bound."""
        return self._has_lower

    def has_upper(self) -> np.ndarray:
        """Boolean mask (read-only) of variables with a finite upper bound."""
        return self._has_upper

    def clip_interior(self, x: np.ndarray, margin: float = 1e-8) -> np.ndarray:
        """Project a point strictly inside the bounds.

        The margin is both absolute and relative to the bound gap, as in
        IPOPT's initialisation (``kappa_1``/``kappa_2`` style).
        """
        x = np.asarray(x, dtype=float).copy()
        gap = np.where(
            self._has_lower & self._has_upper,
            self.upper - self.lower,
            1.0,
        )
        pad = np.maximum(margin, 1e-2 * gap * 0)  # absolute margin
        pad = np.maximum(pad, margin * np.maximum(np.abs(x), 1.0))
        lo_mask = self.has_lower()
        up_mask = self.has_upper()
        x[lo_mask] = np.maximum(x[lo_mask], self.lower[lo_mask] + pad[lo_mask])
        x[up_mask] = np.minimum(x[up_mask], self.upper[up_mask] - pad[up_mask])
        # if bounds are so tight that the pads cross, take the midpoint
        both = lo_mask & up_mask
        crossed = both & (x < self.lower) | both & (x > self.upper)
        x[crossed] = 0.5 * (self.lower[crossed] + self.upper[crossed])
        return x
