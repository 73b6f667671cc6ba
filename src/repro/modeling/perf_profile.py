"""Per-device online performance profiles and the combined model E_p.

A :class:`PerfProfile` accumulates the (block size, execution seconds,
transfer seconds) observations a processing unit produces at runtime.
Fitting one yields a :class:`DeviceModel` bundling the paper's
``F_p[x]`` (basis-expansion execution model), ``G_p[x]`` (linear
transfer model) and their sum ``E_p[x]``, with analytic derivatives for
the interior-point solver and a guarded inverse for the waterfilling
fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import FitError
from repro.modeling.basis import CANDIDATE_MODELS, BasisFunction
from repro.modeling.least_squares import SCALAR_TYPES, FitResult
from repro.modeling.model_select import select_model
from repro.modeling.transfer import LinearTransferFit, fit_transfer_model

__all__ = ["ProfilePoint", "PerfProfile", "DeviceModel"]

#: Minimum execution-time value the guarded model will report; keeps the
#: solver away from division by ~0 when extrapolating badly-behaved fits.
_TIME_FLOOR = 1e-9


@dataclass(frozen=True)
class ProfilePoint:
    """One profiling observation of one device."""

    units: float
    exec_s: float
    transfer_s: float
    round_index: int = 0

    def __post_init__(self) -> None:
        # chained comparisons: NaN fails every one, infinity the bound
        if not 0 < self.units < math.inf:
            raise FitError(
                f"profile point needs positive finite units, got {self.units}"
            )
        if not (0 <= self.exec_s < math.inf and 0 <= self.transfer_s < math.inf):
            raise FitError("profile times must be finite and non-negative")


class DeviceModel:
    """The fitted performance model of one processing unit.

    ``E(x) = F(x) + G(x)`` — total seconds to receive and process a block
    of ``x`` units.  Evaluation is *guarded*: values are floored at a
    tiny positive epsilon so downstream solvers never divide by zero or
    take logs of negative extrapolations.
    """

    def __init__(
        self,
        device_id: str,
        exec_fit: FitResult,
        transfer_fit: LinearTransferFit,
    ) -> None:
        self.device_id = device_id
        self.exec_fit = exec_fit
        self.transfer_fit = transfer_fit

    @property
    def r2(self) -> float:
        """The fit quality checked against the paper's 0.7 threshold.

        The execution fit dominates (the transfer ground truth is affine,
        so its fit is essentially exact); we report the minimum of both.
        """
        return min(self.exec_fit.r2, self.transfer_fit.r2)

    @property
    def x_max(self) -> float:
        """Largest profiled block size."""
        return self.exec_fit.x_max

    def F(self, x: np.ndarray | float) -> np.ndarray | float:
        """Fitted execution seconds for block size(s) ``x``."""
        return self.exec_fit.predict(x)

    def G(self, x: np.ndarray | float) -> np.ndarray | float:
        """Fitted transfer seconds for block size(s) ``x``."""
        return self.transfer_fit.predict(x)

    def E(self, x: np.ndarray | float) -> np.ndarray | float:
        """Guarded total seconds ``max(F + G, epsilon)``."""
        if isinstance(x, SCALAR_TYPES):
            out = self.exec_fit.predict(x) + self.transfer_fit.predict(x)
            # NaN passes through, as it does through np.maximum
            return _TIME_FLOOR if out < _TIME_FLOOR else out
        out = np.asarray(self.exec_fit.predict(x)) + np.asarray(
            self.transfer_fit.predict(x)
        )
        out = np.maximum(out, _TIME_FLOOR)
        return float(out) if np.isscalar(x) else out

    def dE(self, x: np.ndarray | float) -> np.ndarray | float:
        """dE/dx."""
        if isinstance(x, SCALAR_TYPES):
            return float(self.exec_fit.derivative(x) + self.transfer_fit.derivative(x))
        out = np.asarray(self.exec_fit.derivative(x)) + np.asarray(
            self.transfer_fit.derivative(x)
        )
        return float(out) if np.isscalar(x) else out

    def d2E(self, x: np.ndarray | float) -> np.ndarray | float:
        """d²E/dx² (the transfer model is affine, so only F contributes)."""
        out = self.exec_fit.second_derivative(x)
        return out

    def rate(self, x: float) -> float:
        """Modelled units per second at block size ``x``."""
        return float(x) / float(self.E(x))

    def invert(self, target_seconds: float, x_hi: float) -> float:
        """Largest ``x in [0, x_hi]`` with ``E(x) <= target_seconds``.

        Robust to (rare) non-monotone fitted curves: a coarse grid scan
        brackets the crossing before bisection refines it.  Returns 0.0
        when even tiny blocks exceed the target and ``x_hi`` when the
        whole range fits.
        """
        if target_seconds <= 0.0 or x_hi <= 0.0:
            return 0.0
        if float(self.E(x_hi)) <= target_seconds:
            return x_hi
        grid = np.linspace(0.0, x_hi, 65)[1:]
        values = np.asarray(self.E(grid))
        below = values <= target_seconds
        if not below.any():
            return 0.0
        # last grid point still within budget starts the bracket
        idx = int(np.max(np.nonzero(below)))
        lo = float(grid[idx])
        hi = float(grid[idx + 1]) if idx + 1 < grid.size else x_hi
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if float(self.E(mid)) <= target_seconds:
                lo = mid
            else:
                hi = mid
        return lo

    def describe(self) -> str:
        """Human-readable summary of both fitted curves."""
        return (
            f"{self.device_id}: {self.exec_fit.describe()}; "
            f"{self.transfer_fit.describe()}"
        )

    def state_summary(self) -> dict:
        """Plain-data snapshot of the model for the decision ledger.

        Captures what the scheduler knew when it used this model: the
        basis ``model_select`` chose, the fitted coefficients, both fit
        qualities and how many observations supported them.
        """
        return {
            "basis": list(self.exec_fit.names),
            "coefficients": [float(c) for c in self.exec_fit.coefficients],
            "x_scale": float(self.exec_fit.x_scale),
            "r2": float(self.r2),
            "exec_r2": float(self.exec_fit.r2),
            "rel_rmse": float(self.exec_fit.rel_rmse),
            "n_points": int(self.exec_fit.n_points),
            "x_max": float(self.x_max),
            "transfer": {
                "slope": float(self.transfer_fit.slope),
                "intercept": float(self.transfer_fit.intercept),
                "r2": float(self.transfer_fit.r2),
            },
        }


class PerfProfile:
    """Accumulates one device's observations and fits its model.

    Parameters
    ----------
    device_id:
        Stable processing-unit identifier.
    max_points:
        Observation window; older points are dropped beyond it (the
        rebalancing phase keeps refining with recent behaviour, per
        Sec. III.D).
    """

    def __init__(self, device_id: str, *, max_points: int = 512) -> None:
        if max_points < 2:
            raise FitError("max_points must be >= 2")
        self.device_id = device_id
        self.max_points = int(max_points)
        self._points: list[ProfilePoint] = []
        #: each retained point's block size, and the points per size
        self._sizes: list[float] = []
        self._counts: dict[float, int] = {}
        #: (points, candidates, recency_decay) of the last fit, and its model
        self._fitted: tuple[tuple, DeviceModel] | None = None

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> tuple[ProfilePoint, ...]:
        """All retained observations, oldest first."""
        return tuple(self._points)

    #: retained observations per identical block size — executing the
    #: same size hundreds of times (steady-state execution does exactly
    #: that) must not evict the probe points that give the fit its range
    PER_SIZE_LIMIT = 8

    def add(
        self,
        units: float,
        exec_s: float,
        transfer_s: float,
        *,
        round_index: int = 0,
    ) -> None:
        """Record one observation.

        Retention is diversity-preserving: at most
        :data:`PER_SIZE_LIMIT` points per identical size are kept (the
        oldest duplicate is replaced), and the overall window drops the
        oldest point of the *most populous* size first (of equally
        populous sizes, the one with the oldest retained point), so the
        profiled size range survives arbitrarily long runs.  Per-size
        counts are kept, so only an add that evicts looks for a point, and
        only up to the one it drops.
        """
        point = ProfilePoint(
            units=units,
            exec_s=exec_s,
            transfer_s=transfer_s,
            round_index=round_index,
        )
        sizes, counts = self._sizes, self._counts
        if counts.get(units, 0) >= self.PER_SIZE_LIMIT:
            self._drop(sizes.index(units))
        self._points.append(point)
        sizes.append(units)
        counts[units] = counts.get(units, 0) + 1
        while len(sizes) > self.max_points:
            # the oldest point of a most populous size: such sizes rank by
            # their oldest retained point
            top = max(counts.values())
            self._drop(next(i for i, u in enumerate(sizes) if counts[u] == top))

    def _drop(self, i: int) -> None:
        """Drop the retained point at index ``i``."""
        del self._points[i]
        units = self._sizes.pop(i)
        self._counts[units] -= 1
        if not self._counts[units]:
            del self._counts[units]

    def observed_sizes(self) -> np.ndarray:
        """Distinct block sizes observed so far, ascending."""
        return np.unique([p.units for p in self._points])

    def fit(
        self,
        *,
        candidates: Sequence[Sequence[BasisFunction]] = CANDIDATE_MODELS,
        recency_decay: float = 1.0,
    ) -> DeviceModel:
        """Fit F and G to the retained observations.

        The last model is kept and returned as is while the retained
        points, ``candidates`` and ``recency_decay`` all equal those it
        was fitted from; a :class:`FitError` is never kept.

        Parameters
        ----------
        candidates:
            Basis subsets to consider for F.
        recency_decay:
            Per-observation-age weight multiplier in (0, 1]; 1.0 (default)
            weights all points equally, smaller values favour recent
            behaviour after a rebalance.

        Raises
        ------
        FitError
            With fewer than two observations.
        """
        if len(self._points) < 2:
            raise FitError(
                f"{self.device_id}: need >= 2 observations to fit, "
                f"have {len(self._points)}"
            )
        if not 0.0 < recency_decay <= 1.0:
            raise FitError(f"recency_decay must be in (0, 1], got {recency_decay}")
        # Keyed on point contents: once a size holds PER_SIZE_LIMIT points,
        # a repeat observation replaces its oldest twin with an equal point.
        candidates = tuple(map(tuple, candidates))
        key = (tuple(self._points), candidates, recency_decay)
        if self._fitted is not None and self._fitted[0] == key:
            return self._fitted[1]
        x = np.array(self._sizes, dtype=float)
        y_exec = np.array([p.exec_s for p in self._points], dtype=float)
        y_xfer = np.array([p.transfer_s for p in self._points], dtype=float)
        n = x.size
        weights = None
        if recency_decay < 1.0:
            ages = np.arange(n - 1, -1, -1, dtype=float)
            weights = recency_decay**ages
        exec_fit = select_model(x, y_exec, candidates=candidates, weights=weights)
        transfer_fit = fit_transfer_model(x, y_xfer)
        model = DeviceModel(self.device_id, exec_fit, transfer_fit)
        self._fitted = (key, model)
        return model

    def clear(self) -> None:
        """Drop all observations and the kept model (fresh profiling epoch)."""
        self._points.clear()
        self._sizes.clear()
        self._counts.clear()
        self._fitted = None
