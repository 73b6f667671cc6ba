"""Waterfilling reduction of the equal-time partition problem.

Because every ``E_g`` is (after the sanity filter in model selection)
increasing, the system "all devices finish at T, work sums to Q" reduces
to one scalar equation: ``S(T) = sum_g E_g^{-1}(T) = Q`` with ``S``
non-decreasing in T.  Bisection on T is therefore a complete, derivative
-free solver for the same problem the interior-point method solves.

It is used two ways by :func:`repro.solver.partition.solve_block_partition`:

* as the *presolve*: its split fixes the active set, and its point,
  Newton-polished on the exact models, is the certified answer
  whenever it meets the NLP's first-order conditions;
* as a *fallback*: if neither the certificate nor the IPM produces a
  valid answer on a pathological fit, the partition layer returns this
  split as-is (and notes it in the result's ``method`` field).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, SolverError
from repro.modeling.perf_profile import DeviceModel

__all__ = ["waterfill_partition"]


def waterfill_partition(
    models: Sequence[DeviceModel],
    total_units: float,
    *,
    caps: Sequence[float] | None = None,
    iterations: int = 100,
    rel_tol: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """Equal-finish-time split of ``total_units`` by bisection on T.

    Returns ``(units, T)`` with ``units.sum() == total_units`` (exactly,
    by a final proportional correction) and ``E_g(units_g)``
    approximately T for every device that received work and is not at
    its cap.

    Parameters
    ----------
    caps:
        Optional per-device assignment ceilings (extrapolation-trust
        limits); must sum to at least ``total_units``.

    Raises
    ------
    SolverError
        If the bracket cannot be established (models broken enough that
        even assigning all work to every device is "too fast").
    """
    if not models:
        raise ConfigurationError("need at least one device model")
    q = float(total_units)
    if q <= 0.0:
        raise ConfigurationError(f"total_units must be positive, got {total_units}")
    if caps is None:
        cap_arr = np.full(len(models), q)
    else:
        cap_arr = np.asarray(list(caps), dtype=float)
        if cap_arr.shape != (len(models),) or np.any(cap_arr <= 0.0):
            raise ConfigurationError("caps must be positive, one per model")
        if cap_arr.sum() < q:
            raise ConfigurationError("caps sum below total_units: infeasible")
        cap_arr = np.minimum(cap_arr, q)

    # Precompute, per device, a monotone lookup table E(grid) so each
    # bisection probe is one list bisection instead of a scalar-evaluation
    # bisection per device (this path is charged as scheduler overhead,
    # so its wall cost directly worsens makespans).  E is positive, so a
    # table is sorted up to its first NaN, after which the running
    # maximum is all NaN; the lookup orders NaN last, as np.searchsorted.
    grid_n = 513
    tables: list[tuple[list[float], list[float], int]] = []
    for m, c in zip(models, cap_arr):
        xs = np.linspace(0.0, float(c), grid_n)
        ys = np.asarray(m.E(xs[1:]), dtype=float)
        ys = np.concatenate([[0.0], np.maximum.accumulate(ys)])
        head = grid_n - int(np.isnan(ys).sum())
        tables.append((xs.tolist(), ys.tolist(), head))

    def assigned(t: float) -> np.ndarray:
        out = np.empty(len(models))
        for i, (xs, ys, head) in enumerate(tables):
            # largest x with E(x) <= t (monotone table)
            idx = (bisect_right(ys, t, 0, head) if t == t else grid_n) - 1
            if idx <= 0:
                out[i] = 0.0
            elif idx >= grid_n - 1:
                out[i] = xs[-1]
            else:
                # linear interpolation inside the bracketing cell
                y0, y1 = ys[idx], ys[idx + 1]
                frac = (t - y0) / (y1 - y0) if y1 > y0 else 0.0
                out[i] = xs[idx] + frac * (xs[idx + 1] - xs[idx])
        return out

    t_lo = 0.0
    t_hi = max(ys[-1] for _, ys, _ in tables)
    if assigned(t_hi).sum() < q:
        # Even the slowest device's full-load time doesn't cover Q across
        # the cluster — can happen with wildly superlinear fitted curves.
        # Expand the bracket geometrically before giving up.
        for _ in range(60):
            t_hi *= 2.0
            if assigned(t_hi).sum() >= q:
                break
        else:
            raise SolverError("waterfilling could not bracket the completion time")

    for _ in range(iterations):
        t_mid = 0.5 * (t_lo + t_hi)
        if assigned(t_mid).sum() >= q:
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo <= rel_tol * max(t_hi, 1e-300):
            break

    units = assigned(t_hi)
    total = units.sum()
    if total <= 0.0:
        raise SolverError("waterfilling assigned zero work everywhere")
    if total >= q:
        units = units * (q / total)  # scaling down never violates caps
    else:
        # distribute the (tiny, bisection-residual) deficit to devices
        # with remaining cap headroom
        deficit = q - total
        room = cap_arr - units
        if room.sum() <= 0.0:
            raise SolverError("waterfilling could not place all work under caps")
        units = units + room * min(deficit / room.sum(), 1.0)
        units = units * (q / units.sum())
    return units, t_hi
