"""High-level block-partition API.

:func:`solve_block_partition` is what the PLB-HeC scheduler calls at the
end of the performance-modeling phase and on every rebalance.  The
solve is staged:

1. **Trust caps.**  Fitted curves are only trustworthy near the probed
   range, so each device's assignment is capped at a multiple of its
   largest profiled block size (caps are relaxed proportionally if they
   cannot cover the quantum).
2. **Waterfilling presolve** (:mod:`repro.solver.reduction`): a robust
   bisection on the common finish time that respects the caps and
   reveals the *active set* — devices whose fixed dispatch cost exceeds
   the common finish time get zero work (the paper's eq. 4 equality
   system is infeasible for them), devices at their trust cap are
   pinned there.
3. **Certificate** on the free devices: a few O(n) Newton steps polish
   the waterfill point on the exact device models, and the point is
   returned (``method="certified"``) when it meets the first-order
   conditions of the equal-time NLP (eq. 3-5) to the interior-point
   tolerance — the same test the interior-point solver stops on.
4. **Interior-point refinement** (the paper's method), when the
   certificate refuses: the NLP is solved over the free devices with
   the line-search filter method, which produces the final block sizes.
   This mirrors how IPOPT's own bound handling deals with the active
   set internally.

If the interior-point stage fails to converge or validate, the
waterfilling solution is returned (``method="waterfill"``); if even
that fails, a measured-rate proportional split caps the damage
(``method="proportional"``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, SolverError
from repro.modeling.perf_profile import _TIME_FLOOR, DeviceModel
from repro.solver.ipm import IPMOptions, InteriorPointSolver
from repro.solver.problem import build_partition_nlp, initial_partition_point
from repro.solver.reduction import waterfill_partition
from repro.util.logging import get_logger

__all__ = ["PartitionResult", "solve_block_partition"]

_log = get_logger("solver.partition")

#: Assignments may exceed the profiled range by at most this factor —
#: the same slack the model-sanity check (`modeling.model_select`) spans.
TRUST_SLACK = 4.0

#: Newton steps the certificate may take; the waterfill point is already
#: close, and one or two steps reach the interior-point tolerance.
_POLISH_STEPS = 8


@dataclass(frozen=True)
class PartitionResult:
    """A computed distribution of one work quantum across devices.

    Attributes
    ----------
    device_ids:
        Processing units in solve order.
    units:
        Real-valued block sizes, one per device; sums to the quantum.
    predicted_time:
        The common completion time T the models predict.
    method:
        ``"certified"``, ``"ipm"``, ``"waterfill"`` or ``"proportional"``
        — which path produced the answer.  ``"certified"`` is a point
        that meets the NLP's first-order conditions to the
        interior-point tolerance without running the interior-point
        solver (and a single device, which takes the whole quantum).
    converged:
        Whether the producing method reported success.
    iterations:
        Newton steps of the certificate or interior-point iterations
        (0 for fallback paths).
    kkt_error:
        Final scaled KKT error (NaN for fallback paths).
    solve_time_s:
        Host wall-clock seconds the whole chain took, presolve and
        certificate included (the overhead the paper reports as ~170 ms
        on their master node).  Host time only: S1 and the
        ``plbhec.solve_ms`` histogram read it, virtual time never does.
    """

    device_ids: tuple[str, ...]
    units: np.ndarray = field(repr=False)
    predicted_time: float
    method: str
    converged: bool
    iterations: int
    kkt_error: float
    solve_time_s: float

    @property
    def fractions(self) -> dict[str, float]:
        """Normalised share per device (sums to 1)."""
        total = float(self.units.sum())
        if total <= 0.0:
            return {d: 0.0 for d in self.device_ids}
        return {
            d: float(u) / total for d, u in zip(self.device_ids, self.units)
        }

    @property
    def units_by_device(self) -> dict[str, float]:
        """Real-valued units per device id."""
        return {d: float(u) for d, u in zip(self.device_ids, self.units)}


def _trust_caps(models: Sequence[DeviceModel], q: float) -> np.ndarray:
    """Per-device assignment ceilings, relaxed to cover the quantum."""
    caps = np.array([max(TRUST_SLACK * m.x_max, 1.0) for m in models])
    caps = np.minimum(caps, q)
    total = caps.sum()
    if total < 1.02 * q:
        caps = caps * (1.02 * q / total)
        caps = np.minimum(caps, q)
        # a second pass: devices clipped at q free no headroom; spread
        # the shortfall over the others
        short = 1.02 * q - caps.sum()
        if short > 0:
            room = q - caps
            if room.sum() > 0:
                caps = caps + room * min(short / room.sum(), 1.0)
    return caps


def _validate(
    units: np.ndarray,
    predicted: float,
    models: Sequence[DeviceModel],
    total_units: float,
    caps: np.ndarray,
    *,
    spread_tol: float,
) -> bool:
    """Sanity-check a candidate partition against its own models.

    The equal-time property is only required of devices strictly inside
    their bounds: devices with (near-)zero work or pinned at their trust
    cap legitimately finish early.
    """
    if not np.all(np.isfinite(units)) or np.any(units < -1e-9):
        return False
    if abs(units.sum() - total_units) > 1e-6 * total_units + 1e-9:
        return False
    if not np.isfinite(predicted) or predicted <= 0.0:
        return False
    times = [
        float(m.E(u))
        for m, u, c in zip(models, units, caps)
        if u > 1e-9 * total_units and u < c * (1.0 - 1e-9)
    ]
    if not times:
        # everything at a bound: fall back to requiring finite times only
        return True
    spread = (max(times) - min(times)) / max(max(times), 1e-300)
    return spread <= spread_tol


def _certify(
    models: Sequence[DeviceModel],
    units: np.ndarray,
    t: float,
    q: float,
    caps: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, float, int, float] | None:
    """Newton-polish an equal-time point and certify it against the NLP.

    Solves ``E_g(u_g) = T`` for every device with ``sum(u) = q`` from
    ``(units, t)``.  The Newton system is diagonal plus one row, so a
    step costs O(n)::

        dT   = (q - sum(u) + sum(r_g / E'_g)) / sum(1 / E'_g),  r_g = E_g - T
        u_g += (T + dT - E_g) / E'_g

    Returns ``(units, T, steps, residual)`` once ``max |E_g - T|`` and
    ``|sum(u)/q - 1|`` are both within ``tol``, with every ``u_g``
    strictly inside ``(0, cap_g)``, every ``E_g`` above the evaluation
    floor and every ``E'_g > 0``; ``None`` when a step leaves the box,
    a check fails or :data:`_POLISH_STEPS` steps do not reach ``tol``.

    Such a point meets the first-order conditions the interior-point
    solver stops on.  Take ``lam_g = (1/E'_g) / sum_h (1/E'_h)`` on the
    equal-time rows and the slacks' bounds, ``nu = -q / sum_h (1/E'_h)``
    on the sum row, zero slacks and zero multipliers on the fraction
    bounds: the dual residual and complementarity of
    :func:`~repro.solver.problem.build_partition_nlp` vanish, so its
    KKT error is the primal residual checked here.  ``E'_g > 0`` keeps
    every ``lam_g`` positive.  (On the floor ``dE`` reports the
    unguarded slope, so those multipliers would be wrong there.)
    """
    u = units
    for step in range(_POLISH_STEPS + 1):
        if not np.all((u > 0.0) & (u < caps)):
            return None
        xs = u.tolist()
        e = np.array([m.E(x) for m, x in zip(models, xs)], dtype=float)
        de = np.array([m.dE(x) for m, x in zip(models, xs)], dtype=float)
        if not (np.all(e > _TIME_FLOOR) and np.all(de > 0.0)):
            return None
        residual = max(float(np.abs(e - t).max()), abs(float(u.sum()) / q - 1.0))
        if residual <= tol:
            return u, t, step, residual
        inv = 1.0 / de
        dt = float((q - u.sum() + ((e - t) * inv).sum()) / inv.sum())
        u = u + (t + dt - e) * inv
        t += dt
    return None


def solve_block_partition(
    models: Mapping[str, DeviceModel] | Sequence[DeviceModel],
    total_units: float,
    *,
    ipm_options: IPMOptions | None = None,
    spread_tol: float = 0.05,
) -> PartitionResult:
    """Distribute ``total_units`` so all devices finish simultaneously.

    Parameters
    ----------
    models:
        Fitted device models, either ``{device_id: model}`` or a sequence
        (ids then come from each model's ``device_id``).
    total_units:
        The work quantum Q.
    ipm_options:
        Interior-point tuning; defaults favour speed at partition sizes.
        Its ``tol`` is also the certificate's tolerance.
    spread_tol:
        Maximum relative finish-time spread (on the models' own
        predictions) a solution may exhibit before being rejected.
    """
    if isinstance(models, Mapping):
        device_ids = tuple(models.keys())
        model_list = [models[d] for d in device_ids]
    else:
        model_list = list(models)
        device_ids = tuple(m.device_id for m in model_list)
    if not model_list:
        raise ConfigurationError("need at least one device model")
    q = float(total_units)
    if not math.isfinite(q) or q <= 0.0:
        raise ConfigurationError(
            f"total_units must be positive and finite, got {total_units}"
        )

    n = len(model_list)
    t_start = time.perf_counter()
    # The adaptive barrier update is the subject of the paper's solver
    # reference (Nocedal, Wächter & Waltz 2009) and roughly halves the
    # iteration count on partition problems; see the solver benchmarks.
    opts = ipm_options or IPMOptions(
        tol=1e-8, max_iter=150, barrier_strategy="adaptive"
    )

    def answer(
        units: np.ndarray,
        predicted: float,
        method: str,
        *,
        converged: bool = True,
        iterations: int = 0,
        kkt_error: float = float("nan"),
    ) -> PartitionResult:
        return PartitionResult(
            device_ids=device_ids,
            units=units,
            predicted_time=predicted,
            method=method,
            converged=converged,
            iterations=iterations,
            kkt_error=kkt_error,
            solve_time_s=time.perf_counter() - t_start,
        )

    if n == 1:
        # the whole quantum on the one device is exact
        return answer(
            np.array([q]), float(model_list[0].E(q)), "certified", kkt_error=0.0
        )

    caps = _trust_caps(model_list, q)

    # ------------------------------------------------------------------
    # 1. waterfilling presolve: active set + pinned devices
    # ------------------------------------------------------------------
    units_wf: np.ndarray | None = None
    t_wf = float("nan")
    try:
        units_wf, t_wf = waterfill_partition(model_list, q, caps=caps)
    except SolverError as exc:
        _log.debug("waterfilling presolve failed: %s", exc)

    # ------------------------------------------------------------------
    # 2. the free set: certify the waterfill point, else refine it with
    #    the interior-point method (the paper's solve)
    # ------------------------------------------------------------------
    if units_wf is not None:
        pinned = units_wf >= caps * (1.0 - 1e-9)
        dropped = units_wf <= 1e-9 * q
        free = [i for i in range(n) if not pinned[i] and not dropped[i]]
        q_free = q - float(units_wf[pinned].sum())
        if len(free) >= 2 and q_free > 0:
            sub_models = [model_list[i] for i in free]
            sub_caps = caps[free]
            certified = _certify(
                sub_models, units_wf[free], t_wf, q_free, sub_caps, opts.tol
            )
            if certified is not None:
                sub_units, predicted, steps, residual = certified
                units = np.where(pinned, caps, 0.0)
                units[free] = sub_units
                if _validate(
                    units, predicted, model_list, q, caps, spread_tol=spread_tol
                ):
                    return answer(
                        units, predicted, "certified",
                        iterations=steps, kkt_error=residual,
                    )
            try:
                nlp = build_partition_nlp(sub_models, q_free, upper_units=sub_caps)
                z0 = initial_partition_point(
                    sub_models, q_free, upper_units=sub_caps
                )
                result = InteriorPointSolver(opts).solve_with_retry(nlp, z0)
                if result.converged:
                    sub_units = np.maximum(result.x[: len(free)], 0.0) * q_free
                    if sub_units.sum() > 0:
                        sub_units *= q_free / sub_units.sum()
                    units = np.where(pinned, caps, 0.0)
                    units[free] = sub_units
                    predicted = float(result.x[2 * len(free)])
                    if _validate(
                        units, predicted, model_list, q, caps,
                        spread_tol=spread_tol,
                    ):
                        return answer(
                            units, predicted, "ipm",
                            iterations=result.iterations,
                            kkt_error=result.kkt_error,
                        )
                _log.debug(
                    "IPM refinement did not validate (status=%r); "
                    "using waterfilling", result.status,
                )
            except SolverError as exc:
                _log.debug("IPM refinement failed (%s); using waterfilling", exc)

    # ------------------------------------------------------------------
    # 3. waterfilling answer as-is
    # ------------------------------------------------------------------
    if units_wf is not None and _validate(
        units_wf, t_wf, model_list, q, caps, spread_tol=max(spread_tol, 0.1)
    ):
        return answer(units_wf, t_wf, "waterfill")

    # ------------------------------------------------------------------
    # 4. measured-rate proportional split under caps (never fails)
    # ------------------------------------------------------------------
    probe = max(q / n, 1e-9)
    rates = np.array([max(m.rate(probe), 1e-12) for m in model_list])
    units = q * rates / rates.sum()
    # push cap overflows onto devices with headroom
    for _ in range(n):
        excess = np.maximum(units - caps, 0.0)
        if excess.sum() <= 1e-12 * q:
            break
        units = np.minimum(units, caps)
        room = caps - units
        if room.sum() <= 0:
            break
        units = units + room * (excess.sum() / room.sum())
    predicted = float(
        max(m.E(u) for m, u in zip(model_list, units) if u > 0)
    )
    return answer(units, predicted, "proportional", converged=False)
