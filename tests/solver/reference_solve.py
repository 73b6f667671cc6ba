"""Reference solve stage: model evaluation through NumPy arrays, an
interior-point solver that evaluates every iterate afresh, and
waterfilling by ``np.searchsorted``.

The library evaluates device models at one block size without array
wrapping, takes each new iterate's constraints from the accepted
line-search trial, reports a converged iterate's own KKT error, and
bisects Python lists in waterfilling.  The straightforward forms of all
of those live here; ``test_solve_identity.py`` checks that the library
agrees with them bit for bit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Sequence
from unittest import mock

import numpy as np

from repro.errors import ConfigurationError, SolverError
from repro.modeling.least_squares import FitResult
from repro.modeling.perf_profile import DeviceModel
from repro.modeling.transfer import LinearTransferFit
from repro.solver import partition
from repro.solver.filter import Filter, FilterEntry
from repro.solver.ipm import IPMResult, InteriorPointSolver
from repro.solver.kkt import KKTSolution, _inertia
from repro.solver.nlp import NLPProblem

_TIME_FLOOR = 1e-9
_KAPPA_SIGMA = 1e10
_MAX_REG_TRIES = 40


# ----------------------------------------------------------------------
# model evaluation: every input through np.asarray
# ----------------------------------------------------------------------
def predict(fit: FitResult, x):
    u = np.asarray(x, dtype=float) / fit.x_scale
    out = sum(a * b.f(u) for a, b in zip(fit.coefficients, fit.basis))
    return float(out) if np.isscalar(x) else np.asarray(out)


def derivative(fit: FitResult, x):
    u = np.asarray(x, dtype=float) / fit.x_scale
    out = sum(a * b.df(u) for a, b in zip(fit.coefficients, fit.basis))
    out = out / fit.x_scale
    return float(out) if np.isscalar(x) else np.asarray(out)


def second_derivative(fit: FitResult, x):
    u = np.asarray(x, dtype=float) / fit.x_scale
    out = sum(a * b.d2f(u) for a, b in zip(fit.coefficients, fit.basis))
    out = out / fit.x_scale**2
    return float(out) if np.isscalar(x) else np.asarray(out)


def transfer_predict(fit: LinearTransferFit, x):
    out = fit.slope * np.asarray(x, dtype=float) + fit.intercept
    return float(out) if np.isscalar(x) else np.asarray(out)


class ReferenceDeviceModel:
    """A :class:`DeviceModel` evaluated through the functions above."""

    def __init__(self, model: DeviceModel) -> None:
        self.device_id = model.device_id
        self.exec_fit = model.exec_fit
        self.transfer_fit = model.transfer_fit
        self.x_max = model.x_max

    def E(self, x):
        out = np.asarray(predict(self.exec_fit, x)) + np.asarray(
            transfer_predict(self.transfer_fit, x)
        )
        out = np.maximum(out, _TIME_FLOOR)
        return float(out) if np.isscalar(x) else out

    def dE(self, x):
        out = np.asarray(derivative(self.exec_fit, x)) + np.asarray(
            self.transfer_fit.derivative(x)
        )
        return float(out) if np.isscalar(x) else out

    def d2E(self, x):
        return second_derivative(self.exec_fit, x)

    def rate(self, x: float) -> float:
        return float(x) / float(self.E(x))


# ----------------------------------------------------------------------
# KKT solve: the whole matrix rebuilt on every inertia attempt
# ----------------------------------------------------------------------
def solve_kkt(
    w_sigma: np.ndarray,
    jac: np.ndarray,
    rhs_x: np.ndarray,
    rhs_c: np.ndarray,
    *,
    delta_w_init: float = 0.0,
    delta_min: float = 1e-20,
) -> KKTSolution:
    n = w_sigma.shape[0]
    m = jac.shape[0]
    if w_sigma.shape != (n, n) or jac.shape != (m, n):
        raise SolverError(
            f"inconsistent KKT shapes: W{w_sigma.shape}, J{jac.shape}"
        )
    rhs = np.concatenate([rhs_x, rhs_c])

    delta_w = delta_w_init
    delta_c = 0.0
    for attempt in range(_MAX_REG_TRIES):
        kkt = np.zeros((n + m, n + m))
        kkt[:n, :n] = w_sigma + delta_w * np.eye(n)
        kkt[:n, n:] = jac.T
        kkt[n:, :n] = jac
        kkt[n:, n:] = -delta_c * np.eye(m)

        row_max = np.abs(kkt).max(axis=1)
        d = 1.0 / np.sqrt(np.maximum(row_max, 1e-300))
        kkt_eq = kkt * d[:, None] * d[None, :]

        pos, neg, zero = _inertia(kkt_eq)
        if pos == n and neg == m and zero == 0:
            try:
                sol_eq = np.linalg.solve(kkt_eq, d * rhs)
                sol = d * sol_eq
            except np.linalg.LinAlgError:
                sol = None
            if sol is not None and np.all(np.isfinite(sol)):
                return KKTSolution(
                    dx=sol[:n], dlam=sol[n:], delta_w=delta_w, delta_c=delta_c
                )
        if zero > 0 and delta_c == 0.0:
            delta_c = 1e-8
        if delta_w == 0.0:
            delta_w = max(delta_min, 1e-4)
        else:
            delta_w *= 8.0 if attempt < 10 else 100.0
        if delta_w > 1e40:
            break
    raise SolverError(
        "KKT inertia correction failed: system remains singular/indefinite "
        f"(final delta_w={delta_w:.3e})"
    )


# ----------------------------------------------------------------------
# interior-point iteration: callbacks re-evaluated at every iterate
# ----------------------------------------------------------------------
class ReferenceInteriorPointSolver(InteriorPointSolver):
    """The interior-point solver with the reference ``_solve_impl``.

    ``solve`` and ``solve_with_retry`` are inherited; everything they
    reach below ``_solve_impl`` is defined here.
    """

    def _solve_impl(self, problem: NLPProblem, x0: np.ndarray) -> IPMResult:
        opts = self.options
        t0 = time.perf_counter()

        lo, up = problem.lower, problem.upper
        has_lo, has_up = np.isfinite(lo), np.isfinite(up)

        x = problem.clip_interior(np.asarray(x0, dtype=float))
        lam = np.zeros(problem.m)
        mu = opts.mu_init
        z_lo = np.where(has_lo, mu / np.maximum(x - lo, 1e-12), 0.0)
        z_up = np.where(has_up, mu / np.maximum(up - x, 1e-12), 0.0)

        flt = Filter()
        delta_w_last = 0.0
        status = "max_iterations"
        iteration = 0
        restorations = 0

        for iteration in range(1, opts.max_iter + 1):
            grad = problem.eval_gradient(x)
            c = problem.eval_constraints(x)
            jac = problem.eval_jacobian(x)

            kkt_err0 = self._kkt_error(problem, x, lam, z_lo, z_up, grad, c, jac, 0.0)
            if kkt_err0 <= opts.tol:
                status = "optimal"
                break

            if opts.barrier_strategy == "monotone":
                kkt_err_mu = self._kkt_error(
                    problem, x, lam, z_lo, z_up, grad, c, jac, mu
                )
                if kkt_err_mu <= opts.kappa_epsilon * mu and mu > opts.mu_min:
                    mu = max(
                        opts.mu_min,
                        min(opts.kappa_mu * mu, mu**opts.theta_mu),
                    )
                    flt.reset()
                    z_lo = self._safeguard(z_lo, x - lo, mu, has_lo)
                    z_up = self._safeguard(z_up, up - x, mu, has_up)
                    continue

            hess = problem.eval_hessian(x, lam, 1.0)
            sigma = np.zeros(problem.n)
            sigma[has_lo] += z_lo[has_lo] / (x[has_lo] - lo[has_lo])
            sigma[has_up] += z_up[has_up] / (up[has_up] - x[has_up])
            w_sigma = hess + np.diag(sigma)

            if opts.barrier_strategy == "adaptive":
                new_mu = self._adaptive_mu(problem, x, z_lo, z_up, mu)
            elif opts.barrier_strategy == "probing":
                new_mu = self._probing_mu(
                    problem, x, lam, z_lo, z_up, grad, c, jac, w_sigma, mu
                )
            else:
                new_mu = mu
            if new_mu != mu:
                if new_mu < 0.5 * mu or new_mu > 2.0 * mu:
                    flt.reset()
                mu = new_mu

            rhs_x = -(
                grad
                + jac.T @ lam
                - np.where(has_lo, mu / (x - lo), 0.0)
                + np.where(has_up, mu / (up - x), 0.0)
            )
            rhs_c = -c
            try:
                sol = solve_kkt(w_sigma, jac, rhs_x, rhs_c, delta_w_init=0.0)
            except SolverError:
                sol = solve_kkt(
                    w_sigma, jac, rhs_x, rhs_c, delta_w_init=max(delta_w_last, 1e-8)
                )
            delta_w_last = sol.delta_w
            dx, dlam = sol.dx, sol.dlam

            dz_lo = np.where(
                has_lo,
                mu / np.maximum(x - lo, 1e-300)
                - z_lo
                - z_lo * dx / np.maximum(x - lo, 1e-300),
                0.0,
            )
            dz_up = np.where(
                has_up,
                mu / np.maximum(up - x, 1e-300)
                - z_up
                + z_up * dx / np.maximum(up - x, 1e-300),
                0.0,
            )

            tau = max(opts.tau_min, 1.0 - mu)
            alpha_pri_max = self._max_step(x - lo, dx, has_lo, tau)
            alpha_pri_max = min(
                alpha_pri_max, self._max_step(up - x, -dx, has_up, tau)
            )
            alpha_dual = min(
                self._max_step(z_lo, dz_lo, has_lo, tau),
                self._max_step(z_up, dz_up, has_up, tau),
            )

            theta_k = float(np.abs(c).sum())
            phi_k = self._barrier_value(problem, x, mu)
            dphi = float(
                (grad
                 - np.where(has_lo, mu / (x - lo), 0.0)
                 + np.where(has_up, mu / (up - x), 0.0)
                 ) @ dx
            )
            current = FilterEntry(theta=theta_k, phi=phi_k)

            alpha = alpha_pri_max
            accepted = False
            f_type = False
            for _ in range(opts.max_backtracks):
                if alpha < opts.alpha_min:
                    break
                x_trial = x + alpha * dx
                try:
                    theta_t = float(
                        np.abs(problem.eval_constraints(x_trial)).sum()
                    )
                    phi_t = self._barrier_value(problem, x_trial, mu)
                except Exception:
                    alpha *= 0.5
                    continue
                armijo_ok = (
                    dphi < 0.0
                    and phi_t <= phi_k + opts.armijo_eta * alpha * dphi
                    and theta_t <= max(theta_k, opts.tol)
                )
                if armijo_ok:
                    accepted, f_type = True, True
                    break
                if flt.acceptable(theta_t, phi_t, current=current):
                    accepted, f_type = True, False
                    break
                alpha *= 0.5

            if not accepted:
                restorations += 1
                x_new, ok = self._restore(problem, x, theta_k)
                if not ok:
                    status = "restoration_failed"
                    break
                x = x_new
                lam = np.zeros(problem.m)
                z_lo = np.where(has_lo, mu / np.maximum(x - lo, 1e-12), 0.0)
                z_up = np.where(has_up, mu / np.maximum(up - x, 1e-12), 0.0)
                flt.reset()
                continue

            if not f_type:
                flt.add(theta_k, phi_k)

            x = x + alpha * dx
            lam = lam + alpha * dlam
            z_lo = self._safeguard(z_lo + alpha_dual * dz_lo, x - lo, mu, has_lo)
            z_up = self._safeguard(z_up + alpha_dual * dz_up, up - x, mu, has_up)

        grad = problem.eval_gradient(x)
        c = problem.eval_constraints(x)
        jac = problem.eval_jacobian(x)
        final_err = self._kkt_error(problem, x, lam, z_lo, z_up, grad, c, jac, 0.0)
        if final_err <= self.options.tol:
            status = "optimal"
        return IPMResult(
            x=x,
            lam=lam,
            z_lower=z_lo,
            z_upper=z_up,
            status=status,
            iterations=iteration,
            kkt_error=final_err,
            constraint_violation=float(np.abs(c).sum()),
            objective=problem.eval_objective(x),
            mu_final=mu,
            wall_time_s=time.perf_counter() - t0,
            restorations=restorations,
        )

    @staticmethod
    def _max_step(
        slack: np.ndarray, direction: np.ndarray, mask: np.ndarray, tau: float
    ) -> float:
        alpha = 1.0
        shrinking = mask & (direction < 0.0)
        if np.any(shrinking):
            ratios = -tau * slack[shrinking] / direction[shrinking]
            alpha = min(alpha, float(ratios.min()))
        return max(alpha, 0.0)

    @staticmethod
    def _safeguard(
        z: np.ndarray, slack: np.ndarray, mu: float, mask: np.ndarray
    ) -> np.ndarray:
        out = np.where(mask, np.maximum(z, 0.0), 0.0)
        s = np.maximum(slack, 1e-300)
        lo_corridor = mu / (_KAPPA_SIGMA * s)
        hi_corridor = _KAPPA_SIGMA * mu / s
        out = np.where(mask, np.clip(out, lo_corridor, hi_corridor), 0.0)
        return out

    def _adaptive_mu(self, problem, x, z_lo, z_up, mu):
        has_lo, has_up = np.isfinite(problem.lower), np.isfinite(problem.upper)
        w = np.concatenate(
            [
                (x[has_lo] - problem.lower[has_lo]) * z_lo[has_lo],
                (problem.upper[has_up] - x[has_up]) * z_up[has_up],
            ]
        )
        if w.size == 0:
            return mu
        avg = float(w.mean())
        if avg <= 0.0:
            return mu
        xi = float(w.min()) / avg
        sigma = 0.1 * min(0.05 * (1.0 - xi) / max(xi, 1e-12), 2.0) ** 3
        new_mu = sigma * avg
        return float(np.clip(new_mu, self.options.mu_min, max(10.0 * mu, 1e-6)))

    def _probing_mu(self, problem, x, lam, z_lo, z_up, grad, c, jac, w_sigma, mu):
        lo, up = problem.lower, problem.upper
        has_lo, has_up = np.isfinite(lo), np.isfinite(up)
        w = np.concatenate(
            [
                (x[has_lo] - lo[has_lo]) * z_lo[has_lo],
                (up[has_up] - x[has_up]) * z_up[has_up],
            ]
        )
        if w.size == 0:
            return mu
        mu_avg = float(w.mean())
        if mu_avg <= 0.0:
            return mu
        rhs_x = -(grad + jac.T @ lam - z_lo + z_up)
        try:
            sol = solve_kkt(w_sigma, jac, rhs_x, -c)
        except SolverError:
            return mu
        dx = sol.dx
        slack_lo = np.maximum(x - lo, 1e-300)
        slack_up = np.maximum(up - x, 1e-300)
        dz_lo = np.where(has_lo, -z_lo - z_lo * dx / slack_lo, 0.0)
        dz_up = np.where(has_up, -z_up + z_up * dx / slack_up, 0.0)
        alpha_pri = min(
            self._max_step(x - lo, dx, has_lo, 1.0),
            self._max_step(up - x, -dx, has_up, 1.0),
        )
        alpha_dual = min(
            self._max_step(z_lo, dz_lo, has_lo, 1.0),
            self._max_step(z_up, dz_up, has_up, 1.0),
        )
        slack_lo_aff = (x + alpha_pri * dx)[has_lo] - lo[has_lo]
        slack_up_aff = up[has_up] - (x + alpha_pri * dx)[has_up]
        z_lo_aff = (z_lo + alpha_dual * dz_lo)[has_lo]
        z_up_aff = (z_up + alpha_dual * dz_up)[has_up]
        w_aff = np.concatenate(
            [slack_lo_aff * z_lo_aff, slack_up_aff * z_up_aff]
        )
        mu_aff = max(float(w_aff.mean()), 0.0)
        sigma = min((mu_aff / mu_avg) ** 3, 1.0)
        new_mu = sigma * mu_avg
        return float(np.clip(new_mu, self.options.mu_min, max(10.0 * mu, 1e-6)))

    def _barrier_value(self, problem, x, mu):
        lo, up = problem.lower, problem.upper
        has_lo, has_up = np.isfinite(lo), np.isfinite(up)
        slack_lo = x[has_lo] - lo[has_lo]
        slack_up = up[has_up] - x[has_up]
        if np.any(slack_lo <= 0.0) or np.any(slack_up <= 0.0):
            raise SolverError("barrier evaluated outside the interior")
        val = problem.eval_objective(x)
        if mu > 0.0:
            val -= mu * float(np.log(slack_lo).sum())
            val -= mu * float(np.log(slack_up).sum())
        return val

    @staticmethod
    def _kkt_error(problem, x, lam, z_lo, z_up, grad, c, jac, mu):
        has_lo, has_up = np.isfinite(problem.lower), np.isfinite(problem.upper)
        r_dual = grad + jac.T @ lam - z_lo + z_up
        comp = np.concatenate(
            [
                (x[has_lo] - problem.lower[has_lo]) * z_lo[has_lo] - mu,
                (problem.upper[has_up] - x[has_up]) * z_up[has_up] - mu,
            ]
        )
        s_max = 100.0
        denom = problem.m + np.sum(has_lo) + np.sum(has_up)
        avg_mult = (
            (np.abs(lam).sum() + z_lo.sum() + z_up.sum()) / max(denom, 1)
            if denom
            else 0.0
        )
        s_d = max(s_max, avg_mult) / s_max
        err = max(
            float(np.abs(r_dual).max(initial=0.0)) / s_d,
            float(np.abs(c).max(initial=0.0)),
        )
        if comp.size:
            err = max(err, float(np.abs(comp).max()) / s_d)
        return err

    def _restore(self, problem, x, theta0):
        x_cur = x.copy()
        target = max(theta0 * 0.1, self.options.tol * 0.1)
        for _ in range(self.options.max_restoration_steps):
            c = problem.eval_constraints(x_cur)
            theta = float(np.abs(c).sum())
            if theta <= target:
                return x_cur, True
            jac = problem.eval_jacobian(x_cur)
            jjt = jac @ jac.T + 1e-10 * np.eye(problem.m)
            try:
                dx = -jac.T @ np.linalg.solve(jjt, c)
            except np.linalg.LinAlgError:
                return x_cur, False
            alpha = 1.0
            improved = False
            for _ in range(30):
                x_trial = problem.clip_interior(x_cur + alpha * dx)
                c_trial = problem.eval_constraints(x_trial)
                if float(np.abs(c_trial).sum()) < theta * (1.0 - 1e-4 * alpha):
                    x_cur = x_trial
                    improved = True
                    break
                alpha *= 0.5
            if not improved:
                return x_cur, theta <= max(theta0 * 0.5, self.options.tol)
        theta = float(np.abs(problem.eval_constraints(x_cur)).sum())
        return x_cur, theta < theta0


# ----------------------------------------------------------------------
# waterfilling: one np.searchsorted per device and probe
# ----------------------------------------------------------------------
def waterfill_partition(
    models: Sequence[DeviceModel],
    total_units: float,
    *,
    caps: Sequence[float] | None = None,
    iterations: int = 100,
    rel_tol: float = 1e-10,
) -> tuple[np.ndarray, float]:
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

    grid_n = 513
    tables: list[tuple[np.ndarray, np.ndarray]] = []
    for m, c in zip(models, cap_arr):
        xs = np.linspace(0.0, float(c), grid_n)
        ys = np.asarray(m.E(xs[1:]), dtype=float)
        ys = np.concatenate([[0.0], np.maximum.accumulate(ys)])
        tables.append((xs, ys))

    def assigned(t: float) -> np.ndarray:
        out = np.empty(len(models))
        for i, (xs, ys) in enumerate(tables):
            idx = int(np.searchsorted(ys, t, side="right")) - 1
            if idx <= 0:
                out[i] = 0.0
            elif idx >= grid_n - 1:
                out[i] = xs[-1]
            else:
                y0, y1 = ys[idx], ys[idx + 1]
                frac = (t - y0) / (y1 - y0) if y1 > y0 else 0.0
                out[i] = xs[idx] + frac * (xs[idx + 1] - xs[idx])
        return out

    t_lo = 0.0
    t_hi = max(float(ys[-1]) for _, ys in tables)
    if assigned(t_hi).sum() < q:
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
        units = units * (q / total)
    else:
        deficit = q - total
        room = cap_arr - units
        if room.sum() <= 0.0:
            raise SolverError("waterfilling could not place all work under caps")
        units = units + room * min(deficit / room.sum(), 1.0)
        units = units * (q / units.sum())
    return units, t_hi


@contextmanager
def reference_partition():
    """Route :func:`repro.solver.partition.solve_block_partition` through
    the reference waterfilling and interior-point solver."""
    with mock.patch.object(partition, "waterfill_partition", waterfill_partition), \
            mock.patch.object(partition, "InteriorPointSolver", ReferenceInteriorPointSolver):
        yield
