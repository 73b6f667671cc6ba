"""Interior-point line-search filter solver.

A from-scratch implementation of the algorithm family the paper uses via
IPOPT (reference [25]: Nocedal, Wächter & Waltz, "Adaptive barrier
update strategies for nonlinear interior methods"):

* log-barrier handling of bounds with primal-dual bound multipliers,
* Newton steps on the condensed KKT system with inertia correction
  (:mod:`repro.solver.kkt`),
* a line-search filter for globalisation (:mod:`repro.solver.filter`),
* fraction-to-boundary step caps,
* monotone (Fiacco-McCormick) barrier-parameter reduction, and
* a Gauss-Newton feasibility-restoration phase.

The implementation is dense and dimension-agnostic but tuned for the
library's workload: partition problems with one variable per processing
unit (n ≲ 32), where eigenvalue-based inertia checks are essentially
free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError, ReproError, SolverError
from repro.obs.metrics import get_registry
from repro.obs.profiler import profile_phase
from repro.solver.filter import Filter, FilterEntry
from repro.solver.kkt import solve_kkt
from repro.solver.nlp import NLPProblem
from repro.util.logging import get_logger

__all__ = ["IPMOptions", "IPMResult", "InteriorPointSolver"]

_log = get_logger("solver.ipm")

_KAPPA_SIGMA = 1e10  # bound-multiplier safeguard corridor (IPOPT kappa_Sigma)


@dataclass(frozen=True)
class IPMOptions:
    """Tuning knobs of the interior-point solver (IPOPT-style defaults).

    ``barrier_strategy`` selects the update rule of the cited reference
    (Nocedal, Wächter & Waltz 2009, "Adaptive barrier update strategies
    for nonlinear interior methods"):

    * ``"monotone"`` — the Fiacco-McCormick rule: hold μ fixed until the
      barrier subproblem is solved to ``kappa_epsilon * mu``, then cut it
      by ``min(kappa_mu * mu, mu^theta_mu)``;
    * ``"adaptive"`` — μ follows the iterates: each iteration sets
      ``mu = sigma * (complementarity average)`` with a centrality-based
      σ (the LOQO rule studied in that paper), globalised by the same
      filter; falls back to monotone safeguards near convergence.
    * ``"probing"`` — Mehrotra-style predictor probing (the third rule
      of that paper): an affine-scaling step (μ = 0) is solved first,
      the complementarity it would reach determines
      ``sigma = (mu_affine / mu_current)^3``, at the cost of one extra
      KKT solve per iteration.
    """

    tol: float = 1e-8
    mu_init: float = 1e-1
    mu_min: float = 1e-12
    kappa_mu: float = 0.2  # linear barrier decrease factor
    theta_mu: float = 1.5  # superlinear barrier decrease exponent
    kappa_epsilon: float = 10.0  # barrier subproblem tolerance = kappa_eps * mu
    tau_min: float = 0.99  # fraction-to-boundary floor
    max_iter: int = 300
    max_backtracks: int = 40
    alpha_min: float = 1e-12
    armijo_eta: float = 1e-4
    max_restoration_steps: int = 50
    barrier_strategy: str = "monotone"

    def __post_init__(self) -> None:
        if self.barrier_strategy not in ("monotone", "adaptive", "probing"):
            raise SolverError(
                f"barrier_strategy must be 'monotone', 'adaptive' or "
                f"'probing', got {self.barrier_strategy!r}"
            )


@dataclass
class IPMResult:
    """Outcome of one interior-point solve."""

    x: np.ndarray
    lam: np.ndarray
    z_lower: np.ndarray
    z_upper: np.ndarray
    status: str  # "optimal" | "max_iterations" | "restoration_failed"
    iterations: int
    kkt_error: float
    constraint_violation: float
    objective: float
    mu_final: float
    wall_time_s: float
    #: feasibility-restoration phases entered during the solve
    restorations: int = 0

    @property
    def converged(self) -> bool:
        """True when first-order optimality was reached."""
        return self.status == "optimal"


class InteriorPointSolver:
    """Solves :class:`~repro.solver.nlp.NLPProblem` instances.

    One solver instance is reusable across problems; all state is local
    to :meth:`solve`.
    """

    def __init__(self, options: IPMOptions | None = None) -> None:
        self.options = options or IPMOptions()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solve(self, problem: NLPProblem, x0: np.ndarray) -> IPMResult:
        """Run the interior-point iteration from ``x0``.

        ``x0`` is projected strictly inside the bounds first.  Returns an
        :class:`IPMResult`; a non-converged status is reported in the
        result rather than raised, so callers can inspect the best point
        found (the partition layer falls back to waterfilling on
        failure).
        """
        # Attribute solver time to the "solve" profile phase even when
        # called outside the policy (direct solves from experiments);
        # nested re-entry from the policy's own solve scope is a cheap
        # no-op.
        with profile_phase("solve"):
            return self._solve_impl(problem, x0)

    def solve_with_retry(
        self,
        problem: NLPProblem,
        x0: np.ndarray,
        *,
        max_attempts: int = 2,
        perturb: float = 0.05,
    ) -> IPMResult:
        """Bounded-retry :meth:`solve`: perturb the start on failure.

        Non-convergence is frequently a bad-starting-point artefact
        (an x0 too close to a bound corner stalls the filter).  Each
        retry nudges the previous start by ±``perturb`` on alternating
        coordinates — deterministic, so runs stay reproducible — and
        :meth:`solve` re-projects it strictly inside the bounds.  The
        best result by KKT error is returned when every attempt fails
        to converge; a raising attempt after at least one completed
        attempt returns that attempt's result instead of propagating.
        """
        if max_attempts < 1:
            raise SolverError(f"max_attempts must be >= 1, got {max_attempts}")
        registry = get_registry()
        best: IPMResult | None = None
        x = np.asarray(x0, dtype=float)
        signs = np.where(np.arange(x.size) % 2 == 0, 1.0, -1.0)
        for attempt in range(max_attempts):
            try:
                result = self.solve(problem, x)
            except SolverError:
                if best is None and attempt == max_attempts - 1:
                    raise
                result = None
            if result is not None:
                if result.converged:
                    if attempt > 0:
                        registry.inc("ipm.retry_successes")
                    return result
                if best is None or result.kkt_error < best.kkt_error:
                    best = result
            if attempt < max_attempts - 1:
                registry.inc("ipm.retries")
                x = x * (1.0 + perturb * signs)
        assert best is not None  # loop raised otherwise
        return best

    def _solve_impl(self, problem: NLPProblem, x0: np.ndarray) -> IPMResult:
        opts = self.options
        t0 = time.perf_counter()

        lo, up = problem.lower, problem.upper
        has_lo, has_up = problem.has_lower(), problem.has_upper()

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

        # Callback values at the current x, evaluated once per point: an
        # accepted step keeps its trial's constraints, and a converged
        # iterate reports the KKT error it was accepted on.
        grad = problem.eval_gradient(x)
        c = problem.eval_constraints(x)
        jac = problem.eval_jacobian(x)
        final_err: float | None = None

        for iteration in range(1, opts.max_iter + 1):
            kkt_err0 = self._kkt_error(problem, x, lam, z_lo, z_up, grad, c, jac, 0.0)
            if kkt_err0 <= opts.tol:
                status = "optimal"
                final_err = kkt_err0
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
                    # refresh bound multipliers toward the new central path
                    z_lo = self._safeguard(z_lo, x - lo, mu, has_lo)
                    z_up = self._safeguard(z_up, up - x, mu, has_up)
                    continue

            # --- Newton direction on the condensed system -------------
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
                    flt.reset()  # the barrier objective changed scale
                mu = new_mu

            rhs_x = -(
                grad
                + jac.T @ lam
                - np.where(has_lo, mu / (x - lo), 0.0)
                + np.where(has_up, mu / (up - x), 0.0)
            )
            rhs_c = -c
            try:
                sol = solve_kkt(
                    w_sigma, jac, rhs_x, rhs_c, delta_w_init=0.0
                )
            except SolverError:
                # retry warm-started with the last successful regulariser
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

            # --- fraction-to-boundary step caps ------------------------
            tau = max(opts.tau_min, 1.0 - mu)
            alpha_pri_max = self._max_step(x - lo, dx, has_lo, tau)
            alpha_pri_max = min(
                alpha_pri_max, self._max_step(up - x, -dx, has_up, tau)
            )
            alpha_dual = min(
                self._max_step(z_lo, dz_lo, has_lo, tau),
                self._max_step(z_up, dz_up, has_up, tau),
            )

            # --- filter line search ------------------------------------
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
                    c_trial = problem.eval_constraints(x_trial)
                    theta_t = float(np.abs(c_trial).sum())
                    phi_t = self._barrier_value(problem, x_trial, mu)
                except ReproError:
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
                # --- feasibility restoration ---------------------------
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
                grad = problem.eval_gradient(x)
                c = problem.eval_constraints(x)
                jac = problem.eval_jacobian(x)
                continue

            if not f_type:
                flt.add(theta_k, phi_k)

            x, c = x_trial, c_trial
            grad = problem.eval_gradient(x)
            jac = problem.eval_jacobian(x)
            lam = lam + alpha * dlam
            z_lo = self._safeguard(z_lo + alpha_dual * dz_lo, x - lo, mu, has_lo)
            z_up = self._safeguard(z_up + alpha_dual * dz_up, up - x, mu, has_up)

        if final_err is None:
            final_err = self._kkt_error(
                problem, x, lam, z_lo, z_up, grad, c, jac, 0.0
            )
            if final_err <= self.options.tol:
                status = "optimal"
        registry = get_registry()
        registry.inc("ipm.solves")
        registry.inc("ipm.iterations", iteration)
        registry.inc("ipm.restorations", restorations)
        registry.set_gauge("ipm.kkt_error", final_err)
        registry.observe("ipm.solve_ms", (time.perf_counter() - t0) * 1e3)
        if status != "optimal":
            registry.inc("ipm.failures", **{"status": status})
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

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _max_step(
        slack: np.ndarray, direction: np.ndarray, mask: np.ndarray, tau: float
    ) -> float:
        """Largest alpha in (0, 1] keeping ``slack + alpha*dir >= (1-tau)*slack``."""
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
        """Clip bound multipliers into IPOPT's kappa_Sigma corridor."""
        out = np.where(mask, np.maximum(z, 0.0), 0.0)
        s = np.maximum(slack, 1e-300)
        lo_corridor = mu / (_KAPPA_SIGMA * s)
        hi_corridor = _KAPPA_SIGMA * mu / s
        out = np.where(mask, np.clip(out, lo_corridor, hi_corridor), 0.0)
        return out

    def _adaptive_mu(
        self,
        problem: NLPProblem,
        x: np.ndarray,
        z_lo: np.ndarray,
        z_up: np.ndarray,
        mu: float,
    ) -> float:
        """LOQO-style centrality-based barrier update (NWW 2009, eq. 2.2).

        With complementarity products ``w_i = slack_i * z_i``, the update
        sets ``mu = sigma * avg(w)`` where σ grows when the iterate is
        badly centred (``min(w)/avg(w)`` small) and shrinks toward the
        superlinear regime when it is well centred.
        """
        has_lo, has_up = problem.has_lower(), problem.has_upper()
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
        # safeguards: never below the floor, never ballooning upward
        return float(np.clip(new_mu, self.options.mu_min, max(10.0 * mu, 1e-6)))

    def _probing_mu(
        self,
        problem: NLPProblem,
        x: np.ndarray,
        lam: np.ndarray,
        z_lo: np.ndarray,
        z_up: np.ndarray,
        grad: np.ndarray,
        c: np.ndarray,
        jac: np.ndarray,
        w_sigma: np.ndarray,
        mu: float,
    ) -> float:
        """Mehrotra probing update (NWW 2009, Sec. 2.3).

        Solves the affine-scaling predictor (the Newton system with
        μ = 0), measures how far complementarity would fall along it,
        and sets ``sigma = (mu_affine / mu_avg)^3``.  Falls back to the
        current μ if the predictor solve fails.
        """
        lo, up = problem.lower, problem.upper
        has_lo, has_up = problem.has_lower(), problem.has_upper()
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

    def _barrier_value(self, problem: NLPProblem, x: np.ndarray, mu: float) -> float:
        lo, up = problem.lower, problem.upper
        has_lo, has_up = problem.has_lower(), problem.has_upper()
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
    def _kkt_error(
        problem: NLPProblem,
        x: np.ndarray,
        lam: np.ndarray,
        z_lo: np.ndarray,
        z_up: np.ndarray,
        grad: np.ndarray,
        c: np.ndarray,
        jac: np.ndarray,
        mu: float,
    ) -> float:
        """Scaled optimality error E_mu (IPOPT eq. (5))."""
        has_lo, has_up = problem.has_lower(), problem.has_upper()
        r_dual = grad + jac.T @ lam - z_lo + z_up
        comp = np.concatenate(
            [
                (x[has_lo] - problem.lower[has_lo]) * z_lo[has_lo] - mu,
                (problem.upper[has_up] - x[has_up]) * z_up[has_up] - mu,
            ]
        )
        s_max = 100.0
        denom = problem.m + problem.num_bounds
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

    def _restore(
        self, problem: NLPProblem, x: np.ndarray, theta0: float
    ) -> tuple[np.ndarray, bool]:
        """Gauss-Newton feasibility restoration.

        Reduces ||c(x)||² while staying strictly interior; succeeds when
        the violation drops by 10x (or reaches near-feasibility).
        """
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
