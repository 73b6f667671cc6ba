"""Assembly and inertia-corrected solution of the primal-dual KKT system.

Each Newton step of the barrier subproblem solves the *condensed*
system (bound duals eliminated)::

    [ W + Σ + δ_w I    Jᵀ       ] [ dx  ]   [ -(∇f - z_L + z_U + Jᵀ λ) ]
    [ J               -δ_c I    ] [ dλ  ] = [ -c                        ]

with ``Σ = Z_L (X - L)⁻¹ + Z_U (U - X)⁻¹``.  For Newton directions to be
descent directions of the barrier problem the matrix must have inertia
(n, m, 0); when it does not, the primal regularisation δ_w is increased
geometrically (and a tiny dual regularisation δ_c handles rank-deficient
Jacobians), mirroring IPOPT's IC-1 heuristic.  Problem sizes here are
tiny, so the inertia is read directly off the eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError

__all__ = ["KKTSolution", "solve_kkt"]

_MAX_REG_TRIES = 40


@dataclass(frozen=True)
class KKTSolution:
    """A computed Newton direction with the regularisation that produced it."""

    dx: np.ndarray
    dlam: np.ndarray
    delta_w: float
    delta_c: float


def _inertia(matrix: np.ndarray) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix."""
    eigvals = np.linalg.eigvalsh(matrix)
    scale = max(float(np.max(np.abs(eigvals))), 1.0)
    tol = 1e-12 * scale
    pos = int(np.sum(eigvals > tol))
    neg = int(np.sum(eigvals < -tol))
    return pos, neg, matrix.shape[0] - pos - neg


def solve_kkt(
    w_sigma: np.ndarray,
    jac: np.ndarray,
    rhs_x: np.ndarray,
    rhs_c: np.ndarray,
    *,
    delta_w_init: float = 0.0,
    delta_min: float = 1e-20,
) -> KKTSolution:
    """Solve the condensed KKT system with inertia correction.

    Parameters
    ----------
    w_sigma:
        ``W + Σ`` — Lagrangian Hessian plus barrier diagonal, (n, n).
    jac:
        Constraint Jacobian, (m, n).
    rhs_x / rhs_c:
        Negated dual and primal residuals (the right-hand side above).
    delta_w_init:
        Starting primal regularisation (pass the last successful value
        to warm-start, as IPOPT does).

    Raises
    ------
    SolverError
        If no regularisation in the search schedule produces the
        required inertia.
    """
    n = w_sigma.shape[0]
    m = jac.shape[0]
    if w_sigma.shape != (n, n) or jac.shape != (m, n):
        raise SolverError(
            f"inconsistent KKT shapes: W{w_sigma.shape}, J{jac.shape}"
        )
    rhs = np.concatenate([rhs_x, rhs_c])
    kkt = np.empty((n + m, n + m))
    kkt[:n, n:] = jac.T
    kkt[n:, :n] = jac

    delta_w = delta_w_init
    delta_c = 0.0
    for attempt in range(_MAX_REG_TRIES):
        # only the regularised diagonal blocks change between attempts
        kkt[:n, :n] = w_sigma + delta_w * np.eye(n)
        kkt[n:, n:] = -delta_c * np.eye(m)

        # Symmetric equilibration: barrier terms near active bounds blow
        # the matrix scale up to ~1/slack², which makes an absolute
        # eigenvalue tolerance misclassify small-but-genuine pivots.
        # Diagonal congruence preserves inertia and solves that.
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
        # wrong inertia (or singular): bump the regularisations
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
