"""Tests for the interior-point solver on standard reference problems."""

from dataclasses import replace

import numpy as np
import pytest

from repro.modeling.perf_profile import PerfProfile
from repro.solver.ipm import IPMOptions, InteriorPointSolver
from repro.solver.nlp import NLPProblem
from repro.solver.problem import build_partition_nlp, initial_partition_point


def qp_simplex(n=3, weights=None):
    """min sum w_i x_i^2  s.t. sum x = 1, x >= 0.

    Analytic optimum: x_i proportional to 1/w_i.
    """
    w = np.asarray(weights if weights is not None else np.ones(n), dtype=float)

    return NLPProblem(
        n=n,
        m=1,
        objective=lambda x: float(np.sum(w * x**2)),
        gradient=lambda x: 2 * w * x,
        constraints=lambda x: np.array([float(np.sum(x)) - 1.0]),
        jacobian=lambda x: np.ones((1, n)),
        hess_lagrangian=lambda x, lam, of: np.diag(2 * w * of),
        lower=np.zeros(n),
        upper=np.full(n, np.inf),
        name="qp-simplex",
    )


def entropy_problem(n=4):
    """min sum x ln x  s.t. sum x = 1, 0 <= x <= 1  ->  uniform optimum."""

    def f(x):
        return float(np.sum(x * np.log(np.maximum(x, 1e-300))))

    return NLPProblem(
        n=n,
        m=1,
        objective=f,
        gradient=lambda x: np.log(np.maximum(x, 1e-300)) + 1.0,
        constraints=lambda x: np.array([float(np.sum(x)) - 1.0]),
        jacobian=lambda x: np.ones((1, n)),
        hess_lagrangian=lambda x, lam, of: np.diag(of / np.maximum(x, 1e-300)),
        lower=np.zeros(n),
        upper=np.ones(n),
        name="neg-entropy",
    )


def rosenbrock_constrained():
    """min (1-x)^2 + 100(y-x^2)^2  s.t. x + y = 1, bounds [-2, 2]."""

    def f(z):
        x, y = z
        return float((1 - x) ** 2 + 100 * (y - x**2) ** 2)

    def g(z):
        x, y = z
        return np.array(
            [-2 * (1 - x) - 400 * x * (y - x**2), 200 * (y - x**2)]
        )

    def h(z, lam, of):
        x, y = z
        return of * np.array(
            [[2 - 400 * (y - 3 * x**2), -400 * x], [-400 * x, 200.0]]
        )

    return NLPProblem(
        n=2,
        m=1,
        objective=f,
        gradient=g,
        constraints=lambda z: np.array([z[0] + z[1] - 1.0]),
        jacobian=lambda z: np.ones((1, 2)),
        hess_lagrangian=h,
        lower=np.full(2, -2.0),
        upper=np.full(2, 2.0),
        name="rosenbrock-eq",
    )


class TestQPSimplex:
    def test_uniform_weights_give_uniform_solution(self):
        problem = qp_simplex(3)
        result = InteriorPointSolver().solve(problem, np.full(3, 0.2))
        assert result.converged
        assert np.allclose(result.x, 1 / 3, atol=1e-6)

    def test_weighted_solution(self):
        w = np.array([1.0, 2.0, 4.0])
        problem = qp_simplex(3, weights=w)
        result = InteriorPointSolver().solve(problem, np.full(3, 1 / 3))
        expected = (1 / w) / np.sum(1 / w)
        assert result.converged
        assert np.allclose(result.x, expected, atol=1e-6)

    def test_constraint_satisfied(self):
        result = InteriorPointSolver().solve(qp_simplex(5), np.full(5, 0.1))
        assert abs(result.x.sum() - 1.0) < 1e-8

    def test_bounds_respected(self):
        result = InteriorPointSolver().solve(qp_simplex(4), np.full(4, 0.25))
        assert np.all(result.x >= 0.0)

    def test_start_point_clipped_into_interior(self):
        # infeasible, on-boundary start must not crash
        result = InteriorPointSolver().solve(qp_simplex(3), np.array([1.0, 0.0, 0.0]))
        assert result.converged


class TestEntropy:
    def test_uniform_optimum(self):
        problem = entropy_problem(4)
        result = InteriorPointSolver().solve(
            problem, np.array([0.7, 0.1, 0.1, 0.1])
        )
        assert result.converged
        assert np.allclose(result.x, 0.25, atol=1e-5)


class TestRosenbrock:
    def test_converges_to_feasible_stationary_point(self):
        problem = rosenbrock_constrained()
        result = InteriorPointSolver(IPMOptions(max_iter=500)).solve(
            problem, np.array([0.0, 0.5])
        )
        assert result.converged
        assert abs(result.x.sum() - 1.0) < 1e-7
        # known optimum of this constrained problem is near (0.6188, 0.3812)
        assert result.x[0] == pytest.approx(0.6188, abs=1e-3)


class TestAdaptiveBarrier:
    """The NWW 2009 adaptive strategy: converges, and usually faster."""

    def test_invalid_strategy_rejected(self):
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            IPMOptions(barrier_strategy="chaotic")

    @pytest.mark.parametrize("strategy", ["adaptive", "probing"])
    @pytest.mark.parametrize(
        "factory,x0",
        [
            (lambda: qp_simplex(3, [1.0, 2.0, 4.0]), np.full(3, 1 / 3)),
            (lambda: entropy_problem(4), np.array([0.7, 0.1, 0.1, 0.1])),
            (lambda: rosenbrock_constrained(), np.array([0.0, 0.5])),
        ],
        ids=["qp", "entropy", "rosenbrock"],
    )
    def test_adaptive_converges(self, factory, x0, strategy):
        opts = IPMOptions(barrier_strategy=strategy, max_iter=500)
        result = InteriorPointSolver(opts).solve(factory(), x0)
        assert result.converged

    def test_probing_same_optimum(self):
        x0 = np.full(3, 1 / 3)
        probing = InteriorPointSolver(
            IPMOptions(barrier_strategy="probing")
        ).solve(qp_simplex(3, [1.0, 2.0, 4.0]), x0)
        w = np.array([1.0, 2.0, 4.0])
        expected = (1 / w) / np.sum(1 / w)
        assert np.allclose(probing.x, expected, atol=1e-5)

    def test_adaptive_same_optimum_as_monotone(self):
        problem_a = qp_simplex(3, [1.0, 2.0, 4.0])
        problem_m = qp_simplex(3, [1.0, 2.0, 4.0])
        x0 = np.full(3, 1 / 3)
        adaptive = InteriorPointSolver(
            IPMOptions(barrier_strategy="adaptive")
        ).solve(problem_a, x0)
        monotone = InteriorPointSolver(
            IPMOptions(barrier_strategy="monotone")
        ).solve(problem_m, x0)
        assert np.allclose(adaptive.x, monotone.x, atol=1e-6)

    def test_adaptive_fewer_iterations_on_qp(self):
        x0 = np.full(3, 1 / 3)
        adaptive = InteriorPointSolver(
            IPMOptions(barrier_strategy="adaptive")
        ).solve(qp_simplex(3, [1.0, 2.0, 4.0]), x0)
        monotone = InteriorPointSolver(
            IPMOptions(barrier_strategy="monotone")
        ).solve(qp_simplex(3, [1.0, 2.0, 4.0]), x0)
        assert adaptive.iterations <= monotone.iterations


class TestResultContract:
    def test_iteration_limit_reported(self):
        problem = rosenbrock_constrained()
        result = InteriorPointSolver(IPMOptions(max_iter=2)).solve(
            problem, np.array([0.0, 0.5])
        )
        assert not result.converged
        assert result.status == "max_iterations"

    def test_wall_time_positive(self):
        result = InteriorPointSolver().solve(qp_simplex(2), np.full(2, 0.5))
        assert result.wall_time_s > 0.0

    def test_kkt_error_small_at_optimum(self):
        result = InteriorPointSolver().solve(qp_simplex(3), np.full(3, 0.2))
        assert result.kkt_error <= IPMOptions().tol

    def test_multipliers_returned(self):
        result = InteriorPointSolver().solve(qp_simplex(3), np.full(3, 0.2))
        # lambda for sum(x)=1 at optimum of sum x^2 is -2/3
        assert result.lam[0] == pytest.approx(-2 / 3, abs=1e-4)


def counted_partition_problem():
    """A fixed 4-device partition NLP whose callbacks log what they see."""
    models = []
    for i, slope in enumerate((1e-4, 3e-4, 9e-4, 2e-3)):
        prof = PerfProfile(f"d{i}")
        for u in (10, 50, 250, 1000, 4000):
            prof.add(u, 0.01 + slope * u + 2e-8 * u * u, 1e-7 * u)
        models.append(prof.fit())
    base = build_partition_nlp(models, 6000.0)
    log = {"constraints": [], "jacobian": []}

    def logged(name, fn):
        def wrapper(z):
            log[name].append(np.array(z).tobytes())
            return fn(z)

        return wrapper

    problem = replace(
        base,
        constraints=logged("constraints", base.constraints),
        jacobian=logged("jacobian", base.jacobian),
    )
    return problem, initial_partition_point(models, 6000.0), log


class TestEvaluationReuse:
    def test_each_point_evaluated_once(self):
        problem, z0, log = counted_partition_problem()
        result = InteriorPointSolver(IPMOptions(barrier_strategy="adaptive")).solve(
            problem, z0
        )
        assert result.converged and result.restorations == 0
        # accepted trials and the converged point are never re-evaluated
        assert len(log["constraints"]) == len(set(log["constraints"]))
        assert len(log["jacobian"]) == result.iterations

    def test_callback_bug_in_line_search_propagates(self):
        problem, z0, _ = counted_partition_problem()
        calls = []
        inner = problem.constraints

        def constraints(z):
            calls.append(1)
            if len(calls) == 2:  # the first line-search trial
                raise TypeError("bug in a model callback")
            return inner(z)

        problem.constraints = constraints
        with pytest.raises(TypeError, match="bug in a model callback"):
            InteriorPointSolver(IPMOptions(barrier_strategy="adaptive")).solve(
                problem, z0
            )
