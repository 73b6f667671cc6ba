"""Benchmark S1: Sec. V.a — interior-point solve overhead.

The paper reports a mean of 170 ms (std 32.3 ms) per block-size solve
for 4 machines and matrices of order 65536.  This benchmark times our
solve chain on models fitted for exactly that scenario; absolute
numbers depend on the host, the claim that must survive is
*milliseconds-scale and amortised*.
"""

import time

from repro.cluster import paper_cluster
from repro.experiments.solver_overhead import (
    fitted_models_for_scenario,
    run_solver_overhead,
)
from repro.solver import solve_block_partition


def test_bench_solver_overhead(benchmark):
    models = fitted_models_for_scenario(size=65536, num_machines=4)
    quantum = 65536 * 0.9 / 5

    result = benchmark(lambda: solve_block_partition(models, quantum))
    stats = run_solver_overhead(repetitions=20, size=65536, num_machines=4)
    print()
    print(
        f"solver overhead (4 machines, MM 65536): "
        f"{stats.mean_ms:.1f} ms +- {stats.std_ms:.1f} ms over "
        f"{stats.samples} solves; method={stats.method}, "
        f"iterations={stats.iterations} (paper: 170 ms +- 32.3 ms)"
    )
    assert result.units.sum() > 0
    # milliseconds-scale: same order as the paper's IPOPT-on-2015-hardware
    assert stats.mean_ms < 1000.0


def test_bench_solver_barrier_strategies(benchmark):
    """NWW 2009 ablation: monotone vs adaptive barrier updates."""
    from repro.solver.ipm import IPMOptions, InteriorPointSolver
    from repro.solver.problem import build_partition_nlp, initial_partition_point

    models = fitted_models_for_scenario(size=65536, num_machines=4)
    quantum = 65536 * 0.9 / 5
    nlp_models = list(models.values())
    rows = []
    for strategy in ("monotone", "adaptive", "probing"):
        opts = IPMOptions(barrier_strategy=strategy, max_iter=300)
        nlp = build_partition_nlp(nlp_models, quantum)
        z0 = initial_partition_point(nlp_models, quantum)
        t0 = time.perf_counter()
        result = InteriorPointSolver(opts).solve(nlp, z0)
        wall = time.perf_counter() - t0
        rows.append((strategy, result.status, result.iterations, wall))
    benchmark(
        lambda: InteriorPointSolver(
            IPMOptions(barrier_strategy="adaptive")
        ).solve(
            build_partition_nlp(nlp_models, quantum),
            initial_partition_point(nlp_models, quantum),
        )
    )
    print()
    for strategy, status, iters, wall in rows:
        print(f"  {strategy:9s} status={status} iterations={iters} wall={wall*1e3:.1f} ms")
    assert all(status == "optimal" for _, status, _, _ in rows)
    assert rows[1][2] <= rows[0][2]  # adaptive no worse than monotone


def test_bench_solver_scaling_with_devices(benchmark):
    """Solve cost as the cluster grows (devices 2 -> 8)."""
    rows = []
    for machines in (1, 2, 4):
        stats = run_solver_overhead(
            repetitions=10, size=65536, num_machines=machines
        )
        n_devices = len(paper_cluster(machines).devices())
        rows.append((machines, n_devices, stats.mean_ms))
    models = fitted_models_for_scenario(size=65536, num_machines=4)
    benchmark(lambda: solve_block_partition(models, 65536 * 0.9 / 5))
    print()
    for machines, n_devices, mean_ms in rows:
        print(
            f"  machines={machines} devices={n_devices} "
            f"mean solve={mean_ms:.1f} ms"
        )
    assert rows[-1][2] < 1000.0
