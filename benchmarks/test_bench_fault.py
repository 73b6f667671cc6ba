"""Benchmark (Sec. VI): device failure mid-run.

The paper's fault-tolerance outlook: "machines may become unavailable
during execution ... a simple redistribution of the data among the
remaining devices would permit the application to re-adapt."  This
benchmark kills the fastest GPU at 40 % of the run and compares how much
each policy's makespan degrades; PLB-HeC's model-driven redistribution
should contain the damage best.
"""

from benchmarks.conftest import fast_mode
from repro import Greedy, HDSS, PLBHeC, Runtime, paper_cluster
from repro.apps import MatMul
from repro.runtime.faults import DeviceFailure
from repro.util.tables import format_table


def test_bench_fault_tolerance(benchmark):
    n = 16384 if fast_mode() else 32768
    cluster = paper_cluster(4)
    app = MatMul(n=n)

    baseline = Runtime(cluster, app.codelet(), seed=9).run(
        PLBHeC(), app.total_units, app.default_initial_block_size()
    )
    failure = DeviceFailure(device_id="D.gpu0", time=baseline.makespan * 0.4)

    def sweep():
        rows = []
        for policy in (Greedy(), HDSS(), PLBHeC(num_steps=8)):
            rt = Runtime(cluster, app.codelet(), seed=9, faults=(failure,))
            res = rt.run(
                policy, app.total_units, app.default_initial_block_size()
            )
            rows.append(
                [
                    policy.name,
                    res.makespan,
                    res.makespan / baseline.makespan,
                    res.num_rebalances,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        f"undisturbed PLB-HeC baseline: {baseline.makespan:.1f} s; "
        f"D.gpu0 killed at t={failure.time:.1f} s"
    )
    print(
        format_table(
            ["policy", "makespan_s", "degradation", "rebalances"],
            rows,
            title=f"Losing the fastest GPU mid-run (MM {n}, 4 machines)",
        )
    )
    degradation = {row[0]: row[2] for row in rows}
    # PLB-HeC's redistribution contains the damage better than both baselines
    assert degradation["plb-hec"] < degradation["greedy"]
    assert degradation["plb-hec"] < degradation["hdss"]
