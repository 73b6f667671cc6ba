#!/usr/bin/env python3
"""The paper's Sec. VI outlook: rebalancing on degraded cloud resources.

A device slows down 4x mid-run (a noisy neighbour on shared
infrastructure).  PLB-HeC's finish-time skew monitor detects the drift,
refits the degraded device's performance model with recency-weighted
measurements and re-solves the block distribution.  The example compares
three setups under the same perturbation:

* rebalancing enabled, fine execution steps (detects and adapts fast);
* rebalancing enabled, coarse steps (detection lags a full block);
* rebalancing disabled (the pull model's self-correction only).

Run:
    python examples/cloud_rebalance.py
"""

from repro import PLBHeC, Runtime, paper_cluster
from repro.apps import MatMul
from repro.runtime.faults import Perturbation
from repro.util.tables import format_table


def main() -> None:
    app = MatMul(n=65536)
    cluster = paper_cluster(4)

    # baseline: measure the undisturbed makespan to place the slowdown
    baseline = Runtime(cluster, app.codelet(), seed=21).run(
        PLBHeC(), app.total_units, app.default_initial_block_size()
    )
    slow_at = baseline.makespan * 0.3
    perturbation = Perturbation(
        device_id="D.gpu0", start_time=slow_at, factor=4.0
    )
    print(
        f"undisturbed makespan: {baseline.makespan:.1f} s; injecting 4x "
        f"slowdown of D.gpu0 at t={slow_at:.1f} s"
    )

    rows = []
    for label, policy in [
        ("rebalancing on, fine steps", PLBHeC(num_steps=12)),
        ("rebalancing on, coarse steps", PLBHeC(num_steps=5)),
        ("rebalancing off", PLBHeC(rebalance_threshold=1e9)),
    ]:
        runtime = Runtime(
            cluster, app.codelet(), seed=21, faults=(perturbation,)
        )
        result = runtime.run(
            policy, app.total_units, app.default_initial_block_size()
        )
        idle = result.idle_fractions
        rows.append(
            [
                label,
                result.makespan,
                result.makespan / baseline.makespan - 1.0,
                sum(idle.values()) / len(idle),
                result.num_rebalances,
            ]
        )
    print(
        format_table(
            ["setup", "makespan_s", "degradation", "mean_idle", "rebalances"],
            rows,
            title="Mid-run 4x slowdown of the fastest GPU (MM 65536, sim)",
        )
    )


if __name__ == "__main__":
    main()
