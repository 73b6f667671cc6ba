#!/usr/bin/env python3
"""The paper's Sec. VI fault-tolerance outlook: a machine dies mid-run.

The fastest GPU fails at 40% of the run.  Its in-flight block is lost
and returns to the work pool; PLB-HeC drops the device, re-solves the
block distribution over the survivors and finishes the workload.  The
example compares damage across policies and shows PLB-HeC's
post-failure redistribution.

Run:
    python examples/fault_tolerance.py
"""

from repro import Greedy, HDSS, PLBHeC, Runtime, paper_cluster
from repro.apps import MatMul
from repro.runtime.faults import DeviceFailure
from repro.util.tables import format_table


def main() -> None:
    app = MatMul(n=32768)
    cluster = paper_cluster(4)

    baseline = Runtime(cluster, app.codelet(), seed=9).run(
        PLBHeC(), app.total_units, app.default_initial_block_size()
    )
    t_fail = baseline.makespan * 0.4
    failure = DeviceFailure(device_id="D.gpu0", time=t_fail)
    print(
        f"undisturbed PLB-HeC makespan: {baseline.makespan:.1f} s; "
        f"killing D.gpu0 (the fastest GPU) at t={t_fail:.1f} s"
    )

    rows = []
    plb = PLBHeC(num_steps=8)
    for policy in (Greedy(), HDSS(), plb):
        rt = Runtime(cluster, app.codelet(), seed=9, faults=(failure,))
        res = rt.run(policy, app.total_units, app.default_initial_block_size())
        rows.append(
            [
                policy.name,
                res.makespan,
                res.makespan / baseline.makespan,
                len(res.trace.failures),
                res.num_rebalances,
            ]
        )
    print(
        format_table(
            ["policy", "makespan_s", "vs undisturbed", "failures", "rebalances"],
            rows,
            title="Losing the fastest GPU at 40% of the run (MM 32768, sim)",
        )
    )

    last = plb.selection_history[-1]
    print()
    print("PLB-HeC's post-failure distribution (D.gpu0 excluded):")
    for device, units in last.units_by_device.items():
        marker = "  <- failed" if device == "D.gpu0" else ""
        print(f"  {device:7s} {units:9.0f} units{marker}")


if __name__ == "__main__":
    main()
