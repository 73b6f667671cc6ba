"""Experiment harness: regenerates every table and figure of the paper.

Each ``figN_*`` module produces the rows/series the corresponding paper
artefact reports, as plain data structures plus an ASCII rendering:

* :mod:`repro.experiments.table1` — the machine-configuration table;
* :mod:`repro.experiments.fig1_models` — measured execution times and
  fitted performance models per device (Fig. 1);
* :mod:`repro.experiments.fig4_exectime` — execution time and speedup
  vs Greedy for MatMul and GRN across input sizes and machine counts
  (Fig. 4);
* :mod:`repro.experiments.fig5_blackscholes` — the same for
  Black-Scholes (Fig. 5);
* :mod:`repro.experiments.fig6_distribution` — block-size distribution
  across processing units per algorithm (Fig. 6);
* :mod:`repro.experiments.fig7_idleness` — processing-unit idle time
  (Fig. 7);
* :mod:`repro.experiments.solver_overhead` — the interior-point solve
  cost statistic (Sec. V.a, ~170 ms);
* :mod:`repro.experiments.ablations` — beyond-paper studies: selection
  method (IPM / waterfill / proportional), rebalancing under
  perturbation (the Sec. VI cloud scenario), probing strategy.

Shared machinery lives in :mod:`repro.experiments.runner`; the parallel
sweep engine (process fan-out + content-addressed result cache, the
``REPRO_JOBS`` / ``REPRO_CACHE`` knobs) in
:mod:`repro.experiments.parallel`; the bitwise sweep comparison in
:mod:`repro.experiments.wallclock`.
"""

from repro.experiments.parallel import (
    PointSpec,
    ResultCache,
    SweepStats,
    run_point,
    run_sweep,
)
from repro.experiments.runner import (
    PolicyOutcome,
    SweepPoint,
    make_application,
    make_policy,
    run_policies,
)

__all__ = [
    "PolicyOutcome",
    "SweepPoint",
    "PointSpec",
    "ResultCache",
    "SweepStats",
    "make_application",
    "make_policy",
    "run_policies",
    "run_point",
    "run_sweep",
]
