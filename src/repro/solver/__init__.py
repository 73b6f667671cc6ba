"""Interior-point block-partition solver (paper Sec. III.C).

The paper solves the equal-finish-time system (eq. 3-5) with IPOPT's
interior-point line-search filter method [Nocedal, Wächter & Waltz 2009].
This package implements that algorithm from scratch:

* :mod:`repro.solver.nlp` — a generic equality-constrained, bounded
  nonlinear program description;
* :mod:`repro.solver.filter` — the (constraint violation, objective)
  filter that globalises the line search;
* :mod:`repro.solver.kkt` — assembly and inertia-corrected solution of
  the primal-dual KKT systems;
* :mod:`repro.solver.ipm` — the barrier outer loop + Newton inner loop
  driver;
* :mod:`repro.solver.problem` — builds the paper's partition NLP
  (minimise the common completion time T subject to ``E_g(x_g) = T`` and
  ``sum x_g = Q``) from fitted device models;
* :mod:`repro.solver.reduction` — an independent waterfilling reduction
  of the same problem (bisection on T), used as presolve and fallback;
* :mod:`repro.solver.partition` — the high-level
  :func:`solve_block_partition` entry point: it certifies the
  waterfill point, Newton-polished, against the NLP's first-order
  conditions and runs the interior-point method only when that
  certificate fails, with its fallback chain behind both.
"""

from repro.solver.filter import Filter, FilterEntry
from repro.solver.ipm import IPMOptions, IPMResult, InteriorPointSolver
from repro.solver.nlp import NLPProblem
from repro.solver.partition import PartitionResult, solve_block_partition
from repro.solver.problem import build_partition_nlp
from repro.solver.reduction import waterfill_partition

__all__ = [
    "NLPProblem",
    "Filter",
    "FilterEntry",
    "InteriorPointSolver",
    "IPMOptions",
    "IPMResult",
    "build_partition_nlp",
    "waterfill_partition",
    "solve_block_partition",
    "PartitionResult",
]
