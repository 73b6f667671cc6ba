"""Beyond-paper ablation studies (DESIGN.md experiments A1, A2).

* :func:`run_selection_ablation` — what the interior-point selection is
  worth: PLB-HeC with its full solve chain vs the waterfilling-only and
  proportional-only selection variants, plus the omniscient Oracle
  bound.
* :func:`run_rebalance_ablation` — the Sec. VI "cloud" scenario: a
  device slows down mid-run; compare PLB-HeC with rebalancing enabled
  vs disabled (threshold effectively infinite).
* :func:`run_probe_ablation` — HDSS's uniform synchronous probing vs
  the per-device asynchronous variant, isolating how much of PLB-HeC's
  phase-1 advantage comes from speed-scaled probing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps import MatMul
from repro.balancers import HDSS, Oracle
from repro.cluster import GroundTruth, paper_cluster
from repro.core import PLBHeC
from repro.errors import ConfigurationError
from repro.runtime import Runtime
from repro.runtime.faults import Perturbation
from repro.solver.partition import PartitionResult
from repro.solver.reduction import waterfill_partition
from repro.util.stats import left_sum
from repro.util.tables import format_table

__all__ = [
    "AblationRow",
    "run_selection_ablation",
    "run_rebalance_ablation",
    "run_probe_ablation",
    "render_ablation",
]


@dataclass(frozen=True)
class AblationRow:
    """One variant's outcome."""

    variant: str
    makespan: float
    mean_idle: float
    rebalances: int


class _ForcedSelectionPLB(PLBHeC):
    """PLB-HeC whose selection is forced onto one solve path."""

    def __init__(self, forced_method: str, **kwargs) -> None:
        super().__init__(**kwargs)
        if forced_method not in ("waterfill", "proportional"):
            raise ConfigurationError(f"unknown forced method {forced_method!r}")
        self.forced_method = forced_method

    def _split(self, quantum: float) -> PartitionResult:  # noqa: D102 - see base
        ids = tuple(self._models)
        model_list = [self._models[d] for d in ids]
        if self.forced_method == "waterfill":
            units, predicted = waterfill_partition(model_list, quantum)
        else:
            probe = max(quantum / len(model_list), 1e-9)
            rates = np.array([max(m.rate(probe), 1e-12) for m in model_list])
            units = quantum * rates / rates.sum()
            predicted = float(max(m.E(u) for m, u in zip(model_list, units)))
        return PartitionResult(
            device_ids=ids,
            units=np.asarray(units, dtype=float),
            predicted_time=predicted,
            method=self.forced_method,
            converged=True,
            iterations=0,
            kkt_error=float("nan"),
            solve_time_s=0.0,
        )


def _run(policy, app, cluster, *, seed=3, faults=()) -> AblationRow:
    runtime = Runtime(cluster, app.codelet(), seed=seed, faults=faults)
    result = runtime.run(policy, app.total_units, app.default_initial_block_size())
    idle = result.idle_fractions
    return AblationRow(
        variant=getattr(policy, "variant_name", policy.name),
        makespan=result.makespan,
        mean_idle=left_sum(idle.values()) / len(idle),
        rebalances=result.num_rebalances,
    )


def run_selection_ablation(
    *, n: int = 65536, num_machines: int = 4, seed: int = 3
) -> list[AblationRow]:
    """IPM-chain vs waterfill-only vs proportional-only vs Oracle."""
    app = MatMul(n=n)
    cluster = paper_cluster(num_machines)
    ground_truth = GroundTruth(cluster, app.kernel_characteristics())
    rows = []
    for variant, policy in [
        ("plb-hec (ipm chain)", PLBHeC()),
        ("plb-hec (waterfill only)", _ForcedSelectionPLB("waterfill")),
        ("plb-hec (proportional only)", _ForcedSelectionPLB("proportional")),
        ("oracle", Oracle(ground_truth)),
    ]:
        policy.variant_name = variant  # type: ignore[attr-defined]
        rows.append(_run(policy, app, cluster, seed=seed))
    return rows


def run_rebalance_ablation(
    *,
    n: int = 32768,
    num_machines: int = 4,
    slow_device: str = "D.gpu0",
    slow_factor: float = 3.0,
    at_fraction_of_run: float = 0.4,
    seed: int = 3,
) -> list[AblationRow]:
    """Mid-run slowdown with and without threshold rebalancing."""
    app = MatMul(n=n)
    cluster = paper_cluster(num_machines)
    # estimate when to inject: fraction of the undisturbed PLB makespan
    base = _run(PLBHeC(), app, cluster, seed=seed)
    t_inject = base.makespan * at_fraction_of_run
    perturbations = (
        Perturbation(device_id=slow_device, start_time=t_inject, factor=slow_factor),
    )
    rows = [
        AblationRow("undisturbed", base.makespan, base.mean_idle, base.rebalances)
    ]
    # Rebalancing reacts at task-completion granularity, so its value
    # depends on the execution-step size: with the default coarse steps
    # detection lags a full (degraded) block; finer steps detect and
    # correct sooner at slightly higher dispatch overhead.
    for label, policy in [
        ("perturbed, rebalancing on", PLBHeC()),
        ("perturbed, rebalancing off", PLBHeC(rebalance_threshold=1e9)),
        ("perturbed, rebalancing on, fine steps", PLBHeC(num_steps=12)),
        (
            "perturbed, rebalancing off, fine steps",
            PLBHeC(rebalance_threshold=1e9, num_steps=12),
        ),
    ]:
        policy.variant_name = label  # type: ignore[attr-defined]
        rows.append(
            _run(policy, app, cluster, seed=seed, faults=perturbations)
        )
    return rows


def run_probe_ablation(
    *, n: int = 65536, num_machines: int = 4, seed: int = 3
) -> list[AblationRow]:
    """HDSS uniform-synchronous vs per-device-asynchronous probing."""
    app = MatMul(n=n)
    cluster = paper_cluster(num_machines)
    rows = []
    for variant, policy in [
        ("hdss (uniform probing, paper)", HDSS()),
        ("hdss (per-device probing)", HDSS(per_device_growth=True)),
        ("plb-hec (speed-scaled probing)", PLBHeC()),
    ]:
        policy.variant_name = variant  # type: ignore[attr-defined]
        rows.append(_run(policy, app, cluster, seed=seed))
    return rows


def render_ablation(rows: list[AblationRow], *, title: str) -> str:
    """ASCII rendering of an ablation result set."""
    return format_table(
        ["variant", "makespan_s", "mean_idle", "rebalances"],
        [[r.variant, r.makespan, r.mean_idle, r.rebalances] for r in rows],
        title=title,
    )
