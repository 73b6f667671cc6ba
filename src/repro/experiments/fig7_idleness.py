"""Fig. 7 — processing-unit idle time relative to total execution time.

Same setup as Fig. 6 (four machines, one GPU each, two input sizes per
application), comparing PLB-HeC against HDSS.  The paper's findings,
which this experiment reproduces:

* HDSS idles more than PLB-HeC in every scenario (its phase-1 uniform
  probe sizes leave fast devices waiting);
* idleness shrinks with input size for both (the initial phase
  amortises);
* PLB-HeC's rebalancing never fires in steady conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.experiments.fig6_distribution import DEFAULT_CASES
from repro.experiments.parallel import PointSpec, run_sweep
from repro.util.stats import left_sum
from repro.util.tables import format_table

__all__ = ["Fig7Case", "run_fig7", "render_fig7"]

FIG7_POLICIES: tuple[str, ...] = ("hdss", "plb-hec")


@dataclass(frozen=True)
class Fig7Case:
    """Idle fractions of one (app, size) cell."""

    app_name: str
    size: int
    idle: Mapping[str, Mapping[str, float]]  # policy -> device -> idle frac
    rebalances: Mapping[str, float]  # policy -> mean rebalance count

    def mean_idle(self, policy: str) -> float:
        """Idle fraction averaged over the processing units."""
        values = self.idle[policy].values()
        return left_sum(values) / len(values) if values else 0.0


def run_fig7(
    *,
    cases: Sequence[tuple[str, Sequence[int]]] = DEFAULT_CASES,
    policies: Sequence[str] = FIG7_POLICIES,
    replications: int = 3,
    seed: int = 0,
    jobs: int | None = None,
) -> list[Fig7Case]:
    """Run the Fig. 7 grid (always 4 machines, one GPU each)."""
    specs = [
        PointSpec(
            app_name=app_name,
            size=size,
            num_machines=4,
            policies=tuple(policies),
            replications=replications,
            seed=seed,
        )
        for app_name, sizes in cases
        for size in sizes
    ]
    return [
        Fig7Case(
            app_name=point.app_name,
            size=point.size,
            idle={
                name: outcome.mean_idle()
                for name, outcome in point.outcomes.items()
            },
            rebalances={
                name: sum(outcome.rebalances) / len(outcome.rebalances)
                for name, outcome in point.outcomes.items()
            },
        )
        for point in run_sweep(specs, jobs=jobs)
    ]


def render_fig7(cases: list[Fig7Case]) -> str:
    """ASCII table: idle fraction per device per policy."""
    if not cases:
        return "(no cases)"
    devices = sorted(next(iter(cases[0].idle.values())).keys())
    rows = []
    for case in cases:
        for policy, idle in case.idle.items():
            rows.append(
                [case.app_name, case.size, policy]
                + [idle.get(d, 0.0) for d in devices]
                + [case.mean_idle(policy), case.rebalances[policy]]
            )
    return format_table(
        ["app", "size", "policy", *devices, "mean", "rebalances"],
        rows,
        title="Fig.7 idle fraction of total execution time",
    )
