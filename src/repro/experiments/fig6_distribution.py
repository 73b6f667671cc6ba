"""Fig. 6 — block-size distribution among the processing units.

"The values represent the ratio of total data allocated on a single
step to each CPU/GPU processor ... We considered the block sizes
generated at the end of the performance modeling phase for PLB-HeC, of
phase 1 for the HDSS algorithm, and of the application execution for
the Acosta algorithm."  Four machines, one GPU per machine, two input
sizes per application.

The expected shape: all three estimators give GPUs far larger shares
than CPUs; PLB-HeC's distribution is qualitatively different, with
proportionally smaller CPU and larger GPU blocks than the
weighted-mean-based Acosta/HDSS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.experiments.parallel import PointSpec, run_sweep
from repro.util.stats import left_sum
from repro.util.tables import format_table

__all__ = ["DEFAULT_CASES", "run_fig6", "render_fig6", "gpu_share"]

#: (application, [two input sizes]) as in the figure.
DEFAULT_CASES: tuple[tuple[str, tuple[int, int]], ...] = (
    ("matmul", (16384, 65536)),
    ("grn", (60_000, 140_000)),
    ("blackscholes", (100_000, 500_000)),
)

#: The distribution-estimating policies the figure compares.
FIG6_POLICIES: tuple[str, ...] = ("acosta", "hdss", "plb-hec")


@dataclass(frozen=True)
class Fig6Case:
    """Distributions of one (app, size) cell."""

    app_name: str
    size: int
    distributions: Mapping[str, Mapping[str, float]]  # policy -> device -> share


def gpu_share(distribution: Mapping[str, float]) -> float:
    """Total share assigned to GPU processing units."""
    return left_sum(v for d, v in distribution.items() if "gpu" in d)


def run_fig6(
    *,
    cases: Sequence[tuple[str, Sequence[int]]] = DEFAULT_CASES,
    policies: Sequence[str] = FIG6_POLICIES,
    replications: int = 3,
    seed: int = 0,
    jobs: int | None = None,
) -> list[Fig6Case]:
    """Run the Fig. 6 grid (always 4 machines, one GPU each)."""
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
        Fig6Case(
            app_name=point.app_name,
            size=point.size,
            distributions={
                name: outcome.mean_distribution()
                for name, outcome in point.outcomes.items()
            },
        )
        for point in run_sweep(specs, jobs=jobs)
    ]


def render_fig6(cases: list[Fig6Case]) -> str:
    """ASCII table: one row per (app, size, policy), device columns."""
    if not cases:
        return "(no cases)"
    devices = sorted(next(iter(cases[0].distributions.values())).keys())
    rows = []
    for case in cases:
        for policy, dist in case.distributions.items():
            rows.append(
                [case.app_name, case.size, policy]
                + [dist.get(d, 0.0) for d in devices]
                + [gpu_share(dist)]
            )
    return format_table(
        ["app", "size", "policy", *devices, "gpu_total"],
        rows,
        title="Fig.6 block-size distribution (share of one step)",
    )
