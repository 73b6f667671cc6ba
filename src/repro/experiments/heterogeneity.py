"""Heterogeneity study (DESIGN.md H1, beyond the paper's grid).

The paper's central qualitative claim — "PLB-HeC obtained the highest
performance gains with more heterogeneous clusters" — is only sampled at
four machine-count points in the paper.  This experiment quantifies it:
clusters are built with a *controllable heterogeneity index* (the ratio
between the fastest and slowest GPU's sustained rate) and the speedup
over Greedy is measured as a function of that index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.apps import MatMul
from repro.balancers import Greedy, HDSS
from repro.cluster.device import CPUSpec, GPUArch, GPUSpec
from repro.cluster.machine import Machine
from repro.cluster.topology import Cluster
from repro.core import PLBHeC
from repro.errors import ConfigurationError
from repro.runtime import Runtime
from repro.util.stats import left_sum
from repro.util.tables import format_table

__all__ = ["HeterogeneityPoint", "build_spread_cluster", "run_heterogeneity"]


@dataclass(frozen=True)
class HeterogeneityPoint:
    """Speedups measured at one heterogeneity index."""

    spread: float
    greedy_s: float
    hdss_s: float
    plb_s: float

    @property
    def plb_speedup(self) -> float:
        return self.greedy_s / self.plb_s

    @property
    def hdss_speedup(self) -> float:
        return self.greedy_s / self.hdss_s


def build_spread_cluster(spread: float, *, num_machines: int = 4) -> Cluster:
    """Machines whose overall speeds span a factor of ``spread``.

    Heterogeneity is applied at the *machine* level — both the CPU and
    the GPU of machine i are clocked by the same factor, as when mixing
    hardware generations (the paper's setting).  Machine speeds are
    geometrically spaced and normalised so the summed clock factors
    (hence the aggregate sustained rate) are the same at every spread:
    the measured effect is heterogeneity alone, not total capacity.
    """
    if spread < 1.0:
        raise ConfigurationError(f"spread must be >= 1, got {spread}")
    if num_machines < 2:
        raise ConfigurationError("need at least 2 machines")
    exponents = [i / (num_machines - 1) - 0.5 for i in range(num_machines)]
    raw = [spread**e for e in exponents]
    scale = num_machines / left_sum(raw)
    machines = []
    for i in range(num_machines):
        factor = raw[i] * scale
        machines.append(
            Machine(
                name=f"m{i}",
                cpu=CPUSpec(
                    model=f"study-cpu-{i}",
                    cores=6,
                    clock_ghz=round(3.0 * factor, 4),
                    cache_mb=12.0,
                    ram_gb=32.0,
                ),
                gpus=(
                    GPUSpec(
                        model=f"study-gpu-{i}",
                        cores=2048,
                        sms=13,
                        clock_ghz=round(0.9 * factor, 4),
                        mem_bandwidth_gbs=200.0,
                        mem_gb=4.0,
                        arch=GPUArch.KEPLER,
                    ),
                ),
            )
        )
    return Cluster(machines=tuple(machines))


def run_heterogeneity(
    *,
    spreads: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0),
    n: int = 32768,
    seed: int = 1,
) -> list[HeterogeneityPoint]:
    """Measure speedup vs Greedy as a function of GPU-speed spread."""
    points = []
    for spread in spreads:
        cluster = build_spread_cluster(spread)
        app = MatMul(n=n)
        times = {}
        for policy in (Greedy(), HDSS(), PLBHeC()):
            runtime = Runtime(cluster, app.codelet(), seed=seed)
            result = runtime.run(
                policy, app.total_units, app.default_initial_block_size()
            )
            times[policy.name] = result.makespan
        points.append(
            HeterogeneityPoint(
                spread=float(spread),
                greedy_s=times["greedy"],
                hdss_s=times["hdss"],
                plb_s=times["plb-hec"],
            )
        )
    return points


def render_heterogeneity(points: list[HeterogeneityPoint]) -> str:
    """ASCII table of the heterogeneity sweep."""
    return format_table(
        ["gpu_spread", "greedy_s", "hdss_s", "plb_hec_s",
         "plb_speedup", "hdss_speedup"],
        [
            [p.spread, p.greedy_s, p.hdss_s, p.plb_s,
             p.plb_speedup, p.hdss_speedup]
            for p in points
        ],
        title="H1: speedup vs machine heterogeneity (MM, 4 machines, "
        "constant aggregate capacity)",
    )
