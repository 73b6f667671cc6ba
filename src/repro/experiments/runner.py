"""Shared experiment machinery.

Experiments describe *what* to run (application, sizes, machine counts,
policies, replications); this module runs the grid with deterministic
per-replication seeds and aggregates makespans, idleness, distributions
and scheduler overheads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.apps import Application, BlackScholes, GRNInference, MatMul, Stencil2D
from repro.balancers import (
    HDSS,
    Acosta,
    Greedy,
    GuidedSelfScheduling,
    Oracle,
    StaticProfile,
)
from repro.cluster import GroundTruth, paper_cluster
from repro.cluster.topology import Cluster
from repro.core import PLBHeC
from repro.errors import ConfigurationError
from repro.runtime import RunResult, SchedulingPolicy
from repro.util.stats import left_sum, mean_std

__all__ = [
    "PolicyOutcome",
    "SweepPoint",
    "make_application",
    "make_policy",
    "run_policies",
    "PAPER_POLICIES",
]

#: Policy names in the paper's presentation order.
PAPER_POLICIES: tuple[str, ...] = ("greedy", "acosta", "hdss", "plb-hec")

#: GRN simulation-scale parameters (paper-scale pools are sim-only).
GRN_SIM_KWARGS = {"candidate_pool": 4096, "samples": 24}


def make_application(name: str, size: int) -> Application:
    """Instantiate one of the paper's applications at a given size."""
    if name == "matmul":
        return MatMul(n=size)
    if name == "grn":
        return GRNInference(num_genes=size, **GRN_SIM_KWARGS)
    if name == "blackscholes":
        return BlackScholes(num_options=size)
    if name == "stencil":
        return Stencil2D(num_tiles=size, sweeps=2000)
    raise ConfigurationError(f"unknown application {name!r}")


def make_policy(
    name: str,
    *,
    ground_truth: GroundTruth | None = None,
    fixed_overhead_s: float | None = None,
) -> SchedulingPolicy:
    """Instantiate a policy by its report name.

    ``fixed_overhead_s`` pins PLB-HeC's scheduler-overhead charge to one
    constant per decision instead of its modeled per-device cost; either
    charge is bit-reproducible.  Policies that charge no overhead ignore
    it.
    """
    if name == "greedy":
        return Greedy()
    if name == "acosta":
        return Acosta()
    if name == "hdss":
        return HDSS()
    if name == "hdss-async":
        return HDSS(per_device_growth=True)
    if name == "plb-hec":
        return PLBHeC(fixed_overhead_s=fixed_overhead_s)
    if name == "plb-hec-free":
        return PLBHeC(overhead_scale=0.0)
    if name == "gss":
        return GuidedSelfScheduling()
    if name == "static":
        if ground_truth is None:
            raise ConfigurationError(
                "the static policy needs the ground truth to derive its "
                "previous-execution profiles"
            )
        return StaticProfile(_offline_models(ground_truth))
    if name == "oracle":
        if ground_truth is None:
            raise ConfigurationError("the oracle policy needs the ground truth")
        return Oracle(ground_truth)
    raise ConfigurationError(f"unknown policy {name!r}")


def _offline_models(ground_truth: GroundTruth, sizes=(8, 16, 64, 256, 1024)):
    """Previous-execution device models for the static baseline.

    The static policy's contract is profiles measured on an *earlier*
    run of the same kernel; a noiseless probe ladder over the ground
    truth is exactly what such a run would have produced.
    """
    from repro.modeling.perf_profile import PerfProfile

    models = {}
    for device in ground_truth.cluster.devices():
        did = device.device_id
        profile = PerfProfile(did)
        for u in sizes:
            profile.add(
                u,
                ground_truth.exec_time(did, u),
                ground_truth.transfer_time(did, u),
            )
        models[did] = profile.fit()
    return models


@dataclass
class PolicyOutcome:
    """Aggregated results of one policy at one sweep point."""

    policy: str
    makespans: list[float] = field(default_factory=list)
    idle_fractions: list[dict[str, float]] = field(default_factory=list)
    distributions: list[dict[str, float]] = field(default_factory=list)
    overheads: list[float] = field(default_factory=list)
    rebalances: list[int] = field(default_factory=list)

    @property
    def mean_makespan(self) -> float:
        return mean_std(self.makespans)[0]

    @property
    def std_makespan(self) -> float:
        return mean_std(self.makespans)[1]

    def mean_idle(self) -> dict[str, float]:
        """Per-device idle fraction averaged over replications."""
        if not self.idle_fractions:
            return {}
        keys = self.idle_fractions[0].keys()
        return {
            k: left_sum(d[k] for d in self.idle_fractions) / len(self.idle_fractions)
            for k in keys
        }

    def mean_distribution(self) -> dict[str, float]:
        """Per-device work share averaged over replications."""
        if not self.distributions:
            return {}
        keys = self.distributions[0].keys()
        return {
            k: left_sum(d[k] for d in self.distributions) / len(self.distributions)
            for k in keys
        }


@dataclass(frozen=True)
class SweepPoint:
    """One (application, size, machines) grid point with all policies."""

    app_name: str
    size: int
    num_machines: int
    outcomes: Mapping[str, PolicyOutcome]

    def speedup_vs(self, baseline: str, policy: str) -> float:
        """Mean-makespan ratio baseline/policy (the paper's speedup)."""
        base = self.outcomes[baseline].mean_makespan
        mine = self.outcomes[policy].mean_makespan
        return base / mine if mine > 0 else float("nan")


def _extract_distribution(policy: SchedulingPolicy, result: RunResult) -> dict[str, float]:
    """The Fig. 6 quantity for each algorithm.

    PLB-HeC: the block distribution at the end of the modeling phase;
    HDSS: normalised phase-1 weights; others: their realised share of
    the execution-phase data.
    """
    if isinstance(policy, PLBHeC) and policy.first_partition is not None:
        return policy.first_partition.fractions
    if isinstance(policy, HDSS) and policy.weights:
        total = left_sum(policy.weights.values())
        return {d: w / total for d, w in policy.weights.items()}
    return result.trace.distribution(phase="exec")


def run_policies(
    app_name: str,
    size: int,
    num_machines: int,
    *,
    policies: Sequence[str] = PAPER_POLICIES,
    replications: int = 3,
    seed: int = 0,
    noise_sigma: float = 0.005,
    cluster_factory: Callable[[int], Cluster] = paper_cluster,
    fixed_overhead_s: float | None = None,
    jobs: int | None = None,
    profile: bool = False,
    stats: "object | None" = None,
) -> SweepPoint:
    """Run every policy at one grid point and aggregate replications.

    Delegates to the parallel sweep engine
    (:mod:`repro.experiments.parallel`): the (policy, replication)
    product fans out over ``jobs`` worker processes (``REPRO_JOBS``
    environment variable by default) with optional on-disk result
    caching (``REPRO_CACHE``), while keeping the historical
    per-replication seeding ``seed * 1000 + rep`` so aggregates match
    the old serial loop bit for bit.  ``profile``/``stats`` pass
    through to :func:`repro.experiments.parallel.run_sweep`: with
    ``profile=True`` (``compare --profile``) every run executes, the
    cache bypassed, and ``stats.profile`` holds the merged CPU profile.
    """
    # Imported lazily: parallel.py imports this module's factories.
    from repro.experiments.parallel import PointSpec, run_point

    return run_point(
        PointSpec(
            app_name=app_name,
            size=size,
            num_machines=num_machines,
            policies=tuple(policies),
            replications=replications,
            seed=seed,
            noise_sigma=noise_sigma,
            fixed_overhead_s=fixed_overhead_s,
            cluster_factory=cluster_factory,
        ),
        jobs=jobs,
        profile=profile,
        stats=stats,
    )
