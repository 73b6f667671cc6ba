"""Sec. V.a — interior-point solve overhead.

"The mean time spent on this calculation was 170 ms, for the scenario
with 4 machines and matrices of order 65536, with standard deviation of
32.3 ms."  This experiment times :func:`solve_block_partition` on
models fitted for exactly that scenario, on the host running the
reproduction (absolute numbers are hardware-dependent; the claim that
survives is *milliseconds-scale, amortised by the better distribution*).
The experiment reads the host clock around each call itself: its result
is a host time, and the solver times nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cluster import GroundTruth, paper_cluster
from repro.experiments.runner import make_application
from repro.modeling import DeviceModel, PerfProfile
from repro.sim.random import RandomStreams
from repro.solver import solve_block_partition
from repro.util.stats import mean_std
from repro.util.validation import check_positive_int

__all__ = ["OverheadStats", "fitted_models_for_scenario", "run_solver_overhead"]


@dataclass(frozen=True)
class OverheadStats:
    """Solve-time statistics over repeated solves."""

    mean_ms: float
    std_ms: float
    samples: int
    method: str
    iterations: int


def fitted_models_for_scenario(
    *,
    app_name: str = "matmul",
    size: int = 65536,
    num_machines: int = 4,
    probe_points: int = 8,
    noise_sigma: float = 0.005,
    seed: int = 0,
) -> dict[str, DeviceModel]:
    """Build per-device models the way the modeling phase would."""
    cluster = paper_cluster(num_machines)
    app = make_application(app_name, size)
    ground_truth = GroundTruth(cluster, app.kernel_characteristics())
    streams = RandomStreams(seed)
    s0 = app.default_initial_block_size()
    models: dict[str, DeviceModel] = {}
    for device in cluster.devices():
        did = device.device_id
        profile = PerfProfile(did)
        # equal-time-ish probe ladder, like the modeling phase produces
        rate = 1.0 / max(ground_truth.total_time(did, s0), 1e-12)
        base_rate = max(
            1.0 / max(ground_truth.total_time(d.device_id, s0), 1e-12)
            for d in cluster.devices()
        )
        ratio = rate / base_rate
        for k in range(probe_points):
            units = max(int(round(s0 * 2**k * ratio)), 1)
            t_exec = ground_truth.exec_time(did, units)
            t_exec *= streams.lognormal_factor(f"{did}/{k}", noise_sigma)
            profile.add(units, t_exec, ground_truth.transfer_time(did, units))
        models[did] = profile.fit()
    return models


def run_solver_overhead(
    *,
    repetitions: int = 20,
    quantum: float | None = None,
    **scenario_kwargs,
) -> OverheadStats:
    """Time repeated partition solves for the paper's scenario, each on
    fresh model objects, so no repetition reuses another's tables."""
    check_positive_int("repetitions", repetitions)
    models = fitted_models_for_scenario(**scenario_kwargs)
    size = scenario_kwargs.get("size", 65536)
    q = quantum if quantum is not None else size * 0.9 / 5
    times = []
    for _ in range(repetitions):
        # The waterfill keeps its tables by model object: fresh objects
        # make each repetition time one decision's whole solve.
        fresh = {
            did: DeviceModel(did, m.exec_fit, m.transfer_fit)
            for did, m in models.items()
        }
        t0 = time.perf_counter()
        last = solve_block_partition(fresh, q)
        times.append((time.perf_counter() - t0) * 1e3)
    mean, std = mean_std(times)
    return OverheadStats(
        mean_ms=float(mean),
        std_ms=float(std),
        samples=repetitions,
        method=last.method,
        iterations=last.iterations,
    )
