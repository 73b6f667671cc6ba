"""Hidden ground-truth performance functions.

This module is the simulator's stand-in for real silicon: given a device
and an application kernel, it produces the *true* execution time of a
block, which the engine then perturbs with measurement noise and reports
to the scheduling policies.  Policies never import this module — they
must rediscover these curves online, exactly as the paper's algorithm
does on hardware.

The time model, per block of ``u`` application units:

``T(u) = launch + c * u / occ(u) * cache_penalty(u)``
``occ(u) = max(u / (u + h), occ_floor)``

where ``c`` is the asymptotic per-unit cost (work / sustained rate),
``h`` the device's *half-saturation size* (a block of ``u = h`` units
runs at 50 % of the sustained rate — small blocks cannot fill the
parallel lanes), and ``occ_floor`` the small-kernel rate floor (a tiny
kernel still engages a fixed fraction of the device rather than taking
constant time; GPUs bottom out around 1/16 of sustained GEMM rate,
CPUs at one core's worth).  Above the floor the curve is affine,
``T = launch + c*(u + h)``; below it, steeper-sloped linear — matching
measured GEMM/Monte-Carlo rate-vs-size curves and giving the HDSS-style
log-looking saturation of Fig. 1.  This reproduces the two behaviours
the paper's evaluation hinges on:

* GPUs are dramatically inefficient on small blocks (Greedy's fixed
  small pieces waste them; PLB-HeC's large per-GPU blocks do not);
* measured FLOPs/s-vs-size curves saturate, which is exactly the
  logarithmic shape HDSS fits and the curve family of Fig. 1.

CPU units additionally pay a mild cache penalty once a block's working
set overflows the last-level cache, giving the upward curvature of the
CPU curves in Fig. 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.device import CPUSpec, Device, DeviceKind, GPUSpec
from repro.cluster.network import TransferModel
from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError
from repro.util.stats import left_sum
from repro.util.validation import check_in_range, check_positive

__all__ = ["KernelCharacteristics", "DevicePerformance", "GroundTruth"]

#: Parallel capacity of the reference GPU (Tesla K20c: 13 SMs x 2048).
REF_GPU_CAPACITY = 13 * 2048
#: Core count of the reference GPU (Tesla K20c).
REF_GPU_CORES = 2496
#: Virtual cores of the reference CPU (Xeon E5-2690V2: 10 cores x 2).
REF_CPU_THREADS = 20


@dataclass(frozen=True)
class KernelCharacteristics:
    """How one application kernel loads a device.

    Built by the application (:mod:`repro.apps`) from its own parameters.

    Attributes
    ----------
    name:
        Kernel name, e.g. ``"matmul"``.
    flops_per_unit:
        Floating-point work per application unit (e.g. ``2*n^2`` per
        matrix row).
    bytes_in_per_unit / bytes_out_per_unit:
        Data staged to / retrieved from the device per unit.
    cpu_efficiency / gpu_efficiency:
        Kernel-specific multipliers on the device's sustained efficiency
        (e.g. a branchy kernel runs GPUs below their GEMM efficiency).
    gpu_half_units / cpu_half_units:
        Half-saturation block size for the *reference* device; scaled by
        each device's parallel capacity.
    gpu_launch_overhead_s / cpu_launch_overhead_s:
        Fixed per-dispatch cost (kernel launch + runtime bookkeeping).
    cpu_cache_gamma:
        Relative slowdown of CPU units once the working set overflows
        cache (0 disables the penalty).
    gpu_min_occupancy:
        Small-kernel rate floor for GPUs: the fraction of sustained rate
        a near-empty kernel still achieves (CPUs use one core's worth,
        ``1 / threads``, automatically).
    gpu_half_scaling:
        How the half-saturation size scales across GPU models:
        ``"threads"`` (default) scales with max resident threads —
        right for latency-hiding-limited kernels like tiled GEMM;
        ``"cores"`` scales with the core count — right for
        compute-bound kernels whose units are long-running independent
        threads (one option / one gene per thread), where a few
        thousand threads already saturate the ALUs.
    """

    name: str
    flops_per_unit: float
    bytes_in_per_unit: float
    bytes_out_per_unit: float = 8.0
    cpu_efficiency: float = 1.0
    gpu_efficiency: float = 1.0
    gpu_half_units: float = 256.0
    cpu_half_units: float = 8.0
    gpu_launch_overhead_s: float = 200e-6
    cpu_launch_overhead_s: float = 50e-6
    cpu_cache_gamma: float = 0.0
    gpu_min_occupancy: float = 1.0 / 16.0
    gpu_half_scaling: str = "threads"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("kernel name must be non-empty")
        check_positive("flops_per_unit", self.flops_per_unit)
        check_positive("bytes_in_per_unit", self.bytes_in_per_unit, strict=False)
        check_positive("bytes_out_per_unit", self.bytes_out_per_unit, strict=False)
        check_positive("cpu_efficiency", self.cpu_efficiency)
        check_positive("gpu_efficiency", self.gpu_efficiency)
        check_positive("gpu_half_units", self.gpu_half_units)
        check_positive("cpu_half_units", self.cpu_half_units)
        check_positive("gpu_launch_overhead_s", self.gpu_launch_overhead_s, strict=False)
        check_positive("cpu_launch_overhead_s", self.cpu_launch_overhead_s, strict=False)
        check_positive("cpu_cache_gamma", self.cpu_cache_gamma, strict=False)
        check_in_range("gpu_min_occupancy", self.gpu_min_occupancy, 0.0, 1.0, inclusive=False)
        if self.gpu_half_scaling not in ("threads", "cores"):
            raise ConfigurationError(
                f"gpu_half_scaling must be 'threads' or 'cores', "
                f"got {self.gpu_half_scaling!r}"
            )

    @property
    def bytes_per_unit(self) -> float:
        """Total bytes moved per unit (in + out)."""
        return self.bytes_in_per_unit + self.bytes_out_per_unit


class DevicePerformance:
    """Ground-truth execution-time function of one (device, kernel) pair."""

    def __init__(self, device: Device, kernel: KernelCharacteristics) -> None:
        self.device = device
        self.kernel = kernel
        eff = device.sustained_efficiency
        if device.kind is DeviceKind.GPU:
            eff *= kernel.gpu_efficiency
            spec = device.spec
            assert isinstance(spec, GPUSpec)
            if kernel.gpu_half_scaling == "cores":
                scale = spec.cores / REF_GPU_CORES
            else:
                scale = device.parallel_capacity / REF_GPU_CAPACITY
            self.half_units = kernel.gpu_half_units * scale
            self.launch_overhead_s = kernel.gpu_launch_overhead_s
            self.occupancy_floor = kernel.gpu_min_occupancy
        else:
            eff *= kernel.cpu_efficiency
            self.half_units = kernel.cpu_half_units * (
                device.parallel_capacity / REF_CPU_THREADS
            )
            self.launch_overhead_s = kernel.cpu_launch_overhead_s
            # a near-empty CPU task still runs at one core's speed
            self.occupancy_floor = 1.0 / device.parallel_capacity
        self.sustained_gflops = device.peak_gflops * eff
        #: asymptotic seconds per unit at full saturation
        self.unit_cost_s = kernel.flops_per_unit / (self.sustained_gflops * 1e9)
        # CPU cache penalty: working sets beyond ~2x LLC run up to
        # (1 + gamma) slower; the transition is smooth (saturating).
        self._cache_units = math.inf
        self._cache_gamma = 0.0
        if device.kind is DeviceKind.CPU and kernel.cpu_cache_gamma > 0.0:
            spec = device.spec
            assert isinstance(spec, CPUSpec)
            cache_bytes = spec.cache_mb * 1e6
            per_unit = max(kernel.bytes_in_per_unit, 1.0)
            self._cache_units = 2.0 * cache_bytes / per_unit
            self._cache_gamma = kernel.cpu_cache_gamma

    def efficiency(self, units: float) -> float:
        """Fraction of the sustained rate a block of this size achieves.

        Ignores the cache penalty and launch overhead: this is the
        floored occupancy curve ``max(u / (u + h), occ_floor)``.
        """
        if units <= 0.0:
            return 0.0
        return max(units / (units + self.half_units), self.occupancy_floor)

    def cache_penalty(self, units: float) -> float:
        """Multiplicative slowdown from cache overflow (1.0 = none)."""
        if self._cache_gamma == 0.0 or units <= 0.0:
            return 1.0
        return 1.0 + self._cache_gamma * units / (units + self._cache_units)

    def exec_time(self, units: float) -> float:
        """True (noise-free) seconds to execute a block of ``units``."""
        if units < 0:
            raise ValueError(f"units must be >= 0, got {units}")
        if units == 0:
            return 0.0
        u = float(units)
        c = self.unit_cost_s
        occ = self.efficiency(u)
        return self.launch_overhead_s + (c * u / occ) * self.cache_penalty(u)

    def rate_gflops(self, units: float) -> float:
        """Achieved GFLOP/s on a block of ``units`` (an HDSS-style view)."""
        t = self.exec_time(units)
        if t <= 0.0:
            return 0.0
        return units * self.kernel.flops_per_unit / t / 1e9


class GroundTruth:
    """All (device, kernel) performance functions for one cluster.

    The simulation backend owns one of these per run; scheduling policies
    must not touch it.
    """

    def __init__(self, cluster: Cluster, kernel: KernelCharacteristics) -> None:
        self.cluster = cluster
        self.kernel = kernel
        self.transfer_model: TransferModel = cluster.transfer_model
        self._perf = {
            d.device_id: DevicePerformance(d, kernel) for d in cluster.devices()
        }

    def performance(self, device_id: str) -> DevicePerformance:
        """The execution-time model of one device."""
        try:
            return self._perf[device_id]
        except KeyError:
            raise ConfigurationError(f"no device {device_id!r} in ground truth")

    def exec_time(self, device_id: str, units: float) -> float:
        """True compute seconds for a block on a device."""
        return self.performance(device_id).exec_time(units)

    def transfer_time(self, device_id: str, units: float) -> float:
        """True staging seconds for a block's input bytes."""
        device = self.performance(device_id).device
        return self.transfer_model.transfer_time(
            device, units * self.kernel.bytes_in_per_unit
        )

    def total_time(self, device_id: str, units: float) -> float:
        """Transfer + compute seconds (the paper's ``E_g``)."""
        return self.exec_time(device_id, units) + self.transfer_time(device_id, units)

    def ideal_partition(self, total_units: int) -> dict[str, float]:
        """Oracle equal-time split of ``total_units`` across all devices.

        Solved by bisection on the common finish time; used by the Oracle
        baseline and by tests as the optimum reference.
        """
        devices = [d.device_id for d in self.cluster.devices()]
        if total_units <= 0:
            return {d: 0.0 for d in devices}

        def units_at_time(device_id: str, t: float) -> float:
            # invert the monotone total_time via bisection on units
            lo, hi = 0.0, float(total_units)
            if self.total_time(device_id, hi) <= t:
                return hi
            if self.total_time(device_id, lo + 1e-9) >= t:
                return 0.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if self.total_time(device_id, mid) <= t:
                    lo = mid
                else:
                    hi = mid
            return lo

        # outer bisection on the common completion time
        t_lo = 0.0
        t_hi = max(self.total_time(d, total_units) for d in devices)
        for _ in range(80):
            t_mid = 0.5 * (t_lo + t_hi)
            assigned = left_sum(units_at_time(d, t_mid) for d in devices)
            if assigned >= total_units:
                t_hi = t_mid
            else:
                t_lo = t_mid
        return {d: units_at_time(d, t_hi) for d in devices}
