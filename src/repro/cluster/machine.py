"""A cluster machine: one CPU plus zero or more GPUs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.device import CPUSpec, Device, DeviceKind, GPUSpec
from repro.errors import ConfigurationError
from repro.util.stats import left_sum

__all__ = ["Machine"]


@dataclass(frozen=True)
class Machine:
    """One node of the cluster.

    Produces the paper's processing units: a single CPU unit aggregating
    every core, plus one unit per GPU processor.

    Attributes
    ----------
    name:
        Short unique name (``"A"``..``"D"`` for the Table I machines).
    cpu:
        The machine's CPU.
    gpus:
        GPU processors installed in the machine (possibly several per
        physical board).
    """

    name: str
    cpu: CPUSpec
    gpus: tuple[GPUSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name or "." in self.name:
            raise ConfigurationError(
                f"machine name must be non-empty and contain no '.', got {self.name!r}"
            )
        if not isinstance(self.cpu, CPUSpec):
            raise ConfigurationError(f"cpu must be a CPUSpec, got {self.cpu!r}")
        object.__setattr__(self, "gpus", tuple(self.gpus))
        for g in self.gpus:
            if not isinstance(g, GPUSpec):
                raise ConfigurationError(f"gpus must be GPUSpec, got {g!r}")

    def devices(self, *, use_cpu: bool = True, max_gpus: int | None = None) -> list[Device]:
        """Enumerate this machine's processing units.

        Parameters
        ----------
        use_cpu:
            Include the CPU processing unit (the paper always does).
        max_gpus:
            Cap the number of GPU units (the Fig. 6/7 experiments use
            "one GPU per machine"); ``None`` uses all.
        """
        out: list[Device] = []
        if use_cpu:
            out.append(
                Device(
                    device_id=f"{self.name}.cpu",
                    kind=DeviceKind.CPU,
                    machine_name=self.name,
                    spec=self.cpu,
                )
            )
        gpus = self.gpus if max_gpus is None else self.gpus[:max_gpus]
        for i, gpu in enumerate(gpus):
            out.append(
                Device(
                    device_id=f"{self.name}.gpu{i}",
                    kind=DeviceKind.GPU,
                    machine_name=self.name,
                    spec=gpu,
                )
            )
        return out

    @property
    def total_peak_gflops(self) -> float:
        """Aggregate theoretical peak of the machine (CPU + all GPUs)."""
        return self.cpu.peak_gflops + left_sum(g.peak_gflops for g in self.gpus)
