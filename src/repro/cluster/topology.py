"""Cluster topology: machines, the master node, and the transfer model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cluster.device import Device
from repro.cluster.machine import Machine
from repro.cluster.network import NetworkSpec, PCIeSpec, TransferModel
from repro.errors import ConfigurationError
from repro.util.stats import left_sum

__all__ = ["Cluster"]


@dataclass(frozen=True)
class Cluster:
    """A set of machines plus the interconnect.

    The first machine is the *master node* (the paper runs Algorithm 1
    "in a single node, called master node"); data originates there, so
    devices on it pay no network transfer.

    Parameters
    ----------
    machines:
        Cluster nodes; names must be unique.
    network / pcie:
        Link specs for the transfer-time ground truth.
    use_cpus:
        Include CPU processing units (the paper always does).
    max_gpus_per_machine:
        Cap GPU units per machine (Fig. 6/7 use one per machine).
    """

    machines: tuple[Machine, ...]
    network: NetworkSpec = field(default_factory=NetworkSpec)
    pcie: PCIeSpec = field(default_factory=PCIeSpec)
    use_cpus: bool = True
    max_gpus_per_machine: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "machines", tuple(self.machines))
        if not self.machines:
            raise ConfigurationError("a cluster needs at least one machine")
        names = [m.name for m in self.machines]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate machine names: {names}")
        if self.max_gpus_per_machine is not None and self.max_gpus_per_machine < 0:
            raise ConfigurationError("max_gpus_per_machine must be >= 0 or None")

    @property
    def master(self) -> str:
        """Name of the master machine (the first one)."""
        return self.machines[0].name

    @property
    def transfer_model(self) -> TransferModel:
        """Ground-truth staging model for this topology."""
        return TransferModel(
            network=self.network, pcie=self.pcie, master_machine=self.master
        )

    def devices(self) -> list[Device]:
        """All processing units in deterministic (machine, kind) order."""
        out: list[Device] = []
        for m in self.machines:
            out.extend(
                m.devices(use_cpu=self.use_cpus, max_gpus=self.max_gpus_per_machine)
            )
        if not out:
            raise ConfigurationError(
                "cluster has no processing units (no GPUs and use_cpus=False)"
            )
        return out

    def device(self, device_id: str) -> Device:
        """Look up one processing unit by id."""
        for d in self.devices():
            if d.device_id == device_id:
                return d
        raise ConfigurationError(f"no device {device_id!r} in cluster")

    def machine(self, name: str) -> Machine:
        """Look up one machine by name."""
        for m in self.machines:
            if m.name == name:
                return m
        raise ConfigurationError(f"no machine {name!r} in cluster")

    def subset(self, names: Sequence[str] | Iterable[str]) -> "Cluster":
        """Build a sub-cluster keeping only the named machines (in order)."""
        names = list(names)
        return Cluster(
            machines=tuple(self.machine(n) for n in names),
            network=self.network,
            pcie=self.pcie,
            use_cpus=self.use_cpus,
            max_gpus_per_machine=self.max_gpus_per_machine,
        )

    @property
    def total_peak_gflops(self) -> float:
        """Aggregate theoretical peak of all processing units."""
        return left_sum(d.peak_gflops for d in self.devices())

    def __len__(self) -> int:
        return len(self.machines)
