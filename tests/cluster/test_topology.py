"""Tests for repro.cluster.topology."""

import pytest

from repro.cluster.device import CPUSpec, GPUArch, GPUSpec
from repro.cluster.machine import Machine
from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError


def machine(name, gpus=1):
    gpu = GPUSpec(
        model="g", cores=128, sms=4, clock_ghz=1.0,
        mem_bandwidth_gbs=50.0, mem_gb=1.0, arch=GPUArch.KEPLER,
    )
    return Machine(
        name=name,
        cpu=CPUSpec(model="c", cores=2, clock_ghz=2.0),
        gpus=(gpu,) * gpus,
    )


class TestCluster:
    def test_master_is_first(self):
        c = Cluster(machines=(machine("x"), machine("y")))
        assert c.master == "x"

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(machines=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            Cluster(machines=(machine("x"), machine("x")))

    def test_devices_deterministic_order(self):
        c = Cluster(machines=(machine("x", gpus=2), machine("y")))
        ids = [d.device_id for d in c.devices()]
        assert ids == ["x.cpu", "x.gpu0", "x.gpu1", "y.cpu", "y.gpu0"]

    def test_max_gpus_per_machine(self):
        c = Cluster(machines=(machine("x", gpus=2),), max_gpus_per_machine=1)
        ids = [d.device_id for d in c.devices()]
        assert ids == ["x.cpu", "x.gpu0"]

    def test_no_cpus(self):
        c = Cluster(machines=(machine("x"),), use_cpus=False)
        assert all(d.is_gpu for d in c.devices())

    def test_no_devices_rejected(self):
        c = Cluster(
            machines=(machine("x", gpus=0),), use_cpus=False
        )
        with pytest.raises(ConfigurationError, match="no processing units"):
            c.devices()

    def test_device_lookup(self):
        c = Cluster(machines=(machine("x"),))
        assert c.device("x.gpu0").is_gpu
        with pytest.raises(ConfigurationError):
            c.device("nope")

    def test_machine_lookup(self):
        c = Cluster(machines=(machine("x"), machine("y")))
        assert c.machine("y").name == "y"
        with pytest.raises(ConfigurationError):
            c.machine("z")

    def test_subset_preserves_order_and_settings(self):
        c = Cluster(
            machines=(machine("x"), machine("y"), machine("z")),
            max_gpus_per_machine=1,
        )
        sub = c.subset(["z", "x"])
        assert [m.name for m in sub.machines] == ["z", "x"]
        assert sub.master == "z"
        assert sub.max_gpus_per_machine == 1

    def test_transfer_model_uses_master(self):
        c = Cluster(machines=(machine("x"), machine("y")))
        tm = c.transfer_model
        assert tm.master_machine == "x"

    def test_len(self):
        assert len(Cluster(machines=(machine("x"), machine("y")))) == 2

    def test_total_peak(self):
        c = Cluster(machines=(machine("x"),))
        expected = sum(d.peak_gflops for d in c.devices())
        assert c.total_peak_gflops == pytest.approx(expected)

    def test_total_peak_adds_left_to_right(self):
    # 1e16 + 1 + 1 left to right is 1e16 on every Python; 3.12's
    # compensated sum() would give 1.0000000000000002e16
        gpu = GPUSpec(
            model="g", cores=1, sms=1, clock_ghz=1.0, mem_bandwidth_gbs=1.0,
            mem_gb=1.0, arch=GPUArch.KEPLER, flops_per_cycle=1.0,
        )
        cpu = CPUSpec(model="c", cores=1, clock_ghz=1e16, flops_per_cycle=1.0)
        c = Cluster(machines=(Machine(name="x", cpu=cpu, gpus=(gpu, gpu)),))
        assert [d.peak_gflops for d in c.devices()] == [1e16, 1.0, 1.0]
        assert c.total_peak_gflops == 1e16

    def test_negative_max_gpus_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(machines=(machine("x"),), max_gpus_per_machine=-1)
