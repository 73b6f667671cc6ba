"""Tests for repro.cluster.machine."""

import pytest

from repro.cluster.device import CPUSpec, DeviceKind, GPUArch, GPUSpec
from repro.cluster.machine import Machine
from repro.errors import ConfigurationError


def make_machine(name="m", num_gpus=2):
    gpu = GPUSpec(
        model="g", cores=512, sms=8, clock_ghz=1.0,
        mem_bandwidth_gbs=100.0, mem_gb=2.0, arch=GPUArch.KEPLER,
    )
    return Machine(
        name=name,
        cpu=CPUSpec(model="c", cores=4, clock_ghz=2.0),
        gpus=(gpu,) * num_gpus,
    )


class TestMachine:
    def test_devices_cpu_plus_gpus(self):
        devices = make_machine().devices()
        assert [d.device_id for d in devices] == ["m.cpu", "m.gpu0", "m.gpu1"]
        assert devices[0].kind is DeviceKind.CPU
        assert all(d.machine_name == "m" for d in devices)

    def test_devices_without_cpu(self):
        devices = make_machine().devices(use_cpu=False)
        assert all(d.is_gpu for d in devices)
        assert len(devices) == 2

    def test_max_gpus(self):
        devices = make_machine().devices(max_gpus=1)
        assert [d.device_id for d in devices] == ["m.cpu", "m.gpu0"]

    def test_max_gpus_zero(self):
        devices = make_machine().devices(max_gpus=0)
        assert [d.device_id for d in devices] == ["m.cpu"]

    def test_no_gpus(self):
        m = make_machine(num_gpus=0)
        assert len(m.devices()) == 1

    def test_name_with_dot_rejected(self):
        with pytest.raises(ConfigurationError):
            make_machine(name="a.b")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_machine(name="")

    def test_bad_cpu_type(self):
        with pytest.raises(ConfigurationError):
            Machine(name="m", cpu="not-a-cpu")  # type: ignore[arg-type]

    def test_bad_gpu_type(self):
        with pytest.raises(ConfigurationError):
            Machine(
                name="m",
                cpu=CPUSpec(model="c", cores=1, clock_ghz=1.0),
                gpus=("nope",),  # type: ignore[arg-type]
            )

    def test_total_peak(self):
        m = make_machine()
        expected = m.cpu.peak_gflops + 2 * m.gpus[0].peak_gflops
        assert m.total_peak_gflops == pytest.approx(expected)

    def test_total_peak_adds_the_gpus_left_to_right(self):
        # the GPUs 1e16, 1, 1 total 1e16 left to right on every Python
        # (3.12's compensated sum() would give 1.0000000000000002e16),
        # then the CPU's 1.0 is added to that total
        def gpu(clock_ghz):
            return GPUSpec(
                model="g", cores=1, sms=1, clock_ghz=clock_ghz,
                mem_bandwidth_gbs=1.0, mem_gb=1.0, arch=GPUArch.KEPLER,
                flops_per_cycle=1.0,
            )

        cpu = CPUSpec(model="c", cores=1, clock_ghz=1.0, flops_per_cycle=1.0)
        m = Machine(name="m", cpu=cpu, gpus=(gpu(1e16), gpu(1.0), gpu(1.0)))
        assert m.total_peak_gflops == 1.0 + 1e16

    def test_gpus_normalised_to_tuple(self):
        gpu = GPUSpec(
            model="g", cores=64, sms=2, clock_ghz=1.0,
            mem_bandwidth_gbs=10.0, mem_gb=1.0, arch=GPUArch.TESLA,
        )
        m = Machine(
            name="m",
            cpu=CPUSpec(model="c", cores=1, clock_ghz=1.0),
            gpus=[gpu],  # type: ignore[arg-type]
        )
        assert isinstance(m.gpus, tuple)
