"""Fault serialisation, schedule generation, and transfer-fault runtime."""

import numpy as np
import pytest

from repro import Greedy, Runtime
from repro.apps import MatMul
from repro.errors import ConfigurationError
from repro.resilience.faults import (
    fault_from_dict,
    fault_to_dict,
    generate_schedule,
)
from repro.runtime.faults import (
    DeviceFailure,
    Perturbation,
    TransferFault,
    TransientFailure,
)

ALL_KINDS = [
    DeviceFailure("d0", 1.0),
    Perturbation("d1", 0.5, 2.0),
    TransientFailure("d0", 0.2, 0.1),
    TransferFault("d1", 0.3, 0.05, max_retries=2, backoff_factor=0.5),
]


class TestSerialisation:
    @pytest.mark.parametrize("fault", ALL_KINDS, ids=lambda f: type(f).__name__)
    def test_roundtrip(self, fault):
        assert fault_from_dict(fault_to_dict(fault)) == fault

    def test_transfer_defaults_fill_in(self):
        restored = fault_from_dict(
            {"type": "transfer", "device_id": "d0", "time": 0.1,
             "duration": 0.05}
        )
        assert restored == TransferFault("d0", 0.1, 0.05)

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault type"):
            fault_from_dict({"type": "meteor", "device_id": "d0"})

    def test_unknown_object_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault object"):
            fault_to_dict(object())


class TestGenerateSchedule:
    DEVICES = ("a.cpu", "a.gpu0", "b.cpu", "b.gpu0")

    def test_deterministic_for_equal_seeds(self):
        one = generate_schedule(
            np.random.default_rng(7), self.DEVICES, 2.0, max_faults=3
        )
        two = generate_schedule(
            np.random.default_rng(7), self.DEVICES, 2.0, max_faults=3
        )
        assert one == two

    def test_respects_max_faults(self):
        for seed in range(20):
            schedule = generate_schedule(
                np.random.default_rng(seed), self.DEVICES, 1.0, max_faults=2
            )
            assert 1 <= len(schedule) <= 2

    def test_never_kills_every_device(self):
        for seed in range(50):
            schedule = generate_schedule(
                np.random.default_rng(seed), self.DEVICES, 1.0, max_faults=6
            )
            lethal = {
                f.device_id
                for f in schedule
                if isinstance(f, (DeviceFailure, TransferFault))
            }
            assert len(lethal) < len(self.DEVICES)

    def test_times_land_in_horizon_window(self):
        horizon = 4.0
        for seed in range(20):
            for fault in generate_schedule(
                np.random.default_rng(seed), self.DEVICES, horizon,
                max_faults=3,
            ):
                t = (
                    fault.start_time
                    if isinstance(fault, Perturbation)
                    else fault.time
                )
                assert 0.15 * horizon <= t <= 0.8 * horizon

    def test_single_device_cluster_gets_no_lethal_faults(self):
        for seed in range(20):
            schedule = generate_schedule(
                np.random.default_rng(seed), ("solo",), 1.0, max_faults=4
            )
            assert not any(
                isinstance(f, (DeviceFailure, TransferFault))
                for f in schedule
            )

    def test_bad_arguments_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="at least one device"):
            generate_schedule(rng, (), 1.0)
        with pytest.raises(ConfigurationError, match="horizon"):
            generate_schedule(rng, self.DEVICES, 0.0)
        with pytest.raises(ConfigurationError, match="max_faults"):
            generate_schedule(rng, self.DEVICES, 1.0, max_faults=0)


class TestTransferFaultRuntime:
    def _baseline(self, small_cluster, app):
        return Runtime(small_cluster, app.codelet(), seed=5).run(
            Greedy(), app.total_units, app.default_initial_block_size()
        )

    def _victim(self, base):
        """A mid-run alpha.gpu0 dispatch of the fault-free execution."""
        candidates = [
            r
            for r in base.trace.records
            if r.worker_id == "alpha.gpu0"
            and r.dispatch_time > base.makespan * 0.3
            and r.transfer_time > 0.0
        ]
        assert candidates, "scenario must have a mid-run GPU transfer"
        return min(candidates, key=lambda r: r.dispatch_time)

    def test_retry_succeeds_and_is_charged(self, small_cluster):
        app = MatMul(n=8192)
        base = self._baseline(small_cluster, app)
        victim = self._victim(base)
        # a window the first backoff step escapes: one failed attempt
        fault = TransferFault(
            "alpha.gpu0",
            victim.dispatch_time - 1e-9,
            victim.transfer_time * 2.0,
        )
        res = Runtime(
            small_cluster, app.codelet(), seed=5, faults=(fault,)
        ).run(Greedy(), app.total_units, app.default_initial_block_size())
        retried = [r for r in res.trace.records if r.retries > 0]
        assert retried, "the in-window transfer must have retried"
        for r in retried:
            assert r.retry_time > 0.0
            # the stall is part of the busy interval
            assert (
                r.end_time - r.start_time
                >= r.retry_time + r.transfer_time + r.exec_time - 1e-9
            )
        assert res.trace.total_units() >= app.total_units
        assert not res.trace.failures

    def test_give_up_fails_the_device(self, small_cluster):
        app = MatMul(n=8192)
        base = self._baseline(small_cluster, app)
        victim = self._victim(base)
        # a window no retry budget escapes: give up, mark the device down
        fault = TransferFault(
            "alpha.gpu0",
            victim.dispatch_time - 1e-9,
            base.makespan * 10.0,
            max_retries=1,
        )
        res = Runtime(
            small_cluster, app.codelet(), seed=5, faults=(fault,)
        ).run(Greedy(), app.total_units, app.default_initial_block_size())
        assert "alpha.gpu0" in {d for _, d in res.trace.failures}
        assert any(d == "alpha.gpu0" for _, d, _, _ in res.trace.lost_blocks)
        assert res.trace.total_units() >= app.total_units

    def test_fault_free_runs_unaffected_by_code_path(self, small_cluster):
        """No-fault runs stay byte-identical to the plain executor."""
        app = MatMul(n=4096)
        plain = self._baseline(small_cluster, MatMul(n=4096))
        wired = Runtime(
            small_cluster, app.codelet(), seed=5, faults=()
        ).run(Greedy(), app.total_units, app.default_initial_block_size())
        assert plain.trace.to_dict() == wired.trace.to_dict()


class TestTransferJitter:
    """Seeded jitter on transfer-retry backoff (de-synchronised storms)."""

    def _run(self, small_cluster, app, fault):
        return Runtime(
            small_cluster, app.codelet(), seed=5, faults=(fault,)
        ).run(Greedy(), app.total_units, app.default_initial_block_size())

    def _window(self, small_cluster, app):
        base = Runtime(small_cluster, app.codelet(), seed=5).run(
            Greedy(), app.total_units, app.default_initial_block_size()
        )
        candidates = [
            r
            for r in base.trace.records
            if r.worker_id == "alpha.gpu0"
            and r.dispatch_time > base.makespan * 0.3
            and r.transfer_time > 0.0
        ]
        assert candidates, "scenario must have a mid-run GPU transfer"
        victim = min(candidates, key=lambda r: r.dispatch_time)
        return victim.dispatch_time - 1e-9, victim.transfer_time * 2.0

    def test_roundtrip_preserves_jitter(self):
        fault = TransferFault("d1", 0.3, 0.05, jitter=0.25)
        assert fault_from_dict(fault_to_dict(fault)) == fault

    def test_legacy_dicts_default_to_zero_jitter(self):
        restored = fault_from_dict(
            {"type": "transfer", "device_id": "d0", "time": 0.1,
             "duration": 0.05}
        )
        assert restored.jitter == 0.0

    def test_jitter_validation(self):
        with pytest.raises(ConfigurationError):
            TransferFault("d0", 0.1, 0.05, jitter=-0.1)
        with pytest.raises(ConfigurationError):
            TransferFault("d0", 0.1, 0.05, jitter=1.0)

    def test_zero_jitter_is_deterministic(self, small_cluster):
        app = MatMul(n=8192)
        when, width = self._window(small_cluster, app)
        fault = TransferFault("alpha.gpu0", when, width, jitter=0.0)
        one = self._run(small_cluster, app, fault)
        two = self._run(small_cluster, app, fault)
        assert one.trace.to_dict() == two.trace.to_dict()
        assert any(r.retries > 0 for r in one.trace.records)

    def test_jitter_spreads_within_bounds(self, small_cluster):
        """Jittered stalls deviate from unjittered ones, but never by
        more than the jitter fraction of the stall itself (only the
        backoff term is jittered; the timeout term never is)."""
        app = MatMul(n=8192)
        when, width = self._window(small_cluster, app)
        plain = self._run(
            small_cluster, app,
            TransferFault("alpha.gpu0", when, width, jitter=0.0),
        )
        jit = 0.4
        shaken = self._run(
            small_cluster, app,
            TransferFault("alpha.gpu0", when, width, jitter=jit),
        )
        base_stall = sum(
            r.retry_time for r in plain.trace.records if r.retries > 0
        )
        shaken_stall = sum(
            r.retry_time for r in shaken.trace.records if r.retries > 0
        )
        assert base_stall > 0.0 and shaken_stall > 0.0
        assert shaken_stall != base_stall, "jitter never engaged"
        assert abs(shaken_stall - base_stall) <= jit * base_stall + 1e-12

    def test_jitter_is_seeded(self, small_cluster):
        app = MatMul(n=8192)
        when, width = self._window(small_cluster, app)
        fault = TransferFault("alpha.gpu0", when, width, jitter=0.4)
        one = self._run(small_cluster, app, fault)
        two = self._run(small_cluster, app, fault)
        assert one.trace.to_dict() == two.trace.to_dict()
