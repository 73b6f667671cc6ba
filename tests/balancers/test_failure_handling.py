"""Unit tests for policy-level device-failure handling.

The integration suite exercises failures end-to-end; these tests verify
the per-policy bookkeeping directly — barriers must close, shares must
renormalise, dead devices must never be assigned again.
"""

import pytest

from repro import Acosta, Greedy, HDSS, PLBHeC, Runtime
from repro.apps import MatMul
from repro.runtime.faults import DeviceFailure


def run_with(policy, small_cluster, *, fail, at, n=8192, seed=5):
    app = MatMul(n=n)
    rt = Runtime(
        small_cluster,
        app.codelet(),
        seed=seed,
        faults=(DeviceFailure(device_id=fail, time=at),),
    )
    return rt.run(policy, app.total_units, app.default_initial_block_size())


class TestHDSSFailure:
    def test_probe_barrier_closes_without_dead_device(self, small_cluster):
        """Uniform-round HDSS must not wait for a device that died mid-probe."""
        policy = HDSS()
        res = run_with(policy, small_cluster, fail="beta.cpu", at=0.05)
        assert res.trace.total_units() >= 8192
        assert "beta.cpu" not in policy._ids

    def test_weights_exclude_dead_device(self, small_cluster):
        policy = HDSS()
        run_with(policy, small_cluster, fail="beta.cpu", at=0.05)
        assert "beta.cpu" not in policy.weights

    def test_completion_phase_failure(self, small_cluster):
        policy = HDSS()
        res = run_with(policy, small_cluster, fail="alpha.gpu0", at=0.6)
        assert res.trace.total_units() >= 8192


class TestAcostaFailure:
    def test_step_barrier_closes(self, small_cluster):
        policy = Acosta()
        res = run_with(policy, small_cluster, fail="beta.gpu0", at=0.1)
        assert res.trace.total_units() >= 8192

    def test_shares_renormalised(self, small_cluster):
        policy = Acosta()
        run_with(policy, small_cluster, fail="beta.gpu0", at=0.1)
        assert "beta.gpu0" not in policy._shares
        assert sum(policy._shares.values()) == pytest.approx(1.0)


class TestPLBFailure:
    def test_probe_round_advances_past_dead_device(self, small_cluster):
        policy = PLBHeC()
        res = run_with(policy, small_cluster, fail="beta.cpu", at=0.05)
        assert res.trace.total_units() >= 8192
        assert "beta.cpu" not in policy._ids
        assert "beta.cpu" not in policy.models

    def test_in_flight_accounting_released(self, small_cluster):
        policy = PLBHeC()
        run_with(policy, small_cluster, fail="alpha.cpu", at=0.1)
        # every dispatched block was either completed or released
        assert policy._in_flight == 0

    def test_partition_excludes_dead_device(self, small_cluster):
        policy = PLBHeC(num_steps=8)
        res = run_with(policy, small_cluster, fail="alpha.gpu0", at=0.5, n=16384)
        last = policy.selection_history[-1]
        assert last.units_by_device.get("alpha.gpu0", 0.0) == 0.0


class TestGreedyFailure:
    def test_stateless_policy_unaffected(self, small_cluster):
        res = run_with(Greedy(), small_cluster, fail="alpha.gpu0", at=0.1)
        assert res.trace.total_units() >= 8192
