"""Combined failure-injection scenarios: perturbations + failures."""

import pytest

from repro import Greedy, PLBHeC, Runtime
from repro.apps import MatMul
from repro.runtime.faults import DeviceFailure, Perturbation


class TestMixedInjection:
    def test_perturbation_then_failure_same_device(self, small_cluster):
        """A device degrades, then dies; the run still completes."""
        app = MatMul(n=8192)
        rt = Runtime(
            small_cluster,
            app.codelet(),
            seed=4,
            faults=(
                Perturbation(device_id="alpha.gpu0", start_time=0.2, factor=3.0),
                DeviceFailure(device_id="alpha.gpu0", time=0.5),
            ),
        )
        res = rt.run(PLBHeC(num_steps=8), app.total_units, 8)
        assert res.trace.total_units() >= 8192
        assert len(res.trace.failures) == 1

    def test_two_failures(self, small_cluster):
        app = MatMul(n=8192)
        rt = Runtime(
            small_cluster,
            app.codelet(),
            seed=4,
            faults=(
                DeviceFailure(device_id="alpha.gpu0", time=0.2),
                DeviceFailure(device_id="beta.gpu0", time=0.4),
            ),
        )
        res = rt.run(Greedy(), app.total_units, 8)
        assert res.trace.total_units() >= 8192
        assert len(res.trace.failures) == 2

    def test_failure_before_start(self, small_cluster):
        """A device dead from t=0 simply never participates."""
        app = MatMul(n=4096)
        rt = Runtime(
            small_cluster,
            app.codelet(),
            seed=4,
            faults=(DeviceFailure(device_id="beta.gpu0", time=0.0),),
        )
        res = rt.run(Greedy(), app.total_units, 8)
        assert res.trace.total_units() == 4096
        assert res.trace.allocated_units()["beta.gpu0"] == 0

    def test_failure_after_completion_ignored(self, small_cluster):
        """A failure scheduled past the end must not extend the makespan."""
        app = MatMul(n=2048)
        base = Runtime(small_cluster, app.codelet(), seed=4).run(
            Greedy(), app.total_units, 8
        )
        rt = Runtime(
            small_cluster,
            app.codelet(),
            seed=4,
            faults=(
                DeviceFailure(
                    device_id="alpha.gpu0", time=base.makespan * 100
                ),
            ),
        )
        res = rt.run(Greedy(), app.total_units, 8)
        assert res.makespan == pytest.approx(base.makespan, rel=1e-9)

    def test_duplicate_failure_entries_harmless(self, small_cluster):
        app = MatMul(n=4096)
        rt = Runtime(
            small_cluster,
            app.codelet(),
            seed=4,
            faults=(
                DeviceFailure(device_id="beta.cpu", time=0.1),
                DeviceFailure(device_id="beta.cpu", time=0.15),
            ),
        )
        res = rt.run(Greedy(), app.total_units, 8)
        assert res.trace.total_units() >= 4096
        assert len(res.trace.failures) == 1  # second event is a no-op

    def test_failure_plus_rebalancing_interplay(self, small_cluster):
        """PLB-HeC handles a slowdown AND a different device's death."""
        app = MatMul(n=16384)
        rt = Runtime(
            small_cluster,
            app.codelet(),
            seed=4,
            faults=(
                Perturbation(device_id="beta.gpu0", start_time=0.3, factor=2.0),
                DeviceFailure(device_id="alpha.cpu", time=0.6),
            ),
        )
        res = rt.run(PLBHeC(num_steps=8), app.total_units, 16)
        assert res.trace.total_units() >= 16384
        # the dead CPU did no work after its failure
        t_fail = res.trace.failures[0][0]
        for r in res.trace.records_for("alpha.cpu"):
            assert r.start_time <= t_fail
