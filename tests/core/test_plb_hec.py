"""Tests for repro.core.plb_hec — the paper's algorithm."""

import pytest

from repro.apps import MatMul
from repro.balancers import Greedy
from repro.core import PLBHeC
from repro.errors import ConfigurationError
from repro.runtime import Runtime
from repro.runtime.faults import Perturbation


class TestConfigValidation:
    # Ids are pinned so each case keeps its name when cases are dropped.
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"rebalance_threshold": 0.0}, id="kwargs4"),
            pytest.param({"num_steps": 0}, id="kwargs5"),
            pytest.param({"overhead_scale": -1.0}, id="kwargs8"),
            pytest.param({"recency_decay": 0.0}, id="kwargs11"),
        ],
    )
    def test_invalid_kwargs(self, kwargs):
        with pytest.raises(ConfigurationError):
            PLBHeC(**kwargs)


class TestModelingPhase:
    def run(self, cluster, n=4096, **kwargs):
        app = MatMul(n=n)
        policy = PLBHeC(**kwargs)
        rt = Runtime(cluster, app.codelet(), seed=2)
        res = rt.run(policy, app.total_units, app.default_initial_block_size())
        return policy, res

    def test_probe_phase_labelled(self, small_cluster):
        _, res = self.run(small_cluster)
        probe = [r for r in res.trace.records if r.phase == "probe"]
        assert probe, "no probe records"
        assert min(r.start_time for r in probe) == 0.0

    def test_round_one_uniform_initial_size(self, small_cluster):
        _, res = self.run(small_cluster)
        round1 = [r for r in res.trace.records if r.phase == "probe" and r.step == 1]
        s0 = MatMul(n=4096).default_initial_block_size()
        assert {r.units for r in round1} == {s0}
        assert len(round1) == len(small_cluster.devices())

    def test_later_rounds_scaled_by_speed(self, small_cluster):
        _, res = self.run(small_cluster)
        round3 = {
            r.worker_id: r.units
            for r in res.trace.records
            if r.phase == "probe" and r.step == 3
        }
        if round3:  # modeling may end earlier on tiny inputs
            assert round3["alpha.gpu0"] > round3["beta.cpu"]

    def test_at_least_four_rounds(self, small_cluster):
        _, res = self.run(small_cluster, n=16384)
        rounds = {r.step for r in res.trace.records if r.phase == "probe"}
        assert len(rounds) >= 4

    def test_consumption_bounded(self, small_cluster):
        policy, res = self.run(small_cluster, n=16384)
        probe_units = sum(
            r.units for r in res.trace.records if r.phase == "probe"
        )
        # the 20% cap, with one round of slack for the in-flight overshoot
        assert probe_units <= 0.35 * 16384

    def test_models_fitted_for_every_device(self, small_cluster):
        policy, _ = self.run(small_cluster)
        assert set(policy.models) == {
            d.device_id for d in small_cluster.devices()
        }

    def test_probe_barrier_per_round(self, small_cluster):
        _, res = self.run(small_cluster)
        probe = [r for r in res.trace.records if r.phase == "probe"]
        by_round = {}
        for r in probe:
            by_round.setdefault(r.step, []).append(r)
        rounds = sorted(by_round)
        for a, b in zip(rounds, rounds[1:]):
            end_a = max(r.end_time for r in by_round[a])
            start_b = min(r.start_time for r in by_round[b])
            assert start_b >= end_a - 1e-9


class TestSelectionAndExecution:
    def test_completes_domain(self, small_cluster):
        app = MatMul(n=4096)
        rt = Runtime(small_cluster, app.codelet(), seed=2)
        res = rt.run(PLBHeC(), app.total_units, app.default_initial_block_size())
        assert res.trace.total_units() == 4096

    def test_first_partition_recorded(self, small_cluster):
        app = MatMul(n=4096)
        policy = PLBHeC()
        rt = Runtime(small_cluster, app.codelet(), seed=2)
        rt.run(policy, app.total_units, app.default_initial_block_size())
        part = policy.first_partition
        assert part is not None
        assert sum(part.fractions.values()) == pytest.approx(1.0)

    def test_partition_favours_fast_devices(self, small_cluster):
        app = MatMul(n=8192)
        policy = PLBHeC()
        rt = Runtime(small_cluster, app.codelet(), seed=2)
        rt.run(policy, app.total_units, app.default_initial_block_size())
        fr = policy.first_partition.fractions
        assert fr["alpha.gpu0"] > fr["beta.cpu"]

    def test_overhead_charged_by_default(self, small_cluster):
        app = MatMul(n=4096)
        rt = Runtime(small_cluster, app.codelet(), seed=2)
        res = rt.run(PLBHeC(), app.total_units, app.default_initial_block_size())
        assert res.solver_overhead_s > 0.0

    def test_overhead_scale_zero_disables_charging(self, small_cluster):
        app = MatMul(n=4096)
        rt = Runtime(small_cluster, app.codelet(), seed=2)
        res = rt.run(
            PLBHeC(overhead_scale=0.0),
            app.total_units,
            app.default_initial_block_size(),
        )
        assert res.solver_overhead_s == 0.0

    def test_beats_greedy_on_large_heterogeneous_input(self, small_cluster):
        app = MatMul(n=16384)
        plb = Runtime(small_cluster, app.codelet(), seed=2).run(
            PLBHeC(), app.total_units, app.default_initial_block_size()
        )
        greedy = Runtime(small_cluster, app.codelet(), seed=2).run(
            Greedy(), app.total_units, app.default_initial_block_size()
        )
        assert plb.makespan < greedy.makespan

    def test_steady_state_no_rebalance(self, small_cluster):
        """Paper: 'this rebalancing was not executed' in steady conditions."""
        app = MatMul(n=16384)
        rt = Runtime(small_cluster, app.codelet(), seed=2, noise_sigma=0.002)
        res = rt.run(PLBHeC(), app.total_units, app.default_initial_block_size())
        assert res.num_rebalances == 0

    def test_calibration_gauges_follow_each_run(self, small_cluster):
        from repro.obs.metrics import MetricsRegistry, set_registry

        app = MatMul(n=4096)
        policy = PLBHeC()
        for seed in (2, 3):
            registry = MetricsRegistry()
            previous = set_registry(registry)
            try:
                Runtime(small_cluster, app.codelet(), seed=seed).run(
                    policy, app.total_units, app.default_initial_block_size()
                )
            finally:
                set_registry(previous)
            # the policy is reused: its second run writes the registry
            # current at that run, not the first run's
            gauges = registry.snapshot()["gauges"]
            for device in (d.device_id for d in small_cluster.devices()):
                cal = policy.ledger.device_calibration(device)
                for stat in ("mape", "bias", "drift"):
                    key = f"plbhec.calibration.{stat}{{device={device}}}"
                    assert gauges[key] == getattr(cal, stat)


class TestRebalancing:
    def test_perturbation_triggers_rebalance(self, small_cluster):
        app = MatMul(n=16384)
        perturbation = Perturbation(
            device_id="alpha.gpu0", start_time=1.0, factor=5.0
        )
        policy = PLBHeC(num_steps=10)
        rt = Runtime(
            small_cluster, app.codelet(), seed=2, faults=(perturbation,)
        )
        res = rt.run(policy, app.total_units, app.default_initial_block_size())
        assert res.num_rebalances >= 1
        assert res.trace.total_units() == 16384

    def test_rebalance_shrinks_slowed_device_blocks(self, small_cluster):
        app = MatMul(n=16384)
        perturbation = Perturbation(
            device_id="alpha.gpu0", start_time=1.0, factor=5.0
        )
        policy = PLBHeC(num_steps=10)
        rt = Runtime(
            small_cluster, app.codelet(), seed=2, faults=(perturbation,)
        )
        rt.run(policy, app.total_units, app.default_initial_block_size())
        history = policy.selection_history
        assert len(history) >= 2
        first = history[0].units_by_device["alpha.gpu0"]
        last = history[-1].units_by_device["alpha.gpu0"]
        assert last < first

    def test_threshold_inf_never_rebalances(self, small_cluster):
        app = MatMul(n=16384)
        perturbation = Perturbation(
            device_id="alpha.gpu0", start_time=1.0, factor=5.0
        )
        rt = Runtime(
            small_cluster, app.codelet(), seed=2, faults=(perturbation,)
        )
        res = rt.run(
            PLBHeC(rebalance_threshold=1e12),
            app.total_units,
            app.default_initial_block_size(),
        )
        assert res.num_rebalances == 0


class TestWarmStart:
    def test_second_phase_skips_probing(self, small_cluster):
        app = MatMul(n=8192)
        policy = PLBHeC(warm_start=True)
        first = Runtime(small_cluster, app.codelet(), seed=2).run(
            policy, app.total_units, app.default_initial_block_size()
        )
        second = Runtime(small_cluster, app.codelet(), seed=3).run(
            policy, app.total_units, app.default_initial_block_size()
        )
        probe_first = sum(
            r.units for r in first.trace.records if r.phase == "probe"
        )
        probe_second = sum(
            r.units for r in second.trace.records if r.phase == "probe"
        )
        assert probe_first > 0
        assert probe_second == 0

    def test_warm_phase_faster(self, small_cluster):
        app = MatMul(n=8192)
        policy = PLBHeC(warm_start=True)
        first = Runtime(small_cluster, app.codelet(), seed=2).run(
            policy, app.total_units, app.default_initial_block_size()
        )
        second = Runtime(small_cluster, app.codelet(), seed=3).run(
            policy, app.total_units, app.default_initial_block_size()
        )
        assert second.makespan < first.makespan

    def test_cold_policy_reprobes(self, small_cluster):
        app = MatMul(n=8192)
        policy = PLBHeC()  # warm_start off
        Runtime(small_cluster, app.codelet(), seed=2).run(
            policy, app.total_units, app.default_initial_block_size()
        )
        second = Runtime(small_cluster, app.codelet(), seed=3).run(
            policy, app.total_units, app.default_initial_block_size()
        )
        probe_second = sum(
            r.units for r in second.trace.records if r.phase == "probe"
        )
        assert probe_second > 0

    def test_device_set_change_falls_back_to_probing(self, small_cluster, paper4):
        app = MatMul(n=8192)
        policy = PLBHeC(warm_start=True)
        Runtime(small_cluster, app.codelet(), seed=2).run(
            policy, app.total_units, app.default_initial_block_size()
        )
        # different cluster -> profiles don't match -> full modeling phase
        second = Runtime(paper4, app.codelet(), seed=3).run(
            policy, app.total_units, app.default_initial_block_size()
        )
        probe_second = sum(
            r.units for r in second.trace.records if r.phase == "probe"
        )
        assert probe_second > 0

    def test_warm_result_correct(self, small_cluster):
        app = MatMul(n=4096)
        policy = PLBHeC(warm_start=True)
        for seed in (2, 3):
            res = Runtime(small_cluster, app.codelet(), seed=seed).run(
                policy, app.total_units, app.default_initial_block_size()
            )
            assert res.trace.total_units() == 4096


class TestTinyInputs:
    def test_domain_smaller_than_probes(self, small_cluster):
        app = MatMul(n=64)
        rt = Runtime(small_cluster, app.codelet(), seed=2)
        res = rt.run(PLBHeC(), app.total_units, 32)
        assert res.trace.total_units() == 64

    def test_single_unit_domain(self, small_cluster):
        app = MatMul(n=1)
        rt = Runtime(small_cluster, app.codelet(), seed=2)
        res = rt.run(PLBHeC(), app.total_units, 1)
        assert res.trace.total_units() == 1
