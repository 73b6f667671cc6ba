"""Tests for repro.experiments.runner."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    PolicyOutcome,
    make_application,
    make_policy,
    run_policies,
)


class TestFactories:
    def test_make_application(self):
        assert make_application("matmul", 128).name == "matmul"
        assert make_application("blackscholes", 100).name == "blackscholes"
        assert make_application("grn", 50).name == "grn"
        with pytest.raises(ConfigurationError):
            make_application("nbody", 10)

    @pytest.mark.parametrize(
        "name", ["greedy", "acosta", "hdss", "hdss-async", "plb-hec", "plb-hec-free"]
    )
    def test_make_policy(self, name):
        policy = make_policy(name)
        assert policy is not None

    def test_oracle_needs_ground_truth(self):
        with pytest.raises(ConfigurationError):
            make_policy("oracle")

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            make_policy("magic")


class TestPolicyOutcome:
    def test_aggregation(self):
        o = PolicyOutcome(policy="p")
        o.makespans = [1.0, 3.0]
        o.idle_fractions = [{"a": 0.2}, {"a": 0.4}]
        o.distributions = [{"a": 1.0}, {"a": 1.0}]
        assert o.mean_makespan == 2.0
        assert o.mean_idle() == {"a": pytest.approx(0.3)}
        assert o.mean_distribution() == {"a": 1.0}

    def test_empty(self):
        o = PolicyOutcome(policy="p")
        assert o.mean_idle() == {}
        assert o.mean_distribution() == {}

    def test_means_add_left_to_right(self):
    # 1e16 + 1 + 1 left to right is 1e16 on every Python; 3.12's
    # compensated sum() would give 1.0000000000000002e16
        o = PolicyOutcome(policy="p")
        o.idle_fractions = [{"a": 1e16}, {"a": 1.0}, {"a": 1.0}]
        o.distributions = o.idle_fractions
        assert o.mean_idle() == {"a": 1e16 / 3}
        assert o.mean_distribution() == {"a": 1e16 / 3}


class TestRunPolicies:
    def test_grid_point(self):
        point = run_policies(
            "matmul", 2048, 2, policies=("greedy", "plb-hec"), replications=2
        )
        assert set(point.outcomes) == {"greedy", "plb-hec"}
        for outcome in point.outcomes.values():
            assert len(outcome.makespans) == 2
            assert all(m > 0 for m in outcome.makespans)

    def test_speedup_vs(self):
        point = run_policies(
            "matmul", 2048, 2, policies=("greedy", "plb-hec"), replications=1
        )
        s = point.speedup_vs("greedy", "plb-hec")
        assert s > 0

    def test_replication_validation(self):
        with pytest.raises(ConfigurationError):
            run_policies("matmul", 128, 1, replications=0)

    def test_replications_have_different_noise(self):
        point = run_policies(
            "matmul", 2048, 2, policies=("greedy",), replications=2,
            noise_sigma=0.05,
        )
        makespans = point.outcomes["greedy"].makespans
        assert makespans[0] != makespans[1]
