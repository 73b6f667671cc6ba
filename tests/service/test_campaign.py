"""Serve chaos campaign: baselines, faulted episodes, scoring."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.resilience import run_campaign
from repro.service.campaign import ServeChaosConfig

QUICK = dict(
    policies=("plb-hec", "fair"),
    runs=2,
    rate=3.0,
    duration=6.0,
    max_faults=1,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServeChaosConfig(policies=())
        with pytest.raises(ConfigurationError):
            ServeChaosConfig(policies=("astrology",))
        with pytest.raises(ConfigurationError):
            ServeChaosConfig(runs=0)

    def test_service_config_carries_the_knobs(self):
        config = ServeChaosConfig(**QUICK, seed=1)
        sc = config.service_config("fair")
        assert sc.policy == "fair"
        assert sc.arrivals.rate == 3.0
        assert sc.queue_limit == config.queue_limit


class TestCampaign:
    def test_quick_campaign_survives_with_invariants(self):
        scorecard = run_campaign(
            ServeChaosConfig(**QUICK, seed=0), jobs=1
        )
        assert scorecard["total_runs"] == 2
        assert scorecard["survived_runs"] == 2
        assert scorecard["all_invariants_ok"]
        for record in scorecard["runs"]:
            assert record["faults"], "chaos phase must inject faults"
            assert record["baseline_goodput"] > 0
            assert record["violations"] == []
        for agg in scorecard["policies"].values():
            assert agg["survival_rate"] == 1.0

    def test_campaign_is_deterministic(self):
        one = run_campaign(ServeChaosConfig(**QUICK, seed=7), jobs=1)
        two = run_campaign(ServeChaosConfig(**QUICK, seed=7), jobs=1)
        assert (json.dumps(one, sort_keys=True)
                == json.dumps(two, sort_keys=True))
