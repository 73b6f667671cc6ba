"""The chaos campaign runner: scorecard shape, determinism, validation."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.resilience import ChaosConfig, run_campaign
from repro.resilience.campaign import mean

#: Small but real: 4 runs over 2 policies at the 1024 scenario.  The
#: wide anomaly tolerance absorbs a known legitimate Graham anomaly
#: (losing the big GPU mid-probe can *help* this small run).
SMALL = ChaosConfig(
    apps=("matmul",),
    sizes=(1024,),
    policies=("plb-hec", "greedy"),
    runs=4,
    seed=0,
    anomaly_tolerance=0.5,
)


@pytest.fixture(scope="module")
def scorecard():
    return run_campaign(SMALL, jobs=2)


class TestScorecardShape:
    def test_all_runs_survive_and_invariants_hold(self, scorecard):
        assert scorecard["total_runs"] == 4
        assert scorecard["survived_runs"] == 4
        assert scorecard["total_violations"] == 0
        assert scorecard["all_invariants_ok"] is True

    def test_every_run_has_a_fault_schedule(self, scorecard):
        for run in scorecard["runs"]:
            assert run["faults"], "chaos runs must actually inject faults"
            for fault in run["faults"]:
                assert fault["type"] in (
                    "failure", "transient", "perturbation", "transfer",
                )

    def test_runs_carry_degradation_vs_baseline(self, scorecard):
        for run in scorecard["runs"]:
            assert run["baseline_makespan"] > 0
            assert run["degradation"] == pytest.approx(
                run["makespan"] / run["baseline_makespan"]
            )

    def test_policies_aggregate_their_runs(self, scorecard):
        per_policy = scorecard["policies"]
        assert set(per_policy) == {"plb-hec", "greedy"}
        for agg in per_policy.values():
            assert agg["runs"] == 2
            assert agg["survived"] == 2
            assert agg["survival_rate"] == 1.0
            assert agg["mean_degradation"] is not None

    def test_round_robin_policy_assignment(self, scorecard):
        assert [r["policy"] for r in scorecard["runs"]] == [
            "plb-hec", "greedy", "plb-hec", "greedy",
        ]

    def test_scorecard_is_json_serialisable(self, scorecard):
        assert json.loads(json.dumps(scorecard)) == json.loads(
            json.dumps(scorecard)
        )


class TestDeterminism:
    def test_same_seed_is_bit_identical(self, scorecard):
        again = run_campaign(SMALL, jobs=2)
        assert json.dumps(again, sort_keys=True) == json.dumps(
            scorecard, sort_keys=True
        )

    def test_different_seed_differs(self, scorecard):
        other = run_campaign(
            ChaosConfig(
                apps=SMALL.apps,
                sizes=SMALL.sizes,
                policies=SMALL.policies,
                runs=SMALL.runs,
                seed=1,
                anomaly_tolerance=SMALL.anomaly_tolerance,
            ),
            jobs=2,
        )
        assert [r["faults"] for r in other["runs"]] != [
            r["faults"] for r in scorecard["runs"]
        ]


class TestRecoveringDevices:
    def test_default_grid_survives_hdss_recoveries(self):
        """Seed 1's default grid hands HDSS recovered devices; every
        HDSS run must survive instead of aborting the campaign."""
        card = run_campaign(ChaosConfig(runs=16, seed=1), jobs=1)
        assert card["total_runs"] == 16
        hdss = card["policies"]["hdss"]
        assert hdss["survived"] == hdss["runs"] == 4
        assert any(
            f["type"] == "transient"
            for r in card["runs"]
            if r["policy"] == "hdss"
            for f in r["faults"]
        )


class TestConfigValidation:
    def test_apps_sizes_must_pair(self):
        with pytest.raises(ConfigurationError, match="pair up"):
            ChaosConfig(apps=("matmul", "grn"), sizes=(1024,))

    def test_runs_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="runs"):
            ChaosConfig(runs=0)

    def test_empty_policies_rejected(self):
        with pytest.raises(ConfigurationError, match="policies"):
            ChaosConfig(policies=())

    def test_config_roundtrips_to_dict(self):
        d = SMALL.to_dict()
        assert d["seed"] == 0 and d["policies"] == ["plb-hec", "greedy"]


class TestDecisionColumns:
    """Schema v4 scorecards surface the decision ledger per run/policy."""

    def test_runs_carry_decision_counts(self, scorecard):
        for run in scorecard["runs"]:
            assert "decisions" in run
            assert "fallback_stages" in run
            if run["policy"] == "plb-hec" and run["survived"]:
                assert run["decisions"] > 0
            if run["policy"] == "greedy":
                # greedy keeps no ledger: zero decisions, no stages
                assert run["decisions"] == 0
                assert run["fallback_stages"] == {}

    def test_policies_aggregate_decisions_explained(self, scorecard):
        per_policy = scorecard["policies"]
        for policy, agg in per_policy.items():
            assert agg["decisions_explained"] == sum(
                r["decisions"]
                for r in scorecard["runs"]
                if r["policy"] == policy
            )
            assert isinstance(agg["fallback_stages_used"], dict)
        assert per_policy["plb-hec"]["decisions_explained"] > 0
        assert per_policy["greedy"]["decisions_explained"] == 0

    def test_fallback_stage_counts_are_ints(self, scorecard):
        for run in scorecard["runs"]:
            for stage, count in run["fallback_stages"].items():
                assert isinstance(stage, str)
                assert isinstance(count, int) and count >= 1


class TestAttributionColumns:
    """Chaos runs carry the critical-path attribution, satellite of the
    makespan-attribution work: degradation decomposes into categories."""

    def test_runs_carry_attribution_shares(self, scorecard):
        from repro.obs.critpath import CATEGORIES

        for run in scorecard["runs"]:
            if not run["survived"]:
                continue
            attribution = run["attribution"]
            assert set(attribution) <= set(CATEGORIES)
            assert attribution, "survived runs must be attributed"
            for share in attribution.values():
                assert 0.0 <= share <= 1.0
            assert abs(sum(attribution.values()) - 1.0) < 1e-9

    def test_policies_aggregate_mean_attribution(self, scorecard):
        for agg in scorecard["policies"].values():
            if not agg["survived"]:
                continue
            mean_attribution = agg["mean_attribution"]
            assert mean_attribution
            for share in mean_attribution.values():
                assert 0.0 <= share <= 1.0
            assert abs(sum(mean_attribution.values()) - 1.0) < 1e-6

    def test_attribution_survives_json(self, scorecard):
        rebuilt = json.loads(json.dumps(scorecard))
        first = rebuilt["runs"][0]["attribution"]
        assert first == scorecard["runs"][0]["attribution"]


def test_campaign_mean_adds_left_to_right():
    # 1e16 + 1 + 1 left to right is 1e16 on every Python; 3.12's
    # compensated sum() would give 1.0000000000000002e16
    assert mean([1e16, 1.0, 1.0]) == 1e16 / 3
    assert mean([]) is None
