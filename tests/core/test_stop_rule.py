"""PLB-HeC's probe-round stop rule fits only a round that can end profiling.

From round 4 on, every closed probe round evaluates Algorithm 1's stop
rule.  ``PLBHeC`` checks its fit-independent conditions first (the depth
rule, the 20 % data cap, ``max_probe_rounds``) and fits the round's
profiles only when one of them lets the round end profiling.
``FitEveryRound`` keeps the fit-first order: it fits every live device at
every evaluation and then checks.  With the scheduler charge pinned, the
two must make the same decisions and the same runs.
"""

from collections import Counter

import pytest

from repro.cluster import paper_cluster
from repro.core import PLBHeC
from repro.experiments.runner import make_application
from repro.modeling.perf_profile import PerfProfile
from repro.obs.metrics import get_registry
from repro.runtime import Runtime
from repro.runtime.faults import DeviceFailure, TransientFailure

#: perfbench's pinned scheduler charge
PINNED_S = 0.018

#: perfbench's batch grid: each app at its smallest and largest size
GRID = [
    (app, size, machines)
    for app, sizes in (
        ("matmul", (4096, 65536)),
        ("grn", (60_000, 140_000)),
        ("blackscholes", (10_000, 500_000)),
    )
    for size in sizes
    for machines in (1, 2, 3, 4)
]


class FitEveryRound(PLBHeC):
    """The stop rule in fit-first order: fit every device, then check."""

    def _stop_rule(self, remaining):
        fits_ok, models = self._try_fit()
        at_limit = (
            self._consumed / self.ctx.total_units >= self.max_profile_fraction
            or self._round >= self.max_probe_rounds
        )
        if (fits_ok and self._deep_enough(remaining)) or at_limit:
            return models
        return None


class FitSpy:
    """``PerfProfile.fit`` calls, by the watched policy's (phase, round)."""

    def __init__(self):
        self.policy = None
        self.calls = Counter()

    def modeling_rounds(self):
        """The probe rounds whose close fitted at least one profile."""
        return sorted(r for phase, r in self.calls if phase == "modeling")


@pytest.fixture
def fit_spy(monkeypatch):
    spy = FitSpy()
    fit = PerfProfile.fit

    def counted(profile, *args, **kwargs):
        spy.calls[spy.policy._phase, spy.policy._round] += 1
        return fit(profile, *args, **kwargs)

    monkeypatch.setattr(PerfProfile, "fit", counted)
    return spy


class Run:
    """One pinned run's outputs and the registry's delta over it."""

    def __init__(self, policy, app_name, size, machines, *, faults=(), seed=1):
        app = make_application(app_name, size)
        registry = get_registry()
        mark = registry.mark()
        runtime = Runtime(
            paper_cluster(machines), app.codelet(), seed=seed, faults=faults
        )
        self.result = runtime.run(
            policy, app.total_units, app.default_initial_block_size()
        )
        delta = registry.delta_since(mark)
        self.counters = delta["counters"]
        self.r2 = {
            k: v for k, v in delta["gauges"].items() if k.startswith("plbhec.r2")
        }
        trace = self.result.trace
        summary = policy.ledger.summary()
        summary.pop("run_id")
        self.outputs = (
            self.result.makespan,
            trace.records,
            trace.solver_overheads,
            trace.solver_overhead_times,
            summary,
        )


def assert_same_runs(case, *, faults=(), runs=1, fit_spy=None):
    """PLB-HeC and FitEveryRound give equal pinned runs; return PLB-HeC's."""
    warm = runs > 1
    policy = PLBHeC(fixed_overhead_s=PINNED_S, warm_start=warm)
    reference = FitEveryRound(fixed_overhead_s=PINNED_S, warm_start=warm)
    ours = []
    for _ in range(runs):
        if fit_spy is not None:
            fit_spy.policy = policy
            fit_spy.calls.clear()
        run = Run(policy, *case, faults=faults)
        if fit_spy is not None:
            run.fitted = fit_spy.modeling_rounds()
            fit_spy.policy = reference
        expected = Run(reference, *case, faults=faults)
        assert run.outputs == expected.outputs
        # equal final R² gauges; the fit-first order also leaves one for
        # a device it fitted before the device failed during modeling
        assert run.r2 == {k: v for k, v in expected.r2.items() if k in run.r2}
        failed = {
            f"plbhec.r2{{device={f.device_id}}}"
            for f in faults
            if isinstance(f, DeviceFailure)
        }
        assert set(expected.r2) - set(run.r2) <= failed
        ours.append(run)
    return ours


class TestFitOnlyWhenTheRoundCanEndProfiling:
    def test_a_shallow_round_4_fits_nothing(self, fit_spy):
        depth = {}

        class Depth(PLBHeC):
            def _deep_enough(self, remaining):
                depth[self._round] = super()._deep_enough(remaining)
                return depth[self._round]

        policy = Depth(fixed_overhead_s=PINNED_S)
        fit_spy.policy = policy
        run = Run(policy, "matmul", 65536, 2)
        assert fit_spy.calls["modeling", 4] == 0
        # round 4 was evaluated, neither deep enough nor at a cap
        assert depth[4] is False
        assert policy.max_probe_rounds > 4
        assert run.counters["plbhec.probe_rounds"] == 6
        # only the round that ended profiling fitted, every device once
        assert fit_spy.modeling_rounds() == [6]
        assert fit_spy.calls["modeling", 6] == len(paper_cluster(2).devices())

    def test_every_evaluation_charges_one_decision(self):
        run = Run(PLBHeC(fixed_overhead_s=PINNED_S), "matmul", 65536, 2)
        fitted = FitEveryRound(fixed_overhead_s=PINNED_S)
        expected = Run(fitted, "matmul", 65536, 2)
        # rounds 4 and 5 were evaluated without a fit, one charge each;
        # round 6's evaluation and the selection's solve drain together
        overheads = run.result.trace.solver_overheads
        assert overheads[:3] == [PINNED_S, PINNED_S, 2 * PINNED_S]
        assert run.outputs == expected.outputs
        assert run.counters["plbhec.fit_attempts"] == 1
        assert expected.counters["plbhec.fit_attempts"] == 3


class TestPinnedInvariance:
    @pytest.mark.parametrize(
        "case", GRID, ids=[f"{a}-{s}-m{m}" for a, s, m in GRID]
    )
    def test_equals_fit_first_order(self, case, fit_spy):
        (run,) = assert_same_runs(case, fit_spy=fit_spy)
        # fit_attempts counts exactly the evaluations that fitted
        assert run.counters.get("plbhec.fit_attempts", 0) == len(run.fitted)
        # the last evaluation ended profiling, and it fitted
        probe_rounds = {
            r.step for r in run.result.trace.records if r.phase == "probe"
        }
        assert run.fitted[-1:] == [max(probe_rounds)]

    def test_transient_fault_during_modeling(self):
        assert_same_runs(
            ("matmul", 65536, 2),
            faults=(TransientFailure("A.gpu0", 10.0, 30.0),),
        )

    def test_transient_fault_during_execution(self):
        assert_same_runs(
            ("grn", 140_000, 3),
            faults=(TransientFailure("B.gpu0", 50.0, 10.0),),
        )

    # round 6 of this run probes from 23.7 s to 39.3 s; D.cpu's probe ends last
    @pytest.mark.parametrize(
        "failure",
        [DeviceFailure("B.gpu0", 20.0), DeviceFailure("D.cpu", 39.2)],
        ids=["mid-round", "closes-round-6"],
    )
    def test_permanent_failure_during_modeling(self, failure):
        (run,) = assert_same_runs(("matmul", 65536, 4), faults=(failure,))
        assert run.result.trace.lost_blocks

    def test_warm_start_second_run(self):
        first, second = assert_same_runs(("matmul", 65536, 2), runs=2)
        assert first.counters["plbhec.probe_rounds"] > 0
        # the second run skips probing and fits once, in setup
        assert "plbhec.probe_rounds" not in second.counters
        assert second.counters["plbhec.fit_attempts"] == 1


class TestFailureClosedRound:
    """A failure that closes a probe round counts it and runs its stop rule."""

    def run(self, faults):
        policy = PLBHeC(fixed_overhead_s=0.002)
        return policy, Run(policy, "matmul", 65536, 2, faults=faults, seed=3)

    def test_fault_free_reference(self):
        _, run = self.run(())
        rounds = {r.step for r in run.result.trace.records if r.phase == "probe"}
        assert max(rounds) == run.counters["plbhec.probe_rounds"] == 6

    def test_counts_the_round_and_runs_its_stop_rule(self):
        # A.cpu holds the last round-6 probe when it fails, so its
        # failure, not a completion, closes round 6
        policy, run = self.run((DeviceFailure("A.cpu", 44.3037),))
        trace = run.result.trace
        round6 = [r for r in trace.records if r.phase == "probe" and r.step == 6]
        assert {r.worker_id for r in round6} == {"A.gpu0", "B.cpu", "B.gpu0"}
        assert max(r.end_time for r in round6) < 44.3037
        rounds = {r.step for r in trace.records if r.phase == "probe"}
        assert max(rounds) == 7
        # every closed round is counted, the failure-closed one included
        assert run.counters["plbhec.probe_rounds"] == 7
        # its stop rule ran at the failure: one pinned charge there and
        # no fit (without A.cpu's probe round 6 is not deep enough); only
        # round 7's evaluation fitted
        assert 44.3037 in trace.solver_overhead_times
        assert run.counters["plbhec.fit_attempts"] == 1
        decision = next(
            d for d in policy.ledger.decisions if d.detail.get("round") == 7
        )
        assert decision.trigger == "fault"
        assert decision.detail["device"] == "A.cpu"
        assert decision.t == 44.3037
