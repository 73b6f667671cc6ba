"""The serving loop end to end: determinism, overload, deadlines, faults."""

import json

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.modeling.model_select import _shared_grid
from repro.solver.reduction import _table
from repro.runtime.faults import DeviceFailure, TransferFault, TransientFailure
from repro.service import ClusterService, ServiceConfig, validate_scorecard
from repro.service.arrivals import ArrivalSpec
from repro.service.jobs import JobStatus
from repro.service.scorecard import build_scorecard


def run_episode(**overrides):
    arrivals = overrides.pop(
        "arrivals", ArrivalSpec(rate=2.0, duration=8.0)
    )
    service = ClusterService(ServiceConfig(arrivals=arrivals, **overrides))
    return service, service.run()


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["noise_sigma", "sample_interval"])
    def test_negative_values_rejected(self, field):
        with pytest.raises(ConfigurationError, match=field):
            ServiceConfig(**{field: -0.5})
        data = {**ServiceConfig().to_dict(), field: -0.5}
        with pytest.raises(ConfigurationError, match=field):
            ServiceConfig.from_dict(data, seed=0)


class TestHealthyEpisode:
    def test_all_jobs_complete_and_scorecard_validates(self):
        service, card = run_episode(seed=3)
        assert validate_scorecard(card) == []
        assert card["invariant_errors"] == []
        assert card["jobs"]["completed"] == card["jobs"]["submitted"] > 0
        assert card["latency_s"]["p99"] is not None
        assert card["goodput"]["jobs_per_s"] > 0
        assert len(service.engine.queue) == 0

    def test_conservation_of_jobs(self):
        _, card = run_episode(seed=5, queue_limit=2, shed_policy="drop-oldest",
                              arrivals=ArrivalSpec(rate=8.0, duration=6.0))
        jobs = card["jobs"]
        terminal = (jobs["completed"] + jobs["rejected"] + jobs["shed"]
                    + jobs["timeout"] + jobs["failed"])
        assert terminal == jobs["submitted"]

    def test_single_use(self):
        service, _ = run_episode(seed=0)
        with pytest.raises(SimulationError, match="single-use"):
            service.run()

    def test_mean_latency_adds_left_to_right(self):
        # 1e16 / 3 on every Python; 3.12's compensated sum() would give
        # 1.0000000000000002e16 / 3
        service, _ = run_episode(seed=0)
        service.latencies = [1e16, 1.0, 1.0]
        assert build_scorecard(service)["latency_s"]["mean"] == 1e16 / 3


class TestDeterminism:
    def test_equal_seeds_byte_identical_scorecards(self):
        _, one = run_episode(seed=11, noise_sigma=0.02)
        _, two = run_episode(seed=11, noise_sigma=0.02)
        assert (json.dumps(one, sort_keys=True)
                == json.dumps(two, sort_keys=True))

    def test_kept_grids_and_tables_move_no_scorecard_bit(self):
        """perfbench's serve-overload episode, with nothing kept and then
        with the first episode's sanity grids and waterfill tables kept."""
        _shared_grid.cache_clear()
        _table.cache_clear()
        cards = []
        for _ in range(2):
            _, card = run_episode(
                arrivals=ArrivalSpec(rate=8.5, duration=15.0), machines=2,
                queue_limit=8, shed_policy="priority-shed", deadline_factor=30.0,
                seed=1,
            )
            cards.append(json.dumps(card, sort_keys=True))
        # both episodes reused kept grids and tables
        assert _shared_grid.cache_info().hits > 0 and _table.cache_info().hits > 0
        assert cards[0] == cards[1]

    def test_different_seeds_differ(self):
        _, one = run_episode(seed=11)
        _, two = run_episode(seed=12)
        assert (json.dumps(one, sort_keys=True)
                != json.dumps(two, sort_keys=True))


class TestOverload:
    def test_shedding_keeps_p99_bounded(self):
        """2x+ overload: the bounded queue sheds instead of queueing,
        so admitted-job latency stays bounded by (queue depth + active)
        service times rather than growing with the arrival backlog."""
        arrivals = ArrivalSpec(rate=12.0, duration=10.0)
        _, card = run_episode(
            arrivals=arrivals, seed=3, queue_limit=8,
            shed_policy="drop-oldest",
        )
        jobs = card["jobs"]
        assert jobs["shed"] > 0, "overload must shed"
        assert jobs["completed"] > 0
        # worst admitted wait ~ (queue limit + active) jobs ahead at the
        # slowest template's ideal pace; far below the ~40s an unbounded
        # queue would reach by the end of the horizon
        assert card["latency_s"]["p99"] < 8.0
        assert card["admission"]["max_depth"] <= 8
        assert card["invariant_errors"] == []

    def test_priority_shed_protects_high_priority(self):
        arrivals = ArrivalSpec(rate=12.0, duration=8.0)
        service, card = run_episode(
            arrivals=arrivals, seed=3, queue_limit=4,
            shed_policy="priority-shed",
        )
        assert card["jobs"]["shed"] + card["jobs"]["rejected"] > 0
        shed_jobs = [j for j in service.jobs if j.status is JobStatus.SHED]
        if shed_jobs:
            worst = max(j.priority for j in shed_jobs)
            assert worst < service.config.arrivals.priority_levels - 1 or any(
                j.priority > worst for j in service.jobs
            )


class TestDeadlines:
    def test_deadline_reclaims_in_flight_blocks(self):
        # deadline tighter than one job's service time under overload:
        # some jobs time out; their in-flight events are cancelled, so
        # the engine still drains to an empty queue
        arrivals = ArrivalSpec(rate=8.0, duration=6.0)
        service, card = run_episode(
            arrivals=arrivals, seed=2, deadline_factor=1.5, queue_limit=6,
            shed_policy="drop-oldest",
        )
        assert card["jobs"]["timeout"] > 0
        for job in service.jobs:
            if job.status is JobStatus.TIMEOUT:
                assert job.in_flight == {}
                assert job.deadline is not None
                assert job.finished_at == pytest.approx(job.deadline)
        assert len(service.engine.queue) == 0
        assert card["invariant_errors"] == []

    def test_generous_deadline_never_fires(self):
        _, card = run_episode(seed=3, deadline_factor=100.0)
        assert card["jobs"]["timeout"] == 0


class TestFaultsAndRetries:
    def test_transient_failure_opens_then_recloses_breaker(self):
        service, card = run_episode(
            seed=4, arrivals=ArrivalSpec(rate=3.0, duration=10.0),
            faults=(TransientFailure("A.gpu0", 3.0, 2.0),),
        )
        b = card["breakers"]["A.gpu0"]
        assert b["opens"] >= 1
        assert b["state"] in ("closed", "half-open")
        assert card["invariant_errors"] == []

    def test_permanent_failure_keeps_breaker_open(self):
        service, card = run_episode(
            seed=4, arrivals=ArrivalSpec(rate=3.0, duration=8.0),
            faults=(DeviceFailure("B.cpu", 2.0),),
        )
        assert card["breakers"]["B.cpu"]["state"] == "open"
        # no block may complete on a downed device
        assert card["invariant_errors"] == []

    def test_retry_budget_exhaustion_fails_jobs(self):
        # two transfer-fault windows no retry escapes: each device gives
        # up and loses its in-flight block, so a budget of one lost
        # block per tenant must fail a job instead of looping
        service, card = run_episode(
            seed=4, retry_budget=1,
            arrivals=ArrivalSpec(rate=3.0, duration=8.0),
            faults=(
                TransferFault("A.gpu0", 1.0, 30.0, max_retries=1),
                TransferFault("B.gpu0", 1.0, 30.0, max_retries=1),
            ),
        )
        assert card["retries"]["consumed"]
        assert card["jobs"]["failed"] >= 1
        assert card["retries"]["budget_exhausted_jobs"] >= 1
        assert card["invariant_errors"] == []

    def test_a_give_up_outlives_its_timed_out_job(self):
        # a job times out while its block on A.gpu0 walks a fault
        # window no retry escapes: the pending give-up must still fire
        class Recording(ClusterService):
            def _dispatch(self, now):
                idle = set(self.order) - set(self.busy)
                super()._dispatch(now)
                for d in idle & set(self.busy):
                    event = self.busy[d][0].in_flight[d][0]
                    dispatched.append((now, d, event))

            def _give_up(self, device_id):
                gave_up.append((self.engine.now, device_id))
                super()._give_up(device_id)

        dispatched, gave_up = [], []
        service = Recording(ServiceConfig(
            arrivals=ArrivalSpec(rate=6.0, duration=8.0),
            deadline_factor=1.5, seed=2,
            faults=(TransferFault("A.gpu0", 1.0, 30.0),),
        ))
        card = service.run()
        to_gpu = [(t, e) for t, d, e in dispatched if d == "A.gpu0"]
        first = next(
            i for i, (_, e) in enumerate(to_gpu) if e.tag == "serve:giveup"
        )
        # A.gpu0 gets no block after its first give-up, which fires
        # when due and takes the device down for good
        assert first == len(to_gpu) - 1
        assert gave_up == [(to_gpu[first][1].time, "A.gpu0")]
        assert service.timeline.perm_down == {"A.gpu0"}
        assert card["jobs"]["timeout"] > 0
        assert card["invariant_errors"] == []
        assert len(service.engine.queue) == 0

    def test_all_devices_dead_starves_cleanly(self):
        service, card = run_episode(
            seed=1, machines=1,
            arrivals=ArrivalSpec(rate=2.0, duration=6.0),
            faults=(DeviceFailure("A.cpu", 1.0),
                    DeviceFailure("A.gpu0", 1.0)),
        )
        jobs = card["jobs"]
        terminal = (jobs["completed"] + jobs["rejected"] + jobs["shed"]
                    + jobs["timeout"] + jobs["failed"])
        assert terminal == jobs["submitted"]
        assert jobs["failed"] > 0
        assert len(service.engine.queue) == 0


class TestTelemetry:
    def test_series_cover_the_serving_loop(self):
        service, _ = run_episode(seed=3)
        keys = service.store.keys()
        for expected in (
            "serve_queue_depth", "serve_active_jobs", "serve_backlog_jobs",
            "serve_goodput_jobs_per_s", "serve_completed_total",
            "serve_job_latency_s", "serve_device_busy",
        ):
            assert any(expected in key for key in keys), (expected, keys)

    def test_final_sample_sees_drained_state(self):
        # _finish records a closing sample, so last(...) SLO aggregates
        # judge the drained state, not the last periodic tick's
        service, _ = run_episode(seed=3)
        backlog = service.store.points("serve_backlog_jobs")
        assert backlog and backlog[-1][1] == 0.0
        depth = service.store.points("serve_queue_depth")
        assert depth[-1][1] == 0.0
