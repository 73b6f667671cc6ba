"""The DES-hosted serving loop.

:class:`ClusterService` owns one :class:`~repro.sim.engine.Engine` and
plays a seeded open-loop arrival trace against a shared cluster:

* arrivals land in a bounded :class:`~repro.service.admission.AdmissionQueue`
  (backpressure + deterministic shedding);
* up to ``max_active`` jobs run concurrently, their blocks dispatched
  to free devices by a :class:`~repro.service.balancer.ContinuousBalancer`
  on a periodic collect→calculate→rebalance cycle
  (:meth:`Engine.schedule_periodic`);
* block times come from each template's ground-truth cost model (plus
  optional seeded lognormal noise), so the whole service is a pure
  function of ``(config, seed)`` — equal seeds give byte-identical
  scorecards;
* the robustness layer reacts to injected faults: per-device circuit
  breakers, per-tenant retry budgets, per-job deadlines that reclaim
  in-flight blocks by cancelling their completion events.

Shutdown is strict: when the last job reaches a terminal state the
service cancels its periodic tasks and pending fault events, and
:meth:`run` raises if anything is still left in the event queue — a
leaked event is a teardown bug, not a rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster import GroundTruth, paper_cluster
from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError, SimulationError
from repro.obs.artifact import from_data, to_data
from repro.obs.metrics import get_registry
from repro.obs.timeseries import TimeSeriesStore, jain_fairness
from repro.runtime.faults import Fault, FaultTimeline
from repro.service.admission import SHED_POLICIES, AdmissionQueue
from repro.service.arrivals import ArrivalSpec, generate_arrivals
from repro.service.balancer import BALANCER_FLAVORS, ContinuousBalancer
from repro.service.breakers import CircuitBreaker
from repro.service.jobs import Job, JobStatus
from repro.sim.engine import Engine
from repro.sim.random import RandomStreams
from repro.util.logging import get_logger
from repro.util.validation import check_positive

__all__ = ["ServiceConfig", "ClusterService", "run_service"]

_log = get_logger("service.server")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that determines one service episode."""

    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    machines: int = 2
    policy: str = "plb-hec"
    queue_limit: int = 16
    shed_policy: str = "reject"
    max_active: int = 4
    deadline_factor: float = 0.0
    retry_budget: int = 2
    rebalance_interval: float = 0.5
    sample_interval: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0
    breaker_threshold: int = 3
    breaker_cooldown: float = 2.0
    breaker_jitter: float = 0.1
    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.machines <= 4:
            raise ConfigurationError(
                f"machines must be in 1..4, got {self.machines}"
            )
        if self.policy not in BALANCER_FLAVORS:
            raise ConfigurationError(
                f"policy must be one of {BALANCER_FLAVORS}, got {self.policy!r}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.shed_policy!r}"
            )
        if self.max_active < 1:
            raise ConfigurationError(
                f"max_active must be >= 1, got {self.max_active}"
            )
        if self.deadline_factor < 0.0:
            raise ConfigurationError(
                f"deadline_factor must be >= 0, got {self.deadline_factor}"
            )
        if self.retry_budget < 0:
            raise ConfigurationError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.rebalance_interval <= 0.0:
            raise ConfigurationError(
                f"rebalance_interval must be > 0, got {self.rebalance_interval}"
            )
        check_positive("sample_interval", self.sample_interval, strict=False)
        check_positive("noise_sigma", self.noise_sigma, strict=False)

    def to_dict(self) -> dict:
        return to_data(self)

    def to_sweep_json(self) -> str:
        """Canonical JSON for ``RunSpec.service_json``.

        Drops the seed — the sweep supplies it per run (``run_seed``),
        so one service config string addresses every replication.
        """
        import json

        data = {k: v for k, v in self.to_dict().items() if k != "seed"}
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_dict(data: dict, *, seed: int | None = None) -> "ServiceConfig":
        """Inverse of :meth:`to_dict`; ``seed`` replaces the dict's seed,
        which is required without it."""
        seed = data["seed"] if seed is None else seed
        return from_data(ServiceConfig, {**data, "seed": seed})


class ClusterService:
    """One service episode over one cluster (single-use, like a run)."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        cluster_factory: Callable[[int], Cluster] = paper_cluster,
        solver_hook=None,
    ) -> None:
        self.config = config
        self.cluster = cluster_factory(config.machines)
        self.order = [d.device_id for d in self.cluster.devices()]
        self.engine = Engine()
        self.streams = RandomStreams(config.seed)
        #: the episode's faults, and which devices they hold down
        self.timeline = FaultTimeline(config.faults, self.order, self.streams)
        spec = config.arrivals

        from repro.experiments.runner import make_application

        # one cost model per app template; jobs index into these
        self.templates: list[dict] = []
        for name, size in spec.templates:
            app = make_application(name, size)
            gt = GroundTruth(self.cluster, app.kernel_characteristics())
            units = app.total_units
            probe = max(units // 64, 1)
            capacity = sum(
                probe / max(gt.total_time(d, probe), 1e-12) for d in self.order
            )
            self.templates.append(
                {
                    "name": name,
                    "units": units,
                    "gt": gt,
                    "probe": probe,
                    # fault-free all-devices seconds for one job: prices
                    # deadlines and sizes nothing else
                    "ideal_s": units / max(capacity, 1e-12),
                }
            )

        self.balancer = ContinuousBalancer(
            self.order,
            templates=len(self.templates),
            flavor=config.policy,
            solver_hook=solver_hook,
        )
        self.admission = AdmissionQueue(config.queue_limit, config.shed_policy)
        self.breakers = {
            d: CircuitBreaker(
                d,
                failure_threshold=config.breaker_threshold,
                cooldown=config.breaker_cooldown,
                jitter=config.breaker_jitter,
                streams=self.streams,
            )
            for d in self.order
        }
        self.store = TimeSeriesStore()
        self.quantum = config.rebalance_interval / 2.0

        # ---- mutable episode state -----------------------------------
        self.jobs: list[Job] = []
        self.active: list[Job] = []
        self.busy: dict[str, tuple[Job, int, float, float, float]] = {}
        self._deadline_events: dict[int, object] = {}
        self._arrivals_pending = 0
        self._finished = False
        self.end_time = 0.0
        self.samples_taken = 0
        self._window_completed = 0
        self.counts = {
            "submitted": 0,
            "completed": 0,
            "rejected": 0,
            "shed": 0,
            "timeout": 0,
            "failed": 0,
            "starved": 0,
        }
        self.retry_consumed: dict[int, int] = {}
        self.budget_exhausted = 0
        self.latencies: list[float] = []
        self.served_units = 0
        #: cross-cutting invariant violations (must stay empty)
        self.invariant_errors: list[str] = []
        self._ran = False

    # ---- lifecycle ---------------------------------------------------

    def run(self) -> dict:
        """Play the whole episode; returns the scorecard."""
        from repro.service.scorecard import build_scorecard

        if self._ran:
            raise SimulationError("a ClusterService is single-use")
        self._ran = True
        engine = self.engine
        arrivals = generate_arrivals(self.config.arrivals, self.streams)
        self._arrivals_pending = len(arrivals)
        for arr in arrivals:
            engine.schedule_at(
                arr.time, lambda a=arr: self._arrive(a), tag="arrive"
            )
        self.timeline.schedule(engine, self._device_down, self._device_up)
        interval = self.config.sample_interval or self.config.rebalance_interval
        self._rebalance_task = engine.schedule_periodic(
            self.config.rebalance_interval,
            self._rebalance_tick,
            tag="serve:rebalance",
            continue_while=self._ticking,
        )
        self._sampler_task = engine.schedule_periodic(
            interval, self._sample, tag="serve:sample",
            continue_while=self._ticking,
        )
        engine.run()
        if not self._finished:
            # starvation (e.g. every device dead): account the stuck
            # jobs so conservation still holds, then tear down
            self._starve_remaining(engine.now)
            self._finish(engine.now)
        if len(engine.queue) != 0:
            raise SimulationError(
                f"service shutdown leaked {len(engine.queue)} event(s) "
                "in the queue"
            )
        registry = get_registry()
        registry.inc("serve.jobs_submitted", self.counts["submitted"])
        registry.inc("serve.jobs_completed", self.counts["completed"])
        registry.inc("serve.rebalances", self.balancer.rebalances)
        return build_scorecard(self)

    def _ticking(self) -> bool:
        return not (self._finished or self.timeline.stranded)

    def _finish(self, now: float) -> None:
        # close the telemetry with the drained state, so last(...) SLO
        # aggregates see the final queue/backlog, not the last tick's
        self._sample(now)
        self._finished = True
        self.end_time = now
        self._rebalance_task.cancel()
        self._sampler_task.cancel()
        self.timeline.cancel(self.engine)
        for ev in self._deadline_events.values():
            self.engine.cancel(ev)
        self._deadline_events.clear()

    def _maybe_finish(self, now: float) -> None:
        if self._finished:
            return
        if self._arrivals_pending == 0 and not self.active and not self.admission:
            self._finish(now)

    def _starve_remaining(self, now: float) -> None:
        for job in list(self.active):
            job.status = JobStatus.FAILED
            job.finished_at = now
            self.counts["failed"] += 1
            self.counts["starved"] += 1
        self.active.clear()
        while self.admission:
            job = self.admission.pop()
            job.status = JobStatus.FAILED
            job.finished_at = now
            self.counts["failed"] += 1
            self.counts["starved"] += 1

    # ---- arrivals & admission ----------------------------------------

    def _arrive(self, arr) -> None:
        now = self.engine.now
        self._arrivals_pending -= 1
        template = self.templates[arr.template]
        job = Job(
            job_id=arr.job_id,
            tenant=arr.tenant,
            template=arr.template,
            priority=arr.priority,
            arrival=now,
            units=template["units"],
        )
        self.jobs.append(job)
        self.counts["submitted"] += 1
        for loser in self.admission.offer(job, now):
            if loser.status is JobStatus.REJECTED:
                self.counts["rejected"] += 1
            else:
                self.counts["shed"] += 1
        self._activate_next(now)
        self._dispatch(now)
        self._maybe_finish(now)

    def _activate_next(self, now: float) -> None:
        while len(self.active) < self.config.max_active and self.admission:
            job = self.admission.pop()
            job.status = JobStatus.RUNNING
            job.started_at = now
            self.active.append(job)
            if self.config.deadline_factor > 0.0:
                ideal = self.templates[job.template]["ideal_s"]
                job.deadline = now + self.config.deadline_factor * ideal
                self._deadline_events[job.job_id] = self.engine.schedule_at(
                    job.deadline,
                    lambda j=job: self._deadline_fired(j),
                    tag="serve:deadline",
                )

    # ---- dispatch & completion ---------------------------------------

    def _dispatch(self, now: float) -> None:
        if self._finished:
            return
        timeline = self.timeline
        for device_id in self.order:
            if device_id in self.busy or device_id in timeline.down:
                continue
            job = self.balancer.pick_job(self.active)
            if job is None:
                return
            if not self.breakers[device_id].allow(now):
                continue
            units = self.balancer.block_units(
                device_id,
                job.template,
                job.remaining,
                self.quantum,
                self.templates[job.template]["probe"],
            )
            gt = self.templates[job.template]["gt"]
            transfer = gt.transfer_time(device_id, units)
            exec_s = gt.exec_time(device_id, units) * timeline.slowdown_at(
                device_id, now
            )
            if self.config.noise_sigma > 0.0:
                exec_s *= self.streams.lognormal_factor(
                    f"serve/{device_id}/exec/{job.job_id}/{job.served_units}",
                    self.config.noise_sigma,
                )
            job.remaining -= units
            retry_time, gave_up = 0.0, False
            if timeline.transfer_faults:
                retry_time, _, gave_up = timeline.transfer_stall(
                    device_id, now, transfer, exec_s
                )
            if gave_up:
                event = self.engine.schedule_after(
                    retry_time,
                    lambda d=device_id: self._give_up(d),
                    tag="serve:giveup",
                )
            else:
                event = self.engine.schedule_after(
                    transfer + exec_s + retry_time,
                    lambda d=device_id: self._block_done(d),
                    tag="serve:block",
                )
            self.busy[device_id] = (job, units, now, transfer, exec_s)
            job.in_flight[device_id] = (event, units)

    def _block_done(self, device_id: str) -> None:
        now = self.engine.now
        if device_id in self.timeline.down:
            self.invariant_errors.append(
                f"block completed on downed device {device_id} at {now:.4f}"
            )
        job, units, _t0, transfer, exec_s = self.busy.pop(device_id)
        job.in_flight.pop(device_id, None)
        job.served_units += units
        self.served_units += units
        self.balancer.record(
            device_id, job.template, job.tenant, units, exec_s, transfer
        )
        self.breakers[device_id].record_success(now)
        if (
            job.status is JobStatus.RUNNING
            and job.remaining == 0
            and not job.in_flight
        ):
            self._job_completed(job, now)
        self._dispatch(now)
        self._maybe_finish(now)

    def _job_completed(self, job: Job, now: float) -> None:
        job.status = JobStatus.COMPLETED
        job.finished_at = now
        self.counts["completed"] += 1
        self._window_completed += 1
        self.latencies.append(now - job.arrival)
        self.store.record("serve_job_latency_s", now, now - job.arrival)
        self.active.remove(job)
        event = self._deadline_events.pop(job.job_id, None)
        if event is not None:
            self.engine.cancel(event)
        self._activate_next(now)

    def _lose_block(self, job: Job, units: int, now: float) -> None:
        """Requeue lost units against the tenant's retry budget."""
        if job.done:
            return
        consumed = self.retry_consumed.get(job.tenant, 0)
        if consumed < self.config.retry_budget:
            self.retry_consumed[job.tenant] = consumed + 1
            job.remaining += units
            job.retries += 1
            return
        # budget exhausted: the job fails instead of retry-storming
        job.lost_units += units
        self.budget_exhausted += 1
        self._terminate(job, JobStatus.FAILED, now)
        self.counts["failed"] += 1

    def _terminate(self, job: Job, status: JobStatus, now: float) -> None:
        """Move a running job to a terminal state, reclaiming its blocks.

        A pending give-up stays, with its device's ``busy`` entry: every
        retry of that block lands in the fault window whatever becomes of
        the job, so the device goes down for good when it fires, as in
        batch (:meth:`_lose_block` then finds the job done).
        """
        for device_id, (event, units) in list(job.in_flight.items()):
            job.lost_units += units
            if event.tag == "serve:giveup":
                continue
            self.engine.cancel(event)
            self.busy.pop(device_id, None)
            del job.in_flight[device_id]
        job.status = status
        job.finished_at = now
        if job in self.active:
            self.active.remove(job)
        event = self._deadline_events.pop(job.job_id, None)
        if event is not None:
            self.engine.cancel(event)
        self._activate_next(now)

    def _deadline_fired(self, job: Job) -> None:
        now = self.engine.now
        self._deadline_events.pop(job.job_id, None)
        if job.done:
            return
        self._terminate(job, JobStatus.TIMEOUT, now)
        self.counts["timeout"] += 1
        self._dispatch(now)
        self._maybe_finish(now)

    # ---- faults ------------------------------------------------------

    def _device_down(self, device_id: str) -> None:
        now = self.engine.now
        self.breakers[device_id].force_open(now)
        entry = self.busy.pop(device_id, None)
        if entry is not None:
            job, units = entry[0], entry[1]
            pair = job.in_flight.pop(device_id, None)
            if pair is not None:
                self.engine.cancel(pair[0])
            self.breakers[device_id].record_failure(now)
            self._lose_block(job, units, now)
        self._dispatch(now)
        self._maybe_finish(now)

    def _give_up(self, device_id: str) -> None:
        """Every retry landed in the window: lose the block, and the
        device for good (its give-up event has fired, so the cancel in
        :meth:`_device_down` is a no-op)."""
        if self.timeline.fail(device_id, permanent=True):
            self._device_down(device_id)

    def _device_up(self, device_id: str) -> None:
        now = self.engine.now
        self.breakers[device_id].on_device_recovered(now)
        self._dispatch(now)

    # ---- periodic tasks ----------------------------------------------

    def _rebalance_tick(self, now: float) -> None:
        if self._finished:
            return
        backlog: dict[int, int] = {}
        for job in self.active:
            if job.remaining > 0:
                backlog[job.template] = (
                    backlog.get(job.template, 0) + job.remaining
                )
        if backlog:
            self.balancer.rebalance(now, backlog)
        # the cycle doubles as the probe pulse: open breakers past
        # their cooldown re-admit traffic here, not only on completions
        self._dispatch(now)
        self._maybe_finish(now)

    def _sample(self, now: float) -> None:
        if self._finished:
            return
        self.samples_taken += 1
        store = self.store
        store.record("serve_queue_depth", now, float(self.admission.depth()))
        store.record("serve_active_jobs", now, float(len(self.active)))
        store.record(
            "serve_completed_total", now, float(self.counts["completed"])
        )
        store.record(
            "serve_shed_total",
            now,
            float(self.counts["shed"] + self.counts["rejected"]),
        )
        store.record("serve_timeout_total", now, float(self.counts["timeout"]))
        store.record("serve_failed_total", now, float(self.counts["failed"]))
        store.record(
            "serve_backlog_jobs",
            now,
            float(len(self.active) + self.admission.depth()),
        )
        interval = self.config.sample_interval or self.config.rebalance_interval
        store.record(
            "serve_goodput_jobs_per_s",
            now,
            self._window_completed / interval,
        )
        self._window_completed = 0
        served = [
            float(self.balancer.tenant_served.get(t, 0))
            for t in range(self.config.arrivals.tenants)
        ]
        if any(v > 0 for v in served):
            store.record("serve_tenant_fairness", now, jain_fairness(served))
        for device_id in self.order:
            busy = 1.0 if device_id in self.busy else 0.0
            if device_id in self.timeline.down:
                busy = 0.0
            store.record("serve_device_busy", now, busy, device=device_id)


def run_service(
    config: ServiceConfig,
    *,
    cluster_factory: Callable[[int], Cluster] = paper_cluster,
    solver_hook=None,
) -> dict:
    """Run one service episode and return its scorecard."""
    service = ClusterService(
        config, cluster_factory=cluster_factory, solver_hook=solver_hook
    )
    return service.run()
