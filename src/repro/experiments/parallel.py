"""Parallel sweep engine with content-addressed result caching.

Every paper artefact (Figs. 4-7, the ablations, the scaling studies) is
a grid of fully independent simulated runs: one (application, size,
machine count, policy, replication) tuple never shares state with
another, and each run is deterministically seeded (``seed * 1000 +
rep``).  That independence is the whole performance opportunity of the
harness, and this module exploits it twice:

* **process fan-out** — :func:`run_sweep` expands the requested grid
  points into a flat list of :class:`RunSpec` runs and executes them on
  a ``ProcessPoolExecutor``.  The worker count comes from the ``jobs``
  argument, else the ``REPRO_JOBS`` environment variable, else
  ``os.cpu_count()``.  ``jobs == 1`` (or an unpicklable cluster
  factory, or a broken pool) degrades to the plain serial loop.
  Results are aggregated in submission order, so the
  :class:`~repro.experiments.runner.SweepPoint` aggregates are
  *bit-identical* between serial and parallel execution;

* **result caching** — each run's outputs (makespan, idle fractions,
  distribution, solver overhead, rebalance count) are small JSON
  payloads addressed by a SHA-256 key over everything that determines
  them: application name/size, machine count, policy, per-replication
  seed, noise sigma, the overhead-accounting mode, the cluster-factory
  tag, and the repo algorithm version.  With ``REPRO_CACHE=1`` (cache
  under ``.repro_cache/``) or ``REPRO_CACHE=<dir>``, re-running a
  figure after touching only report code is near-instant.

Each sweep logs a one-line summary (``jobs=N cache_hits=H wall=Ts``)
through :mod:`repro.util.logging`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.cluster import paper_cluster
from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError
from repro.experiments.runner import PolicyOutcome, SweepPoint
from repro.obs.artifact import write_json
from repro.obs.events import EventLog, push_run_id
from repro.obs.metrics import get_registry
from repro.obs.profiler import merge_profiles, profiling
from repro.obs.report import RunReport, config_hash
from repro.util.logging import configure_logging, current_config, get_logger

__all__ = [
    "ALGORITHM_VERSION",
    "PointSpec",
    "RunSpec",
    "ResultCache",
    "SweepStats",
    "resolve_jobs",
    "run_sweep",
    "run_point",
]

#: Bump whenever simulator/balancer/solver numerics change — or the
#: cached payload schema changes: it is part of every cache key, so
#: stale cached results can never leak across algorithm versions.
#: ("2": payload gained the per-run RunReport manifest and wall clock.
#: "3": the partition solver retries non-converged IPM attempts from a
#: perturbed start, and faulted runs carry a resilience section.
#: "4": payloads of ledger-keeping policies carry the scheduler
#: decision ledger, and the fallback partition propagates an analytic
#: predicted time instead of NaN.
#: "5": sampled runs carry a ``"series"`` time-series payload; the
#: sample interval joins the cache key when sampling is enabled.
#: "6": every successful payload carries a ``"critpath"`` makespan
#: attribution, lost-block entries gained the range ``start_unit``, and
#: chaos runs check the busy-overlap invariant.
#: "7": service-mode runs (``service_json`` specs) flow through the
#: sweep with ``"serve"`` scorecard payloads, and ``TransferFault``
#: grew the seeded backoff-jitter knob.
#: "8": payloads of ledger-keeping policies carry the ledger's summary
#: (``DecisionLedger.summary``), not its decision records.  The bump
#: also retires entries cached before the certified waterfilling
#: partition: that change moved solver fractions by up to 5.7e-8 (and
#: every vt digest) but kept version "7", so those entries replayed the
#: old partitions.
#: "9": the ledger summary leaves out each device's per-block
#: calibration ``series``, which no payload reader reads.
#: "10": service episodes walk batch's transfer-retry timeline (backoff,
#: jitter, give-up) instead of losing a block per in-window dispatch, so
#: serve runs with a ``TransferFault`` moved.
#: "11": an entry holds only what its key determines: the run report
#: carries no registry delta, and the delta, the host wall clock and a
#: profile travel with fresh runs only (``ResultCache.FRESH_ONLY``), so
#: two fills of one key write identical bytes.
#: "12": PLB-HeC charges a modeled cost per fit and solve instead of the
#: host's measured time, so an unpinned entry no longer holds one host's
#: timing.)
ALGORITHM_VERSION = "12"

_log = get_logger("experiments.parallel")
_events = EventLog("experiments.parallel")


@dataclass(frozen=True)
class RunSpec:
    """One independent simulated run (the unit of fan-out and caching).

    ``faults`` is a tuple of the fault objects from
    :mod:`repro.runtime.faults` (mixed kinds allowed); when
    non-empty the payload gains a ``"resilience"`` section with the
    run's invariant-check results.  ``tolerate_errors`` turns a
    mid-run :class:`~repro.errors.ReproError` into an error payload
    instead of poisoning the whole sweep — chaos campaigns score
    survival, so a crash is a data point, not an abort.

    ``sample_interval`` attaches a virtual-time
    :class:`~repro.obs.timeseries.ClusterSampler` to the run (``0.0``:
    auto interval, ~makespan/128; ``None``: no sampling) and the
    payload gains a ``"series"`` section.  Samples are deterministic
    functions of the seeded simulation, so sampled payloads are
    cache-compatible like everything else.

    ``service_json`` switches the run to service mode: instead of one
    batch application, the worker plays a whole
    :class:`~repro.service.server.ClusterService` episode from the
    canonical-JSON config (seeded by ``run_seed``) and the payload
    carries the ``"serve"`` scorecard plus the service time series.
    The episode is a pure function of (config, seed), so service runs
    cache exactly like batch runs.
    """

    app_name: str
    size: int
    num_machines: int
    policy_name: str
    run_seed: int
    noise_sigma: float
    fixed_overhead_s: float | None = None
    faults: tuple = ()
    tolerate_errors: bool = False
    sample_interval: float | None = None
    service_json: str | None = None

    def config(self) -> dict:
        """The run inputs a batch run's manifest records; the cache key
        adds the algorithm version, the cluster and the options set."""
        config = {
            "app": self.app_name,
            "size": self.size,
            "machines": self.num_machines,
            "policy": self.policy_name,
            "seed": self.run_seed,
            "noise": self.noise_sigma,
            "overhead": self.fixed_overhead_s,
        }
        if self.faults:
            # lazy import: repro.resilience imports this module
            from repro.resilience.faults import fault_to_dict

            config["faults"] = [fault_to_dict(f) for f in self.faults]
        return config


@dataclass(frozen=True)
class PointSpec:
    """One requested grid point: every policy at one configuration.

    The parallel analogue of a :func:`repro.experiments.runner.run_policies`
    call; :func:`run_sweep` takes a sequence of these so a whole figure's
    grid fans out as one flat batch of runs.
    """

    app_name: str
    size: int
    num_machines: int
    policies: tuple[str, ...]
    replications: int = 3
    seed: int = 0
    noise_sigma: float = 0.005
    fixed_overhead_s: float | None = None
    cluster_factory: Callable[[int], Cluster] = paper_cluster
    faults: tuple = ()
    tolerate_errors: bool = False
    sample_interval: float | None = None
    service_json: str | None = None

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if not self.policies:
            raise ConfigurationError("policies must be non-empty")

    def expand(self) -> list[RunSpec]:
        """The point's runs in deterministic aggregation order."""
        return [
            RunSpec(
                app_name=self.app_name,
                size=self.size,
                num_machines=self.num_machines,
                policy_name=policy,
                run_seed=self.seed * 1000 + rep,
                noise_sigma=self.noise_sigma,
                fixed_overhead_s=self.fixed_overhead_s,
                faults=self.faults,
                tolerate_errors=self.tolerate_errors,
                sample_interval=self.sample_interval,
                service_json=self.service_json,
            )
            for policy in self.policies
            for rep in range(self.replications)
        ]


def _factory_tag(factory: Callable[[int], Cluster]) -> str | None:
    """A stable identity for a cluster factory, or None if it has none.

    Lambdas, closures and bound locals have no stable import path, so
    results built from them are never cached (and never silently
    collide).
    """
    module = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", None)
    if not module or not qualname:
        return None
    if "<lambda>" in qualname or "<locals>" in qualname:
        return None
    return f"{module}.{qualname}"


def _execute_service_run(
    spec: RunSpec,
    cluster_factory: Callable[[int], Cluster],
) -> dict:
    """Worker body for a service-mode run (``spec.service_json`` set).

    The payload keeps the batch-run column shape (``makespan`` is the
    episode's virtual end time, ``rebalances`` the balancer cycles) so
    SweepPoint aggregation and campaign plumbing work unchanged, and
    adds the ``"serve"`` scorecard plus the service time series.
    """
    from repro.errors import ReproError
    from repro.service.server import ClusterService, ServiceConfig

    service_dict = json.loads(spec.service_json)
    config = {
        "kind": "serve",
        "machines": spec.num_machines,
        "policy": spec.policy_name,
        "seed": spec.run_seed,
        "service": service_dict,
    }
    run_id = f"run-{config_hash(config)[:12]}"
    service_config = ServiceConfig.from_dict(service_dict, seed=spec.run_seed)
    try:
        with push_run_id(run_id):
            service = ClusterService(
                service_config, cluster_factory=cluster_factory
            )
            card = service.run()
    except ReproError as exc:
        if not spec.tolerate_errors:
            raise
        return {
            "makespan": None,
            "idle_fractions": {},
            "distribution": {},
            "overhead": 0.0,
            "rebalances": 0,
            "report": None,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
    report = RunReport.build(
        config=config,
        makespan=card["duration_s"],
        rebalances=card["balancer"]["rebalances"],
        solver_overhead_s=0.0,
        phase_summary={},
        run_id=run_id,
    )
    interval = (
        service_config.sample_interval or service_config.rebalance_interval
    )
    return {
        "makespan": card["duration_s"],
        "idle_fractions": {},
        "distribution": {},
        "overhead": 0.0,
        "rebalances": card["balancer"]["rebalances"],
        "report": report.to_dict(),
        "serve": card,
        "series": {
            "interval": interval,
            "samples": card["samples"],
            "store": service.store.to_payload(),
        },
    }


def _execute_run(
    spec: RunSpec,
    cluster_factory: Callable[[int], Cluster],
    profile: bool = False,
) -> dict:
    """Worker body: run one spec and return a JSON-serialisable payload.

    Must stay a module-level function — it is pickled into pool workers.

    Besides the aggregate outcomes, the payload carries the run's
    manifest (:class:`~repro.obs.report.RunReport`, without metrics)
    and, for a ledger-keeping policy, the decision ledger's summary:
    pure functions of the spec, which a warm cache replays as computed.
    With ``profile=True`` it also carries a ``"profile"`` snapshot of a
    :func:`repro.obs.profiler.profiling` scope, the one
    :attr:`ResultCache.FRESH_ONLY` key: plain data, so the parent
    merges every worker's profile into one stats object.
    """
    from repro.cluster import GroundTruth
    from repro.errors import ReproError
    from repro.experiments.runner import (
        _extract_distribution,
        make_application,
        make_policy,
    )
    from repro.runtime import Runtime

    if spec.service_json is not None:
        return _execute_service_run(spec, cluster_factory)
    config = spec.config()
    # The deterministic id RunReport.build would derive anyway; pushing
    # it around the execution tags worker-side events and log records
    # with the run they belong to, without perturbing cached payloads.
    run_id = f"run-{config_hash(config)[:12]}"
    cluster = cluster_factory(spec.num_machines)
    app = make_application(spec.app_name, spec.size)
    ground_truth = GroundTruth(cluster, app.kernel_characteristics())
    policy = make_policy(
        spec.policy_name,
        ground_truth=ground_truth,
        fixed_overhead_s=spec.fixed_overhead_s,
    )
    runtime = Runtime(
        cluster,
        app.codelet(),
        seed=spec.run_seed,
        noise_sigma=spec.noise_sigma,
        faults=spec.faults,
    )
    sampler = None
    if spec.sample_interval is not None:
        from repro.obs.timeseries import ClusterSampler

        sampler = ClusterSampler(spec.sample_interval)
    prof_snapshot = None
    try:
        with push_run_id(run_id):
            if profile:
                with profiling() as prof:
                    result = runtime.run(
                        policy,
                        app.total_units,
                        app.default_initial_block_size(),
                        sampler=sampler,
                    )
                prof_snapshot = prof.snapshot()
            else:
                result = runtime.run(
                    policy, app.total_units, app.default_initial_block_size(),
                    sampler=sampler,
                )
    except ReproError as exc:
        if not spec.tolerate_errors:
            raise
        return {
            "makespan": None,
            "idle_fractions": {},
            "distribution": {},
            "overhead": 0.0,
            "rebalances": 0,
            "report": None,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
    report = RunReport.build(
        config=config,
        makespan=result.makespan,
        rebalances=result.num_rebalances,
        solver_overhead_s=result.solver_overhead_s,
        phase_summary=result.trace.phase_summary(),
        run_id=run_id,
    )
    payload = {
        "makespan": result.makespan,
        "idle_fractions": result.idle_fractions,
        "distribution": _extract_distribution(policy, result),
        "overhead": result.solver_overhead_s,
        "rebalances": result.num_rebalances,
        "report": report.to_dict(),
    }
    if result.ledger is not None:
        # counts and summaries only: the chaos scorecard needs no
        # decision records, and the full ledger is read from the live
        # run (repro explain, --trace-out, the dashboard)
        payload["ledger"] = result.ledger.summary()
    from repro.obs.critpath import analyze_trace, payload_from_analysis

    # the attribution is a pure function of the (deterministic) trace,
    # so warm-cache and parallel replays stay byte-identical
    payload["critpath"] = payload_from_analysis(analyze_trace(result.trace))
    if sampler is not None:
        # samples are pure functions of the seeded simulation, so the
        # series replays byte-identical from a warm cache too
        payload["series"] = {
            "interval": sampler.interval or 0.0,
            "samples": sampler.samples_taken,
            "store": sampler.store.to_payload(),
        }
    if prof_snapshot is not None:
        payload["profile"] = prof_snapshot
    if spec.faults:
        from repro.resilience.invariants import (
            check_busy_overlap,
            check_conservation,
            check_fault_isolation,
            recovery_lags,
        )

        trace = result.trace
        violations = check_conservation(trace, app.total_units)
        violations += check_fault_isolation(trace)
        violations += check_busy_overlap(trace)
        payload["resilience"] = {
            "violations": [
                {"name": v.name, "message": v.message} for v in violations
            ],
            "failures": [[t, d] for t, d in trace.failures],
            "recoveries": [[t, d] for t, d in trace.recoveries],
            "lost_blocks": [[t, d, u, s] for t, d, u, s in trace.lost_blocks],
            "lost_units": sum(u for _, _, u, _ in trace.lost_blocks),
            "completed_units": sum(r.units for r in trace.records),
            "retries": sum(r.retries for r in trace.records),
            "recovery_lags": recovery_lags(trace),
        }
    return payload


class ResultCache:
    """Content-addressed on-disk store of run payloads.

    Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is the SHA-256
    of the canonical JSON of every run-determining input.  An entry
    holds only what its key determines: a payload without its
    :attr:`FRESH_ONLY` keys, so two fills of one key write identical
    bytes.  Writes are atomic (temp file + rename), so concurrent sweeps
    sharing one cache directory can never observe torn entries.
    """

    #: payload keys that describe one execution, not the run: a profile
    #: differs between executions of one key, so it travels with fresh
    #: runs only
    FRESH_ONLY = ("profile",)
    #: the columns every payload holds; an entry without them is unreadable
    RESULT_KEYS = frozenset(
        ("makespan", "idle_fractions", "distribution", "overhead", "rebalances")
    )

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)

    @staticmethod
    def from_env() -> "ResultCache | None":
        """Honour ``REPRO_CACHE``: off / ``1`` = ``.repro_cache`` / a dir."""
        value = os.environ.get("REPRO_CACHE", "").strip()
        if value in ("", "0", "off", "false", "no"):
            return None
        if value in ("1", "on", "true", "yes"):
            return ResultCache(".repro_cache")
        return ResultCache(value)

    @staticmethod
    def key(spec: RunSpec, cluster_tag: str) -> str:
        """The content address of one run under one cluster factory.

        Fault schedules and error tolerance join the key only when set,
        so fault-free runs keep their historical addresses.
        """
        entry = {
            **spec.config(),
            "version": ALGORITHM_VERSION,
            "cluster": cluster_tag,
        }
        if spec.tolerate_errors:
            entry["tolerate_errors"] = True
        if spec.sample_interval is not None:
            entry["sample_interval"] = spec.sample_interval
        if spec.service_json is not None:
            # the canonical JSON string is the service config's identity
            entry["service"] = spec.service_json
        blob = json.dumps(entry, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / (key + ".json")

    def load(self, key: str) -> dict | None:
        """Return the stored payload, or None on a miss.

        An entry that is not JSON, or not a dict holding every
        :attr:`RESULT_KEYS` column, is unreadable: it is dropped with a
        warning, so the sweep re-runs the spec and overwrites it.
        """
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            payload = None
        if isinstance(payload, dict) and payload.keys() >= self.RESULT_KEYS:
            return payload
        _log.warning("dropping unreadable cache entry %s", path)
        return None

    @classmethod
    def entry(cls, payload: dict) -> dict:
        """What an entry holds of ``payload``: all but its fresh-only keys."""
        return {k: v for k, v in payload.items() if k not in cls.FRESH_ONLY}

    def store(self, key: str, payload: dict) -> None:
        """Atomically persist one payload's :meth:`entry`.

        The cache is an optimisation: an unwritable cache directory
        (read-only volume, ``REPRO_CACHE`` pointing at a file) degrades
        to a warning instead of discarding the sweep's computed results.
        """
        path = self._path(key)
        try:
            write_json(path, self.entry(payload), "compact")
        except OSError as exc:
            _log.warning("cannot write cache entry %s: %s", path, exc)


@dataclass
class SweepStats:
    """What one :func:`run_sweep` call did, for logs and benchmarks."""

    jobs: int = 1
    total_runs: int = 0
    cache_hits: int = 0
    executed: int = 0
    wall_s: float = 0.0
    fell_back_serial: bool = False
    #: run payloads in aggregation order, in their cached form
    #: (:meth:`ResultCache.entry`) whether cached or fresh; chaos
    #: campaigns read per-run resilience sections from here
    payloads: list = field(default_factory=list)
    #: merged phase-attributed CPU profile (profiled sweeps only)
    profile: dict = field(default_factory=dict)

    def summary(self) -> str:
        """The one-line log form: ``jobs=N cache_hits=H wall=Ts``."""
        return (
            f"jobs={self.jobs} cache_hits={self.cache_hits} "
            f"wall={self.wall_s:.2f}s"
        )


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count: argument, ``REPRO_JOBS``, cpu count."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"REPRO_JOBS must be an integer, got {env!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


_UNSET = object()


def _pool_worker_init(log_config: tuple[str, str] | None) -> None:
    """Re-apply the parent's console logging config in a pool worker.

    Pool workers are fresh interpreters: without this they fall back to
    the library's NullHandler and every worker-side record (cache
    warnings, structured events) silently disappears.  Must stay a
    module-level function — it is pickled into the pool.
    """
    if log_config is not None:
        configure_logging(log_config[0], log_config[1])


def _execute_batch(
    tasks: Sequence[tuple[RunSpec, Callable[[int], Cluster]]],
    jobs: int,
    stats: SweepStats,
    profile: bool = False,
) -> list[dict]:
    """Run the cache misses, parallel when possible, serial otherwise."""
    if not tasks:
        return []
    if jobs > 1:
        try:
            # A factory that cannot cross a process boundary forces the
            # serial path; probe before paying for worker start-up.
            pickle.dumps(tasks[0])
        except Exception:
            _log.info("cluster factory is not picklable; running serially")
            stats.fell_back_serial = True
            jobs = 1
    if jobs > 1:
        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(tasks)),
                initializer=_pool_worker_init,
                initargs=(current_config(),),
            ) as pool:
                futures = [
                    pool.submit(_execute_run, spec, factory, profile)
                    for spec, factory in tasks
                ]
                return [f.result() for f in futures]
        except BrokenProcessPool:
            _log.warning("process pool broke; re-running the batch serially")
            stats.fell_back_serial = True
    return [_execute_run(spec, factory, profile) for spec, factory in tasks]


def run_sweep(
    points: Sequence[PointSpec],
    *,
    jobs: int | None = None,
    cache: ResultCache | None | object = _UNSET,
    stats: SweepStats | None = None,
    profile: bool = False,
) -> list[SweepPoint]:
    """Run a batch of grid points and aggregate each into a SweepPoint.

    Parameters
    ----------
    points:
        The grid, in output order.  All of their runs are flattened into
        one batch, so small points piggyback on big ones' parallelism.
    jobs:
        Worker processes (default: ``REPRO_JOBS`` env, else cpu count).
    cache:
        A :class:`ResultCache`, ``None`` to disable, or unset to honour
        the ``REPRO_CACHE`` environment variable.
    stats:
        Optional out-parameter; filled with what the sweep did.  Its
        payloads are equal whether served cold or warm; a profile comes
        from the runs this call executed.
    profile:
        Capture a phase-attributed CPU profile of every run
        (``compare --profile``).  Worker profiles are merged into
        ``stats.profile``.  Profiling disables the result cache for the
        sweep: a cache hit carries no profile to merge, so every run
        must execute.
    """
    t0 = time.perf_counter()
    jobs = resolve_jobs(jobs)
    if profile:
        cache = None
    elif cache is _UNSET:
        cache = ResultCache.from_env()
    if stats is None:
        stats = SweepStats()
    stats.jobs = jobs

    flat: list[tuple[int, RunSpec]] = []
    for index, point in enumerate(points):
        for spec in point.expand():
            flat.append((index, spec))
    stats.total_runs = len(flat)

    tags = [_factory_tag(p.cluster_factory) for p in points]
    payloads: list[dict | None] = [None] * len(flat)
    miss_slots: list[int] = []
    keys: list[str | None] = [None] * len(flat)
    for slot, (index, spec) in enumerate(flat):
        if cache is not None and tags[index] is not None:
            key = ResultCache.key(spec, tags[index])
            keys[slot] = key
            hit = cache.load(key)
            if hit is not None:
                payloads[slot] = hit
                stats.cache_hits += 1
                continue
        miss_slots.append(slot)

    tasks = [
        (flat[slot][1], points[flat[slot][0]].cluster_factory)
        for slot in miss_slots
    ]
    fresh = _execute_batch(tasks, jobs, stats, profile)
    stats.executed = len(fresh)
    for slot, payload in zip(miss_slots, fresh):
        payloads[slot] = ResultCache.entry(payload)
        snapshot = payload.get("profile")
        if snapshot is not None:
            merge_profiles(stats.profile, snapshot)
        if cache is not None and keys[slot] is not None:
            cache.store(keys[slot], payload)

    results: list[SweepPoint] = []
    cursor = 0
    for index, point in enumerate(points):
        outcomes: dict[str, PolicyOutcome] = {}
        for policy in point.policies:
            outcome = PolicyOutcome(policy=policy)
            for _rep in range(point.replications):
                payload = payloads[cursor]
                cursor += 1
                outcome.makespans.append(payload["makespan"])
                outcome.idle_fractions.append(payload["idle_fractions"])
                outcome.distributions.append(payload["distribution"])
                outcome.overheads.append(payload["overhead"])
                outcome.rebalances.append(payload["rebalances"])
            outcomes[policy] = outcome
        results.append(
            SweepPoint(
                app_name=point.app_name,
                size=point.size,
                num_machines=point.num_machines,
                outcomes=outcomes,
            )
        )

    stats.payloads.extend(payloads)
    stats.wall_s = time.perf_counter() - t0
    registry = get_registry()
    registry.inc("sweep.jobs", stats.total_runs)
    registry.inc("sweep.cache_hits", stats.cache_hits)
    registry.inc("sweep.cache_misses", stats.executed)
    _events.instant(
        "sweep.complete",
        runs=stats.total_runs,
        cache_hits=stats.cache_hits,
        executed=stats.executed,
        wall_s=round(stats.wall_s, 4),
    )
    _log.info("sweep complete: %s", stats.summary())
    return results


def run_point(
    point: PointSpec,
    *,
    jobs: int | None = None,
    cache: ResultCache | None | object = _UNSET,
    stats: SweepStats | None = None,
    profile: bool = False,
) -> SweepPoint:
    """Run one grid point through the sweep engine."""
    return run_sweep(
        [point], jobs=jobs, cache=cache, stats=stats, profile=profile
    )[0]
