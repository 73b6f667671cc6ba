"""The PLB-HeC scheduling policy (paper Sec. III, Algorithms 1 and 2).

Three phases:

1. **Performance modeling** (Algorithm 1).  Synchronised probe rounds
   with exponentially growing, speed-ratio-scaled block sizes
   (:class:`~repro.core.probe_plan.ProbePlan`).  From the fourth round
   on, each closed round runs the stop rule: profiling ends once every
   device's curves ``F_p`` / ``G_p`` fit with R² ≥ 0.7 and the round
   probed deep enough (:meth:`PLBHeC._deep_enough`), or once 20 % of
   the application data or ``max_probe_rounds`` is used up.  The
   fit-independent conditions are checked first, and the curves are
   least-squares fitted only when the round can end profiling.
2. **Block-size selection** (Sec. III.C).  The fitted models form the
   equal-finish-time system (eq. 5), solved to the interior-point
   method's tolerance (a certified Newton polish of the waterfill
   point, or the line-search filter method when the certificate
   refuses); each device g is assigned a block size ``x_g`` — its
   share of one execution-step quantum.
3. **Execution and rebalancing** (Sec. III.D, Algorithm 2).  Devices
   asynchronously pull blocks of their assigned size.  A
   :class:`~repro.core.rebalance.SkewMonitor` watches per-step finish
   times; when the spread exceeds the threshold (10 % of a block time),
   the policy synchronises, re-fits the models with the accumulated
   execution measurements, re-solves and resumes with new sizes.

Master "thinking time" — the fits and the partition solve — is charged
into the run through :meth:`SchedulingContext.charge_overhead`, so the
makespans the experiments report include scheduler overhead as the
paper's measurements did (they report ~170 ms per solve on four
machines).  The charge is a fixed cost per fit and per solve that grows
with the devices fitted or solved over (:attr:`PLBHeC.fit_s_per_device`,
:attr:`PLBHeC.solve_s`, :attr:`PLBHeC.solve_s_per_device`), never a
host-clock reading, so virtual time does not depend on the host.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from repro.errors import ConfigurationError, FitError, SolverError
from repro.modeling.perf_profile import DeviceModel, PerfProfile
from repro.obs.events import EventLog, current_run_id
from repro.obs.ledger import DecisionLedger
from repro.obs.metrics import Gauge, get_registry
from repro.obs.profiler import profile_phase
from repro.runtime.scheduler_api import SchedulingContext, SchedulingPolicy
from repro.sim.trace import TaskRecord
from repro.solver.ipm import IPMOptions
from repro.solver.partition import PartitionResult, solve_block_partition
from repro.core.probe_plan import ProbePlan
from repro.core.rebalance import SkewMonitor
from repro.util.logging import get_logger
from repro.util.stats import left_sum

__all__ = ["PLBHeC"]

_log = get_logger("core.plb_hec")
_events = EventLog("core.plb_hec", level=logging.DEBUG)


class PLBHeC(SchedulingPolicy):
    """Profile-based load balancing with interior-point block selection.

    Parameters
    ----------
    rebalance_threshold:
        Relative finish-time skew that arms the rebalance flag
        (paper: 10 % of a block's execution time).
    num_steps:
        Execution-phase step count: the selection quantum is
        ``remaining / num_steps``, so each device processes its ``x_g``
        roughly ``num_steps`` times (enables mid-run rebalancing).
    overhead_scale:
        Multiplier on the fit/solve cost charged to the run (1.0 =
        charge it as modeled or pinned; 0.0 = free scheduler, for
        ablations).
    fixed_overhead_s:
        When set, charge this constant per scheduler decision instead of
        its modeled cost: once per probe-round stop-rule evaluation from
        round ``min_probe_rounds`` on (whether it fits or not), once per
        warm-start or rebalance refit, and once per solve.  Either charge
        is host-independent; the pin gives one cost per decision whatever
        the device count (the chaos campaigns and perfbench use it).
    warm_start:
        Retain the fitted device profiles across runs of the *same*
        policy object.  Data-parallel applications typically execute
        many phases over the same kernels ("after finishing, the threads
        merge the processed results and the application proceeds to its
        next phase" — Sec. III); with warm start, phases after the first
        skip the probing rounds entirely and go straight to the
        block-size selection, eliminating the initial-phase cost the
        paper measures at ~10 % of a run.  The device set must match
        between runs.
    ipm_options:
        Interior-point tuning passed through to the partition solver.
    recency_decay:
        Observation weighting for ordinary fits (< 1 favours fresh
        measurements; see
        :meth:`~repro.modeling.perf_profile.PerfProfile.fit`).
    """

    name = "plb-hec"

    #: Fit-quality acceptance bound of Algorithm 1 (paper: 0.7).
    r2_threshold = 0.7
    #: A fit is also accepted below this relative RMS residual (:meth:`_try_fit`).
    rel_rmse_accept = 0.05
    #: Modeled master time charged per decision (:meth:`_charge`): a fit
    #: evaluation costs ``fit_s_per_device`` per device fitted, a solve
    #: ``solve_s`` plus ``solve_s_per_device`` per device solved over.
    #: From warm host medians over 20 grid points × 3 seeds (2-core host,
    #: Python 3.11, NumPy 2.4): fits of 1.37 / 2.73 / 3.63 / 5.18 ms and
    #: solves of 0.75 / 1.06 / 1.35 / 1.74 ms at 2 / 4 / 6 / 8 devices.
    fit_s_per_device = 0.65e-3
    solve_s = 0.42e-3
    solve_s_per_device = 0.165e-3
    #: Probe rounds before the first fit attempt (paper: 4).
    min_probe_rounds = 4
    #: Hard cap on probe rounds, whatever the fits say.
    max_probe_rounds = 12
    #: Modeling phase hard stop: proceed to selection once this fraction
    #: of the data has been consumed (paper: 20 %).
    max_profile_fraction = 0.2
    #: Probing is deep enough at this share of a step's time (:meth:`_deep_enough`).
    probe_depth_factor = 0.4
    #: Much stronger recency weighting used by the *rebalance* refit: a
    #: rebalance fires precisely because device behaviour changed, so
    #: measurements from before the change must be discounted steeply or
    #: the refit reproduces the stale model.
    rebalance_recency_decay = 0.6

    def __init__(
        self,
        *,
        rebalance_threshold: float = 0.1,
        num_steps: int = 5,
        overhead_scale: float = 1.0,
        ipm_options: IPMOptions | None = None,
        recency_decay: float = 0.97,
        fixed_overhead_s: float | None = None,
        warm_start: bool = False,
    ) -> None:
        if rebalance_threshold <= 0.0:
            raise ConfigurationError("rebalance_threshold must be > 0")
        if num_steps < 1:
            raise ConfigurationError("num_steps must be >= 1")
        if overhead_scale < 0.0:
            raise ConfigurationError("overhead_scale must be >= 0")
        self.rebalance_threshold = rebalance_threshold
        self.num_steps = num_steps
        self.overhead_scale = overhead_scale
        self.ipm_options = ipm_options
        if not 0.0 < recency_decay <= 1.0:
            raise ConfigurationError("recency_decay must be in (0, 1]")
        self.recency_decay = recency_decay
        if fixed_overhead_s is not None and fixed_overhead_s < 0.0:
            raise ConfigurationError("fixed_overhead_s must be >= 0")
        self.fixed_overhead_s = fixed_overhead_s
        self.warm_start = warm_start
        self._retained_profiles: dict[str, PerfProfile] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def setup(self, ctx: SchedulingContext) -> None:
        super().setup(ctx)
        ids = ctx.device_ids
        self._ids = ids
        self._phase = "modeling"
        self._profiles = {d: PerfProfile(d) for d in ids}
        self._plan = ProbePlan(ids, ctx.initial_block_size)
        self._round = 1
        self._round_sizes = self._plan.sizes(1, None)
        self._round_requested: set[str] = set()
        self._round_dispatched: set[str] = set()
        self._round_times: dict[str, float] = {}
        self._round_rates: dict[str, float] = {}
        self._consumed = 0
        self._in_flight = 0
        self._outstanding: dict[str, int] = {d: 0 for d in ids}

        self._models: dict[str, DeviceModel] = {}
        self._partition: PartitionResult | None = None
        self._block_sizes: dict[str, int] = {}
        self._pull_count: dict[str, int] = {d: 0 for d in ids}
        self._monitor = SkewMonitor(self.rebalance_threshold)
        self._rebalance_flag = False
        self._syncing = False
        self.selection_history: list[PartitionResult] = []
        self.rebalance_count = 0
        # state benched by transient failures, restored on recovery
        self._benched_profiles: dict[str, PerfProfile] = {}
        self._benched_models: dict[str, DeviceModel] = {}
        # Decision ledger: one record per allocation change, with the
        # live model objects snapshot per decision so completions of
        # in-flight blocks score against the model that sized them even
        # after a rebalance refit replaced `self._models`.
        self.ledger = DecisionLedger(current_run_id() or "")
        self._decision_models: dict[str, dict[str, DeviceModel]] = {}
        # per device: its plbhec.calibration.{mape,bias,drift} gauges,
        # resolved on the device's first attributed block of this run
        self._calibration_gauges: dict[str, tuple[Gauge, Gauge, Gauge]] = {}
        self._vnow = 0.0

        # Warm start: a later phase over the same devices reuses the
        # previous phase's profiles and skips the probing rounds.
        if (
            self.warm_start
            and self._retained_profiles is not None
            and set(self._retained_profiles) == set(ids)
        ):
            self._profiles = self._retained_profiles
            fits_ok, models = self._try_fit()
            if len(models) == len(ids):
                self._models = models
                self._enter_execution(ctx.total_units, trigger="warm-start")
        self._retained_profiles = self._profiles
        if self._phase == "modeling":
            self._open_probe_decision()

    # ------------------------------------------------------------------
    # policy protocol
    # ------------------------------------------------------------------
    def next_block(self, worker_id: str, now: float) -> int:
        if self._phase == "modeling":
            if worker_id in self._round_requested:
                return 0  # one probe per device per round (barrier)
            self._round_requested.add(worker_id)
            return self._round_sizes.get(worker_id, 0)
        size = self._block_sizes.get(worker_id, 0)
        if size <= 0:
            return 0
        # Tail insurance: once less than one quantum remains, shrink all
        # blocks proportionally so the final wave keeps the solved
        # distribution instead of letting whoever polls first grab a
        # full-size (possibly very slow) block.
        remaining = self.ctx.total_units - self._consumed
        if 0 < remaining < self._quantum:
            size = max(int(round(size * remaining / self._quantum)), 1)
        return size

    def on_block_dispatched(self, worker_id: str, granted: int, now: float) -> None:
        self._vnow = now
        self._in_flight += 1
        self._outstanding[worker_id] = self._outstanding.get(worker_id, 0) + 1
        self._consumed += granted
        if self._phase == "modeling":
            self._round_dispatched.add(worker_id)
        else:
            self._pull_count[worker_id] += 1

    def decision_tag(self, worker_id: str) -> str | None:
        # Every dispatch is governed by the most recent decision: probe
        # rounds, the selection and each rebalance all open one at the
        # instant the sizes change.
        return self.ledger.current_id

    def on_task_finished(self, record: TaskRecord, remaining: int, now: float) -> None:
        self._vnow = now
        self._in_flight -= 1
        d = record.worker_id
        self._outstanding[d] = max(self._outstanding.get(d, 1) - 1, 0)
        self._attribute(record)
        self._profiles[d].add(
            record.units,
            record.exec_time,
            record.transfer_time,
            round_index=record.step,
        )
        if self._phase == "modeling":
            self._finish_probe(record, remaining)
            return
        # ---------------- execution phase (Algorithm 2) ----------------
        if self._rebalance_flag:
            # Rebalance without draining: parking every worker until the
            # slowest in-flight block completes would idle the cluster
            # for up to one (possibly degraded) block time — the very
            # idleness the paper's "detecting unit also receives a new
            # task" provision exists to avoid.  The refit uses all
            # completed measurements; new sizes apply from the next pull.
            if remaining > 0:
                self._rebalance(
                    remaining,
                    detail={
                        "skew": float(self._monitor.last_skew),
                        "threshold": self.rebalance_threshold,
                        "step": self._monitor.last_skew_step,
                    },
                )
            self._rebalance_flag = False
            return
        # Only monitor full-size steps: the tail step's blocks are
        # clamped by the domain and their durations differ by design.
        in_tail = remaining < self._quantum
        if remaining > 0 and not self._rebalance_flag and not in_tail:
            step = record.step
            self._monitor.expect(step, self._active_devices())
            tripped = self._monitor.record(step, d, record.end_time, record.total_time)
            if tripped:
                _log.debug("skew threshold tripped at step %d (t=%.4f)", step, now)
                self._rebalance_flag = True

    def on_device_failed(self, device_id: str, now: float) -> None:
        """Sec. VI fault tolerance: redistribute over the survivors.

        The failed device is dropped from the probe plan / models /
        assignments, and — when the execution phase is already running —
        the block sizes are re-solved over the remaining devices.  A
        failure that closes a probe round closes it as a completion
        would (:meth:`_close_round`), with ``ctx.total_units -
        self._consumed`` as the remaining units, the count the
        execution-phase branch uses too.
        """
        self._vnow = now
        self._ids = tuple(d for d in self._ids if d != device_id)
        # bench (don't discard) the learned state: if the outage turns
        # out to be transient, on_device_recovered restores it so the
        # device re-enters without a fresh profiling phase
        profile = self._profiles.pop(device_id, None)
        if profile is not None:
            self._benched_profiles[device_id] = profile
        model = self._models.pop(device_id, None)
        if model is not None:
            self._benched_models[device_id] = model
        self._block_sizes.pop(device_id, None)
        # the device's cancelled in-flight block produces no completion;
        # release it from the barrier accounting
        self._in_flight -= self._outstanding.pop(device_id, 0)
        if self._phase == "modeling":
            # forget the device's round state so the barrier can close
            self._round_sizes.pop(device_id, None)
            self._round_dispatched.discard(device_id)
            self._round_times.pop(device_id, None)
            self._round_rates.pop(device_id, None)
            self._plan = ProbePlan(self._ids, self.ctx.initial_block_size)
            if (
                self._round_times
                and set(self._ids) <= set(self._round_times)
                and not self._in_flight
            ):
                # the failure closed the current round
                self._close_round(
                    self.ctx.total_units - self._consumed,
                    trigger="fault",
                    detail={"device": device_id},
                )
        else:
            remaining = self.ctx.total_units - self._consumed
            if remaining > 0 and self._models:
                self._rebalance(
                    remaining, trigger="fault", detail={"device": device_id}
                )
        self._monitor.reset()

    def on_device_recovered(self, device_id: str, now: float) -> None:
        """Fold a transiently-failed device back into the run.

        The benched profile (and fitted model, if one existed) is
        restored, so the device rejoins with everything it learned
        before the outage.  In the execution phase the partition is
        re-solved over the enlarged device set; in the modeling phase
        the device simply rejoins the probe barrier from the current
        round.
        """
        if device_id in self._ids:
            return
        self._vnow = now
        get_registry().inc("plbhec.recoveries")
        _events.instant("plbhec.recover", device=device_id)
        self._ids = self._ids + (device_id,)
        self._profiles[device_id] = self._benched_profiles.pop(
            device_id, PerfProfile(device_id)
        )
        self._outstanding.setdefault(device_id, 0)
        self._pull_count.setdefault(device_id, 0)
        if self._phase == "modeling":
            self._plan = ProbePlan(self._ids, self.ctx.initial_block_size)
            self._round_sizes = self._plan.sizes(self._round, self._round_rates)
            # let the device request a probe in the current round
            self._round_requested.discard(device_id)
            self._open_probe_decision(
                trigger="recovery", detail={"device": device_id}
            )
        else:
            model = self._benched_models.pop(device_id, None)
            if model is not None:
                self._models[device_id] = model
            remaining = self.ctx.total_units - self._consumed
            if remaining > 0 and self._models:
                self._rebalance(
                    remaining, trigger="recovery", detail={"device": device_id}
                )
        self._monitor.reset()

    def phase_label(self, worker_id: str) -> str:
        return "probe" if self._phase == "modeling" else "exec"

    def step_index(self, worker_id: str) -> int:
        if self._phase == "modeling":
            return self._round
        # on_block_dispatched has already counted the pull being labelled
        return self._pull_count[worker_id]

    # ------------------------------------------------------------------
    # modeling phase (Algorithm 1)
    # ------------------------------------------------------------------
    def _finish_probe(self, record: TaskRecord, remaining: int) -> None:
        self._round_times[record.worker_id] = record.total_time
        if record.total_time > 0:
            self._round_rates[record.worker_id] = (
                record.units / record.total_time
            )
        # Barrier: every live device must have completed its probe.  The
        # check is against the device list, not against dispatched-so-far
        # — on the real (thread) backend workers poll asynchronously, and
        # a dispatched-so-far barrier can close a round before slower
        # workers were ever dispatched.
        if not set(self._ids) <= set(self._round_times) or self._in_flight:
            return  # barrier: the round is still running
        if remaining == 0:
            # tiny input: the whole domain fit inside profiling
            get_registry().inc("plbhec.probe_rounds")
            return
        self._close_round(remaining)

    def _close_round(
        self,
        remaining: int,
        *,
        trigger: str = "probe-round",
        detail: dict | None = None,
    ) -> None:
        """Count a closed probe round, run its stop rule, then execute or probe on.

        A completion passes the executor's count of the units left; a
        device failure passes ``ctx.total_units - self._consumed``,
        which leaves out the failed device's lost block.  The executor
        hands that block out again, so a round whose count is not
        positive still opens the next round.  The next round's decision
        carries ``trigger`` and ``detail``.
        """
        get_registry().inc("plbhec.probe_rounds")
        if self._round >= self.min_probe_rounds and remaining > 0:
            models = self._stop_rule(remaining)
            if models is not None:
                self._models = models
                self._enter_execution(remaining)
                return
        self._round += 1
        self._round_sizes = self._plan.sizes(self._round, self._round_rates)
        self._round_requested = set()
        self._round_dispatched = set()
        self._round_times = {}
        self._open_probe_decision(trigger=trigger, detail=detail)

    def _stop_rule(self, remaining: int) -> dict[str, DeviceModel] | None:
        """Algorithm 1's stop rule: the models profiling ends with, or None.

        Profiling ends at the data cap (``max_profile_fraction``) or the
        round cap (``max_probe_rounds``), whatever the fits say, or once
        the round probed deep enough (:meth:`_deep_enough`) and every
        device's fit is acceptable.  The fit-independent conditions come
        first: a round that cannot end profiling fits nothing and costs
        nothing, but stays one scheduler decision, so a pinned charge
        (``fixed_overhead_s``) is paid for it all the same.
        """
        at_limit = (
            self._consumed / self.ctx.total_units >= self.max_profile_fraction
            or self._round >= self.max_probe_rounds
        )
        if not at_limit and not self._deep_enough(remaining):
            self._charge(0.0)
            return None
        fits_ok, models = self._try_fit()
        return models if at_limit or fits_ok else None

    def _deep_enough(self, remaining: int) -> bool:
        """Has profiling explored block sizes near the execution scale?

        Fitted curves extrapolate poorly; the selection phase will
        assign each device roughly ``step_time * rate`` units, so
        probing continues until the just-finished round's blocks took a
        meaningful fraction of the *expected execution-step duration*
        (estimated from the measured rates).
        """
        total_rate = left_sum(self._round_rates.values())
        if total_rate <= 0.0 or not self._round_times:
            return False
        expected_step = (remaining / self.num_steps) / total_rate
        round_time = max(self._round_times.values())
        return round_time >= self.probe_depth_factor * expected_step

    def _try_fit(self) -> tuple[bool, dict[str, DeviceModel]]:
        """Fit every live profile; charge ``fit_s_per_device`` per device.

        Runs where a fit decides something: the warm-start fit and a
        stop-rule evaluation that can end profiling (:meth:`_stop_rule`).
        Returns whether every device's fit is acceptable, and the models
        that fitted.
        """
        registry = get_registry()
        registry.inc("plbhec.fit_attempts")
        models: dict[str, DeviceModel] = {}
        all_ok = True
        with profile_phase("fit"):
            for d in self._ids:
                try:
                    model = self._profiles[d].fit(
                        recency_decay=self.recency_decay
                    )
                except FitError:
                    all_ok = False
                    continue
                models[d] = model
                registry.set_gauge("plbhec.r2", model.r2, device=d)
                # The paper's acceptance is R2 >= 0.7; R2 is meaningless
                # for devices whose probe times are intercept-dominated
                # (nearly constant — the mean predictor is unbeatable
                # there), so a small relative RMS residual is accepted
                # as well.
                acceptable = (
                    model.r2 >= self.r2_threshold
                    or model.exec_fit.rel_rmse <= self.rel_rmse_accept
                )
                if not acceptable:
                    all_ok = False
        self._charge(self.fit_s_per_device * len(self._ids))
        if len(models) < len(self._ids):
            all_ok = False
        return all_ok, models

    # ------------------------------------------------------------------
    # selection phase (Sec. III.C)
    # ------------------------------------------------------------------
    def _enter_execution(self, remaining: int, *, trigger: str = "selection") -> None:
        _log.info(
            "modeling done after %d rounds (%d units consumed); "
            "entering execution with %d units remaining",
            self._round,
            self._consumed,
            remaining,
        )
        self._phase = "execution"
        # The step quantum is fixed at entry: every execution step
        # distributes this much, so rebalances do not shrink the steps
        # geometrically and the tail is the only partial step.
        self._quantum = max(remaining / self.num_steps, 1.0)
        self._solve(remaining, trigger=trigger)

    def _solve(
        self,
        remaining: int,
        *,
        trigger: str = "selection",
        detail: dict | None = None,
    ) -> None:
        quantum = min(self._quantum, float(remaining))
        registry = get_registry()
        restorations_before = registry.counter_value("ipm.restorations")
        charged_s = self._charge(
            self.solve_s + self.solve_s_per_device * len(self._models)
        )
        try:
            with _events.span("plbhec.solve", remaining=remaining):
                with profile_phase("solve"):
                    result = self._split(quantum)
        except (SolverError, FitError, ConfigurationError) as exc:
            self._fallback(quantum, exc, trigger=trigger, detail=detail)
            return
        registry.inc("plbhec.solves")
        registry.observe("plbhec.solve_ms", result.solve_time_s * 1e3)
        _log.info(
            "partition solved (%s, %d iterations, %.1f ms): T=%.4fs",
            result.method,
            result.iterations,
            result.solve_time_s * 1e3,
            result.predicted_time,
        )
        self._partition = result
        self.selection_history.append(result)
        sizes = {}
        for d, units in result.units_by_device.items():
            sizes[d] = int(round(units))
            registry.set_gauge("plbhec.block_size", sizes[d], device=d)
        if all(v <= 0 for v in sizes.values()):
            # pathological quantum: give the best-rate device one unit
            best = max(result.units_by_device, key=result.units_by_device.get)
            sizes[best] = 1
        self._block_sizes = sizes
        restorations = (
            registry.counter_value("ipm.restorations") - restorations_before
        )
        self._open_partition_decision(
            trigger=trigger,
            sizes=sizes,
            predicted_time=result.predicted_time,
            solver={
                "method": result.method,
                "converged": bool(result.converged),
                "iterations": int(result.iterations),
                "kkt_error": float(result.kkt_error),
                "restorations": int(restorations),
                "solve_time_s": float(charged_s),
            },
            detail=detail,
        )
        self._monitor.reset()

    def _split(self, quantum: float) -> PartitionResult:
        """Partition one quantum over the fitted models with the solver chain.

        The A1 ablation overrides this step to force a selection path;
        :meth:`_solve` keeps the charge, ledger and fallback for all.
        """
        return solve_block_partition(
            self._models, quantum, ipm_options=self.ipm_options
        )

    def _active_devices(self) -> int:
        return sum(1 for v in self._block_sizes.values() if v > 0)

    # ------------------------------------------------------------------
    # graceful degradation
    # ------------------------------------------------------------------
    def _fallback(
        self,
        quantum: float,
        exc: Exception,
        *,
        trigger: str = "selection",
        detail: dict | None = None,
    ) -> None:
        """Survive a failed fit/solve with a degraded-but-safe partition.

        The chain: reuse the last *good* (solver-produced) partition,
        rescaled to the live device set → analytic speed-ratio split
        from the latest profile measurements → GSS-style fair share.
        The run keeps making progress in all three cases; only the
        quality of the distribution degrades.
        """
        stage, sizes = self._fallback_sizes(quantum)
        registry = get_registry()
        registry.inc("plbhec.fallback")
        _events.instant(
            "plbhec.fallback",
            stage=stage,
            reason=f"{type(exc).__name__}: {exc}",
        )
        _log.warning(
            "solve failed (%s: %s); falling back to %s split",
            type(exc).__name__,
            exc,
            stage,
        )
        ids = tuple(sizes)
        int_sizes = {d: max(int(round(sizes[d])), 1) for d in ids}
        # The degraded split still has a prediction: the fitted models
        # (if any survive) or the latest measured rates the split itself
        # was derived from.  Propagating it keeps fallback decisions
        # calibratable instead of scoring as NaN.
        per_device_pred, predicted_time = self._fallback_prediction(int_sizes)
        result = PartitionResult(
            device_ids=ids,
            units=np.array([sizes[d] for d in ids], dtype=float),
            predicted_time=predicted_time,
            method=f"fallback-{stage}",
            converged=False,
            iterations=0,
            kkt_error=math.nan,
            solve_time_s=0.0,
        )
        self._partition = result
        self.selection_history.append(result)
        for d, v in int_sizes.items():
            registry.set_gauge("plbhec.block_size", v, device=d)
        self._block_sizes = int_sizes
        self._open_partition_decision(
            trigger=trigger,
            sizes=int_sizes,
            predicted_time=predicted_time,
            predicted=per_device_pred,
            solver={
                "method": f"fallback-{stage}",
                "fallback_stage": stage,
                "converged": False,
                "iterations": 0,
                "kkt_error": math.nan,
                "restorations": 0,
                "solve_time_s": 0.0,
                "error": f"{type(exc).__name__}: {exc}",
            },
            detail=detail,
        )
        self._monitor.reset()

    def _fallback_prediction(
        self, sizes: dict[str, int]
    ) -> tuple[dict[str, float], float]:
        """Predicted per-device seconds for a fallback allocation.

        Prefers the fitted models; devices without one fall back to
        their latest measured rate (the same measurement the
        speed-ratio split used).  Devices with neither stay
        unpredicted; with no prediction at all the common time is NaN.
        """
        per_device: dict[str, float] = {}
        for d, u in sizes.items():
            if u <= 0:
                continue
            model = self._models.get(d)
            if model is not None:
                t = float(model.E(u))
                if math.isfinite(t) and t > 0.0:
                    per_device[d] = t
                    continue
            profile = self._profiles.get(d)
            if profile is not None and profile.points:
                p = profile.points[-1]
                elapsed = p.exec_s + p.transfer_s
                if elapsed > 0.0 and p.units > 0:
                    per_device[d] = float(u) * elapsed / p.units
        if not per_device:
            return {}, math.nan
        return per_device, max(per_device.values())

    def _fallback_sizes(self, quantum: float) -> tuple[str, dict[str, float]]:
        live = list(self._ids)
        # 1. last good solution: the most recent solver-produced
        #    partition, restricted to live devices and rescaled to the
        #    quantum (fallback partitions are skipped — repeating a
        #    degraded split would compound the degradation)
        for prev in reversed(self.selection_history):
            if prev.method.startswith("fallback"):
                continue
            shares = {
                d: u
                for d, u in prev.units_by_device.items()
                if d in live and u > 0.0
            }
            total = left_sum(shares.values())
            if shares and total > 0.0:
                return "last-good", {
                    d: quantum * u / total for d, u in shares.items()
                }
        # 2. analytic speed-ratio split from the latest measurement of
        #    each live profile (units per second, transfer included)
        rates: dict[str, float] = {}
        for d in live:
            profile = self._profiles.get(d)
            if profile is None or not profile.points:
                continue
            p = profile.points[-1]
            elapsed = p.exec_s + p.transfer_s
            if elapsed > 0.0:
                rates[d] = p.units / elapsed
        total_rate = left_sum(rates.values())
        if rates and total_rate > 0.0:
            return "speed-ratio", {
                d: quantum * r / total_rate for d, r in rates.items()
            }
        # 3. fair share: equal split over the live devices
        return "fair-share", {d: quantum / len(live) for d in live}

    # ------------------------------------------------------------------
    # rebalancing (Sec. III.D)
    # ------------------------------------------------------------------
    def _rebalance(
        self,
        remaining: int,
        *,
        trigger: str = "rebalance",
        detail: dict | None = None,
    ) -> None:
        """Re-fit with accumulated execution times and re-solve."""
        self.rebalance_count += 1
        self.ctx.note_rebalance()
        get_registry().inc("plbhec.rebalances")
        _events.instant("plbhec.rebalance", remaining=remaining)
        models: dict[str, DeviceModel] = {}
        with profile_phase("fit"):
            for d in self._ids:
                try:
                    models[d] = self._profiles[d].fit(
                        recency_decay=self.rebalance_recency_decay
                    )
                except FitError:
                    if d in self._models:
                        models[d] = self._models[d]
        self._charge(self.fit_s_per_device * len(self._ids))
        if models:
            self._models = models
        self._solve(remaining, trigger=trigger, detail=detail)

    # ------------------------------------------------------------------
    def _charge(self, seconds: float) -> float:
        """Charge a decision's modeled cost, or the pin; return it unscaled."""
        if self.fixed_overhead_s is not None:
            seconds = self.fixed_overhead_s
        if self.overhead_scale > 0.0 and seconds > 0.0:
            self.ctx.charge_overhead(seconds * self.overhead_scale, "plb-hec")
        return seconds

    # ------------------------------------------------------------------
    # decision ledger
    # ------------------------------------------------------------------
    def _open_probe_decision(
        self, *, trigger: str = "probe-round", detail: dict | None = None
    ) -> None:
        """Ledger a probe round: allocation known, predictions not yet."""
        did = self.ledger.open_decision(
            trigger=trigger,
            t=self._vnow,
            phase="modeling",
            allocation={d: int(s) for d, s in self._round_sizes.items()},
            solver={"method": "probe"},
            detail={"round": self._round, **(detail or {})},
        )
        self._decision_models[did] = {}
        get_registry().inc("plbhec.decisions")
        _events.instant("plbhec.decision", id=did, trigger=trigger, method="probe")

    def _open_partition_decision(
        self,
        *,
        trigger: str,
        sizes: dict[str, int],
        predicted_time: float,
        solver: dict,
        detail: dict | None = None,
        predicted: dict[str, float] | None = None,
    ) -> None:
        """Ledger a solve/fallback outcome with its model state."""
        if predicted is None:
            predicted = {}
            for d, s in sizes.items():
                model = self._models.get(d)
                if model is not None and s > 0:
                    t = float(model.E(s))
                    if math.isfinite(t):
                        predicted[d] = t
        did = self.ledger.open_decision(
            trigger=trigger,
            t=self._vnow,
            phase="execution",
            allocation=dict(sizes),
            predicted=predicted,
            predicted_time=float(predicted_time),
            solver=solver,
            models={d: m.state_summary() for d, m in self._models.items()},
            detail=detail,
        )
        # live model objects per decision: completions of blocks still in
        # flight across a refit score against the model that sized them
        self._decision_models[did] = dict(self._models)
        get_registry().inc("plbhec.decisions")
        _events.instant(
            "plbhec.decision",
            id=did,
            trigger=trigger,
            method=solver.get("method", ""),
        )

    def _attribute(self, record: TaskRecord) -> None:
        """Close the loop: score a completed block against its decision."""
        d = record.worker_id
        predicted = None
        models = self._decision_models.get(record.decision)
        if models:
            model = models.get(d)
            if model is not None:
                # evaluate at the *granted* size — tail blocks shrink
                # below the decision's allocation, and the model curve,
                # not a linear rescale, is the honest prediction there
                t = float(model.E(record.units))
                if math.isfinite(t) and t > 0.0:
                    predicted = t
        self.ledger.attribute(
            record.decision,
            d,
            units=record.units,
            predicted_s=predicted,
            observed_s=record.total_time,
        )
        cal = self.ledger.device_calibration(d)
        if cal is not None and cal.count:
            gauges = self._calibration_gauges.get(d)
            if gauges is None:
                registry = get_registry()
                gauges = self._calibration_gauges[d] = tuple(
                    registry.gauge(f"plbhec.calibration.{stat}", device=d)
                    for stat in ("mape", "bias", "drift")
                )
            mape, bias, drift = gauges
            mape.set(cal.mape)
            bias.set(cal.bias)
            drift.set(cal.drift)

    # ------------------------------------------------------------------
    # introspection for experiments
    # ------------------------------------------------------------------
    @property
    def first_partition(self) -> PartitionResult | None:
        """The block distribution at the end of the modeling phase.

        This is the quantity Fig. 6 plots for PLB-HeC.
        """
        return self.selection_history[0] if self.selection_history else None

    @property
    def models(self) -> dict[str, DeviceModel]:
        """The current fitted device models (empty during modeling)."""
        return dict(self._models)
