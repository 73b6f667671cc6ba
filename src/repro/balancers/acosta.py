"""Acosta et al.'s relative-power dynamic load balancing.

Per the paper's Sec. II description of [18]: execution proceeds in
synchronised iterations.  Every processor records the time it spent on
its last load in a shared vector; if the spread exceeds a user
threshold, each processor computes its *relative power*
``RP_p = load_p / time_p``, the powers are summed (SRP) and the next
iteration's load is assigned proportionally — smoothed with a weighted
average of the previous distribution, which is why convergence is
asymptotic ("this may cause suboptimal load distribution during several
iterations").

Adaptation to a divisible workload: the domain is processed in
``num_steps`` equal quanta; each quantum is split according to the
current (smoothed) relative powers, with a synchronisation barrier
between quanta.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.scheduler_api import SchedulingContext, SchedulingPolicy
from repro.sim.trace import TaskRecord
from repro.util.stats import left_sum

__all__ = ["Acosta"]


class Acosta(SchedulingPolicy):
    """Iterative relative-power balancing with per-step barriers.

    Parameters
    ----------
    threshold:
        Relative finish-time spread above which the distribution is
        recomputed (the paper's user-defined threshold; 0.1 matches the
        evaluation setup).
    smoothing:
        Weight of the newly measured relative power in the running
        average (the "simple weighted average" of the paper).
    ramp / max_step_fraction:
        The iteration quanta grow geometrically (factor ``ramp``) from
        a probe-sized first step up to ``max_step_fraction`` of the
        domain, mirroring the original's iterative-application setting:
        early, badly-balanced iterations are bounded in cost, and the
        distribution converges asymptotically while the quanta grow.
    """

    name = "acosta"

    def __init__(
        self,
        *,
        threshold: float = 0.1,
        smoothing: float = 0.35,
        ramp: float = 2.0,
        max_step_fraction: float = 0.125,
    ) -> None:
        if not 0.0 < threshold:
            raise ConfigurationError(f"threshold must be > 0, got {threshold}")
        if not 0.0 < smoothing <= 1.0:
            raise ConfigurationError(f"smoothing must be in (0,1], got {smoothing}")
        if ramp < 1.0:
            raise ConfigurationError(f"ramp must be >= 1, got {ramp}")
        if not 0.0 < max_step_fraction <= 1.0:
            raise ConfigurationError(
                f"max_step_fraction must be in (0,1], got {max_step_fraction}"
            )
        self.threshold = threshold
        self.smoothing = smoothing
        self.ramp = ramp
        self.max_step_fraction = max_step_fraction

    # ------------------------------------------------------------------
    def setup(self, ctx: SchedulingContext) -> None:
        super().setup(ctx)
        ids = ctx.device_ids
        n = len(ids)
        self._ids = ids
        self._step = 0
        self._remaining = ctx.total_units
        # equal initial shares — the algorithm has no prior information
        self._shares = {d: 1.0 / n for d in ids}
        self._smoothed_rp: dict[str, float] = {d: 1.0 / n for d in ids}
        self._pending: dict[str, int] = {}  # step-assignments not yet dispatched
        self._step_times: dict[str, float] = {}
        self._dispatched: dict[str, int] = {}
        self._begin_step()

    def _begin_step(self) -> None:
        self._step += 1
        self._step_times.clear()
        self._pending.clear()
        self._dispatched.clear()
        self._requested: set[str] = set()
        if self._step == 1:
            # bootstrap iteration: every processor runs one small probe
            # block ("the execution of the previous task" seeds the RPs)
            for d in self._ids:
                self._pending[d] = self.ctx.initial_block_size
            return
        base = self.ctx.initial_block_size * len(self._ids)
        q_ramp = base * self.ramp ** (self._step - 1)
        q_cap = self.ctx.total_units * self.max_step_fraction
        q = max(int(round(min(q_ramp, q_cap))), len(self._ids))
        for d in self._ids:
            self._pending[d] = max(int(round(self._shares[d] * q)), 1)

    def next_block(self, worker_id: str, now: float) -> int:
        if worker_id in self._requested:
            return 0  # barrier: one block per device per step
        units = self._pending.get(worker_id, 0)
        if units <= 0:
            return 0
        self._requested.add(worker_id)
        return units

    def on_block_dispatched(self, worker_id: str, granted_units: int, now: float) -> None:
        self._dispatched[worker_id] = granted_units

    def on_task_finished(self, record: TaskRecord, remaining: int, now: float) -> None:
        self._step_times[record.worker_id] = record.total_time
        # the barrier requires every live device (not merely every device
        # dispatched so far — thread-backend workers poll asynchronously)
        if not set(self._ids) <= set(self._step_times):
            return  # barrier: wait for the whole step
        active = [d for d in self._ids if d in self._dispatched]
        times = np.array([self._step_times[d] for d in active])
        loads = np.array([self._dispatched[d] for d in active], dtype=float)
        t_max, t_min = float(times.max()), float(times.min())
        if t_max > 0 and (t_max - t_min) / t_max > self.threshold:
            rp = loads / np.maximum(times, 1e-12)
            # normalise measured powers before averaging so the running
            # mean mixes comparable quantities across steps
            rp = rp / rp.sum()
            for i, d in enumerate(active):
                self._smoothed_rp[d] = (
                    (1.0 - self.smoothing) * self._smoothed_rp[d]
                    + self.smoothing * float(rp[i])
                )
            srp = left_sum(self._smoothed_rp.values())
            self._shares = {d: self._smoothed_rp[d] / srp for d in self._ids}
        if remaining > 0:
            self._remaining = remaining
            self._begin_step()

    def on_device_failed(self, device_id: str, now: float) -> None:
        """Drop the device and renormalise the relative powers."""
        self._ids = tuple(d for d in self._ids if d != device_id)
        self._pending.pop(device_id, None)
        self._dispatched.pop(device_id, None)
        self._step_times.pop(device_id, None)
        self._requested.discard(device_id)
        self._smoothed_rp.pop(device_id, None)
        srp = left_sum(self._smoothed_rp.values())
        if srp > 0:
            self._shares = {d: self._smoothed_rp[d] / srp for d in self._ids}
        # the failure may have been holding the step barrier
        if self._step_times and set(self._ids) <= set(self._step_times):
            self._begin_step()

    def phase_label(self, worker_id: str) -> str:
        return "exec"

    def step_index(self, worker_id: str) -> int:
        return self._step
