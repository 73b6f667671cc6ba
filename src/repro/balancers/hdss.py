"""HDSS — Heterogeneous Dynamic Self-Scheduling [Belviranli et al. 2013].

Per the paper's Sec. II description of [19], two phases:

* **Adaptive phase**: block sizes grow geometrically
  (``s0, 2 s0, 4 s0, ...``) while the scheduler accumulates
  (block size, achieved rate) samples; a *logarithmic* curve
  ``rate(x) = a + b ln x`` is least-squares fitted per unit and its
  value at the large-block end becomes the unit's scalar weight.  The
  weights are computed once and "are not changed throughout the
  execution".
* **Completion phase**: remaining work is self-scheduled with block
  sizes proportional to the weights and *decreasing* over time (larger
  blocks first, a guided-scheduling taper), which smooths the tail.

The default adaptive phase follows the evaluated paper's
characterisation: probe sizes are *uniform across devices* and rounds
are synchronised ("non-optimal block sizes are used to estimate the
computational capabilities of each processing unit", producing the
phase-1 idleness its Fig. 7 shows — fast devices wait for slow ones to
chew through the same-size block).  Passing ``per_device_growth=True``
enables a smarter variant — asynchronous, per-device size growth that
stops at a rate plateau — useful as an ablation showing how much of
PLB-HeC's advantage comes from its speed-scaled probing alone.

Either way, the single-number-per-device weight is the limitation the
paper contrasts PLB-HeC's full performance curves against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.scheduler_api import SchedulingContext, SchedulingPolicy
from repro.sim.trace import TaskRecord
from repro.util.stats import left_sum

__all__ = ["HDSS"]


class HDSS(SchedulingPolicy):
    """Log-fit weighted self-scheduling with a decreasing-block tail.

    Parameters
    ----------
    max_adaptive_rounds:
        Cap on probe rounds (sizes ``s0, 2 s0, 4 s0, ...``).
    adaptive_fraction:
        Adaptive phase budget: it ends once this fraction of the data
        has been consumed (bounds the cost of uniform probing).
    per_device_growth:
        False (default): uniform sizes, synchronised rounds — the
        behaviour the evaluated paper attributes to HDSS.  True:
        asynchronous per-device growth stopping at a rate plateau.
    plateau_tol:
        Relative rate improvement that counts as "still improving"
        (per-device variant only).
    taper:
        Fraction of a device's fair share of the remaining work it
        receives per completion-phase request (guided scheduling;
        0.5 halves block sizes as the run progresses).
    min_block:
        Floor for completion-phase blocks; defaults to half the initial
        block size.
    """

    name = "hdss"

    def __init__(
        self,
        *,
        max_adaptive_rounds: int = 4,
        adaptive_fraction: float = 0.04,
        per_device_growth: bool = False,
        plateau_tol: float = 0.05,
        taper: float = 0.5,
        min_block: int | None = None,
    ) -> None:
        if max_adaptive_rounds < 2:
            raise ConfigurationError("max_adaptive_rounds must be >= 2")
        if not 0.0 < adaptive_fraction <= 1.0:
            raise ConfigurationError("adaptive_fraction must be in (0, 1]")
        if plateau_tol <= 0.0:
            raise ConfigurationError("plateau_tol must be > 0")
        if not 0.0 < taper <= 1.0:
            raise ConfigurationError(f"taper must be in (0,1], got {taper}")
        if min_block is not None and min_block < 1:
            raise ConfigurationError("min_block must be >= 1")
        self.max_adaptive_rounds = max_adaptive_rounds
        self.adaptive_fraction = adaptive_fraction
        self.per_device_growth = per_device_growth
        self.plateau_tol = plateau_tol
        self.taper = taper
        self.min_block = min_block

    # ------------------------------------------------------------------
    def setup(self, ctx: SchedulingContext) -> None:
        super().setup(ctx)
        self._ids = ctx.device_ids
        self._phase = "adaptive"
        self._round: dict[str, int] = {d: 0 for d in self._ids}
        self._samples: dict[str, list[tuple[float, float]]] = {
            d: [] for d in self._ids
        }
        self._stable: set[str] = set()
        self._weights: dict[str, float] = {}
        # a failed device's (samples, round, stable, weight), restored
        # if the outage turns out to be transient
        self._benched: dict[str, tuple] = {}
        self._remaining_estimate = ctx.total_units
        self._consumed = 0
        self._min_block = self.min_block or max(ctx.initial_block_size // 2, 1)
        # uniform-round bookkeeping
        self._uniform_round = 1
        self._in_round: set[str] = set()
        self._done_round: set[str] = set()

    # ------------------------------------------------------------------
    # adaptive phase
    # ------------------------------------------------------------------
    def _size_for_round(self, round_index: int) -> int:
        return self.ctx.initial_block_size * (2 ** (round_index - 1))

    def _budget_left(self) -> bool:
        return (
            self._consumed < self.adaptive_fraction * self.ctx.total_units
            and self._uniform_round <= self.max_adaptive_rounds
        )

    def _fit_weight(self, d: str) -> float:
        """Least-squares log fit of one device; weight = rate at large x."""
        pts = self._samples[d]
        if not pts:
            return 1e-9
        x_ref = max(self.ctx.total_units / max(len(self._ids), 1), 2.0)
        x = np.array([p[0] for p in pts])
        r = np.array([p[1] for p in pts])
        if len(pts) >= 2 and np.ptp(np.log(x)) > 0:
            design = np.column_stack([np.ones_like(x), np.log(x)])
            (a, b), *_ = np.linalg.lstsq(design, r, rcond=None)
            w = a + b * np.log(x_ref)
        else:
            w = float(r.mean())
        return max(float(w), float(r.max()) * 1e-3, 1e-9)

    def _enter_completion(self) -> None:
        self._weights = {d: self._fit_weight(d) for d in self._ids}
        self._phase = "completion"

    # ------------------------------------------------------------------
    # policy protocol
    # ------------------------------------------------------------------
    def next_block(self, worker_id: str, now: float) -> int:
        if self._phase == "adaptive":
            if self.per_device_growth:
                return self._size_for_round(self._round[worker_id] + 1)
            # uniform synchronised rounds: one block per device per round
            if worker_id in self._in_round or worker_id in self._done_round:
                return 0
            return self._size_for_round(self._uniform_round)
        share = self._weights[worker_id] / left_sum(self._weights.values())
        block = int(round(self._remaining_estimate * share * self.taper))
        return max(block, self._min_block)

    def on_block_dispatched(self, worker_id: str, granted: int, now: float) -> None:
        self._consumed += granted
        self._remaining_estimate = max(self._remaining_estimate - granted, 0)
        if self._phase == "adaptive" and not self.per_device_growth:
            self._in_round.add(worker_id)

    def on_task_finished(self, record: TaskRecord, remaining: int, now: float) -> None:
        self._remaining_estimate = remaining
        if self._phase != "adaptive":
            return
        d = record.worker_id
        if record.total_time > 0:
            self._samples[d].append(
                (float(record.units), record.units / record.total_time)
            )
        if self.per_device_growth:
            self._per_device_update(d)
            return
        # uniform synchronised rounds; the barrier requires every live
        # device to have completed (not merely every device dispatched so
        # far — on the thread backend workers poll asynchronously and a
        # dispatched-so-far barrier can close a round early)
        self._in_round.discard(d)
        self._done_round.add(d)
        if self._in_round or not set(self._ids) <= self._done_round:
            return  # barrier: the round is still running
        if remaining == 0:
            return
        self._uniform_round += 1
        self._done_round.clear()
        if not self._budget_left():
            self._enter_completion()

    def _per_device_update(self, d: str) -> None:
        samples = self._samples[d]
        if d not in self._stable and len(samples) >= 2:
            last, prev = samples[-1][1], samples[-2][1]
            if (last - prev) / max(prev, 1e-12) < self.plateau_tol:
                self._stable.add(d)
        self._round[d] += 1
        if self._round[d] >= self.max_adaptive_rounds:
            self._stable.add(d)
        budget_spent = self._consumed >= self.adaptive_fraction * self.ctx.total_units
        if len(self._stable) == len(self._ids) or budget_spent:
            self._enter_completion()

    def on_device_failed(self, device_id: str, now: float) -> None:
        """Drop the device; close the probe barrier if it was holding it.

        The device's samples, round and weight are benched, not
        discarded, so :meth:`on_device_recovered` can restore them.
        """
        self._ids = tuple(d for d in self._ids if d != device_id)
        self._benched[device_id] = (
            self._samples.pop(device_id, []),
            self._round.pop(device_id, 0),
            device_id in self._stable,
            self._weights.pop(device_id, None),
        )
        self._stable.discard(device_id)
        if self._phase == "adaptive" and not self.per_device_growth:
            self._in_round.discard(device_id)
            self._done_round.discard(device_id)
            if not self._in_round and self._done_round:
                self._uniform_round += 1
                self._done_round.clear()
                if not self._budget_left():
                    self._enter_completion()

    def on_device_recovered(self, device_id: str, now: float) -> None:
        """Fold a transiently-failed device back in with its benched state.

        In the adaptive phase the device rejoins the current probe
        round; in the completion phase it keeps its weight, or — if it
        was down when the weights were fitted — gets one fitted from
        its benched samples.
        """
        if device_id in self._ids:
            return
        self._ids = self._ids + (device_id,)
        samples, round_index, stable, weight = self._benched.pop(device_id)
        self._samples[device_id] = samples
        self._round[device_id] = round_index
        if stable:
            self._stable.add(device_id)
        if self._phase == "completion":
            self._weights[device_id] = (
                weight if weight is not None else self._fit_weight(device_id)
            )

    def phase_label(self, worker_id: str) -> str:
        return "probe" if self._phase == "adaptive" else "exec"

    def step_index(self, worker_id: str) -> int:
        if self._phase == "adaptive":
            if self.per_device_growth:
                return self._round.get(worker_id, 0)
            return self._uniform_round
        return self.max_adaptive_rounds + 1

    @property
    def weights(self) -> dict[str, float]:
        """The fitted per-device weights (empty before the fit)."""
        return dict(self._weights)
