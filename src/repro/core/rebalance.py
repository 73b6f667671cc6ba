"""Finish-time skew monitoring (Sec. III.D).

"The scheduler also monitors the finish time of each task.  If the
difference in finishing times t_i and t_j between any two tasks of
processing units i and j goes above a threshold, the rebalancing
process is executed."  The threshold is relative — "about 10 % of the
execution time of a single block" — so the monitor compares, per
dispatch step, the spread of completion instants of the step's tasks
against the threshold times the step's mean block duration.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.util.stats import left_sum

__all__ = ["SkewMonitor"]


class SkewMonitor:
    """Detects when per-step finish times drift beyond the threshold.

    Parameters
    ----------
    threshold:
        Relative threshold (0.1 = the paper's 10 % of a block's
        execution time).
    """

    def __init__(self, threshold: float = 0.1) -> None:
        if threshold <= 0.0:
            raise ConfigurationError(f"threshold must be > 0, got {threshold}")
        self.threshold = float(threshold)
        # step -> {device: (end_time, duration)}
        self._steps: dict[int, dict[str, tuple[float, float]]] = {}
        self._expected: dict[int, int] = {}
        #: relative duration spread of the last *completed* step —
        #: decision-ledger context for why a rebalance fired (NaN until
        #: a multi-device step completes)
        self.last_skew: float = float("nan")
        #: step index the last completed skew measurement belongs to
        self.last_skew_step: int = -1

    def expect(self, step: int, num_devices: int) -> None:
        """Declare how many tasks step ``step`` will comprise."""
        if num_devices < 1:
            raise ConfigurationError("a step needs at least one device")
        self._expected[step] = num_devices

    def record(
        self, step: int, device_id: str, end_time: float, duration: float
    ) -> bool:
        """Record one completion; returns True when the step's skew trips.

        The check fires only once the step is complete (every expected
        device reported), mirroring the paper's Gantt (Fig. 3) where the
        detection compares tasks of the same dispatch round.

        Skew is measured on the tasks' *durations*: blocks of one step
        were sized to take the same time, so a relative duration spread
        beyond the threshold means the balance has drifted.  (Comparing
        absolute completion instants instead would accumulate random
        drift over successive asynchronous pulls and trip spuriously —
        the paper's own runs "never executed" a rebalance in steady
        conditions, which pins down this reading of the threshold.)
        """
        bucket = self._steps.setdefault(step, {})
        bucket[device_id] = (end_time, duration)
        expected = self._expected.get(step)
        if expected is None or len(bucket) < expected:
            return False
        durations = [t for _, t in bucket.values()]
        mean_duration = left_sum(durations) / len(durations)
        # single-device steps can never skew
        if len(bucket) < 2 or mean_duration <= 0.0:
            self._cleanup(step)
            return False
        skew = max(durations) - min(durations)
        self.last_skew = skew / mean_duration
        self.last_skew_step = step
        tripped = skew > self.threshold * mean_duration
        self._cleanup(step)
        return tripped

    def _cleanup(self, step: int) -> None:
        self._steps.pop(step, None)
        self._expected.pop(step, None)

    def reset(self) -> None:
        """Forget all in-progress steps (after a rebalance)."""
        self._steps.clear()
        self._expected.clear()
