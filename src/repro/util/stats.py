"""Streaming and batch statistics used by traces and experiment reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["RunningStats", "left_sum", "mean_std", "relative_error", "summarize"]


@dataclass
class RunningStats:
    """Welford online mean/variance accumulator.

    Numerically stable for long streams; supports merging, which the trace
    recorder uses to combine per-round statistics.
    """

    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0
    _min: float = field(default=math.inf)
    _max: float = field(default=-math.inf)

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        v = float(value)
        self.count += 1
        delta = v - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (v - self._mean)
        self._min = min(self._min, v)
        self._max = max(self._max, v)

    def extend(self, values: Iterable[float]) -> None:
        """Fold a sequence of observations."""
        for v in values:
            self.add(v)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return a new accumulator equal to observing both streams."""
        if other.count == 0:
            return RunningStats(self.count, self._mean, self._m2, self._min, self._max)
        if self.count == 0:
            return RunningStats(
                other.count, other._mean, other._m2, other._min, other._max
            )
        n = self.count + other.count
        delta = other._mean - self._mean
        mean = self._mean + delta * other.count / n
        m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / n
        return RunningStats(
            n, mean, m2, min(self._min, other._min), max(self._max, other._max)
        )

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0.0 with fewer than two observations."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest observation (+inf when empty)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observation (-inf when empty)."""
        return self._max


def left_sum(values: Iterable[float]) -> float:
    """Sum ``values`` left to right from 0, rounding after every addition.

    This is the order Python 3.11's built-in ``sum()`` adds floats in.
    From 3.12 on ``sum()`` compensates the rounding, so one list of
    floats can total differently on the two; virtual-time totals use
    this instead and read the same bits on every Python.  Like
    ``sum()``, an empty input totals to the integer 0.
    """
    return reduce(add, values, 0)


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Return ``(mean, sample std)`` of a sequence; ``(nan, nan)`` if empty."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return (float("nan"), float("nan"))
    if arr.size == 1:
        return (float(arr[0]), 0.0)
    return (float(arr.mean()), float(arr.std(ddof=1)))


def relative_error(measured: float, reference: float) -> float:
    """Return ``|measured - reference| / |reference|``.

    Used by EXPERIMENTS.md comparisons; returns ``inf`` when the reference
    is zero but the measurement is not, and 0.0 when both are zero.
    """
    if reference == 0.0:
        return 0.0 if measured == 0.0 else math.inf
    return abs(measured - reference) / abs(reference)


def summarize(groups: Mapping[str, Sequence[float]]) -> dict[str, dict[str, float]]:
    """Summarise named samples into ``{name: {mean, std, min, max, n}}``."""
    out: dict[str, dict[str, float]] = {}
    for name, values in groups.items():
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            out[name] = {
                "mean": float("nan"),
                "std": float("nan"),
                "min": float("nan"),
                "max": float("nan"),
                "n": 0,
            }
            continue
        out[name] = {
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            "min": float(arr.min()),
            "max": float(arr.max()),
            "n": int(arr.size),
        }
    return out
