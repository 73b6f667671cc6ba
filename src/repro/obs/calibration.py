"""Prediction-calibration math for the scheduler decision ledger.

PLB-HeC allocates work from *predicted* per-device block times (the
fitted ``E_p[x]`` curves feeding the interior-point solve); this module
quantifies how wrong those predictions turn out to be once the blocks
actually execute.  Three statistics per device, all over relative
errors ``(predicted - observed) / observed``:

* **MAPE** — mean absolute percentage error, the headline accuracy
  number (Stevens & Klöckner's accuracy-vs-scope framing);
* **signed bias** — mean signed relative error: positive means the
  model systematically over-predicts (the device is faster than
  modelled), negative means under-prediction;
* **drift** — an EWMA of the signed relative error in completion
  order, so a model that *was* calibrated but stopped being so (device
  slowdown, workload shift) shows a moving tail even while the
  whole-run MAPE still looks fine.

Everything here is pure, NaN-safe math: observations with a
non-finite or non-positive side are skipped, never propagated, so a
fallback decision whose prediction could not be derived simply
contributes no residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.util.stats import left_sum

__all__ = [
    "DeviceCalibration",
    "ewma_drift",
    "mape",
    "relative_errors",
    "signed_bias",
    "summarize_calibration",
]

#: Default EWMA smoothing factor for the drift statistic: ~the last
#: seven observations dominate, matching the per-step cadence at the
#: default ``num_steps`` of the scheduler.
DRIFT_ALPHA = 0.3


def _valid(predicted: float, observed: float) -> bool:
    return (
        isfinite(predicted)
        and isfinite(observed)
        and predicted > 0.0
        and observed > 0.0
    )


def relative_errors(
    predicted: Sequence[float], observed: Sequence[float]
) -> list[float]:
    """Signed relative errors ``(p - o) / o`` over the valid pairs.

    Pairs with a non-finite or non-positive side are skipped (a NaN
    prediction means "the scheduler could not predict", not "infinitely
    wrong").
    """
    if len(predicted) != len(observed):
        raise ConfigurationError(
            f"predicted ({len(predicted)}) and observed ({len(observed)}) "
            "must pair up"
        )
    return [
        (p - o) / o for p, o in zip(predicted, observed) if _valid(p, o)
    ]


def mape(predicted: Sequence[float], observed: Sequence[float]) -> float:
    """Mean absolute percentage error over the valid pairs (NaN if none)."""
    errors = relative_errors(predicted, observed)
    if not errors:
        return float("nan")
    return left_sum(abs(e) for e in errors) / len(errors)


def signed_bias(
    predicted: Sequence[float], observed: Sequence[float]
) -> float:
    """Mean signed relative error over the valid pairs (NaN if none).

    Positive = over-prediction (device faster than modelled).
    """
    errors = relative_errors(predicted, observed)
    if not errors:
        return float("nan")
    return left_sum(errors) / len(errors)


def ewma_drift(
    rel_errors: Iterable[float], *, alpha: float = DRIFT_ALPHA
) -> float:
    """Final EWMA of a signed relative-error sequence (NaN if empty).

    ``drift_t = alpha * e_t + (1 - alpha) * drift_{t-1}``, seeded with
    the first error — the rolling tail the anomaly detector watches.
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
    drift = float("nan")
    for e in rel_errors:
        if not isfinite(e):
            continue
        drift = e if not isfinite(drift) else alpha * e + (1.0 - alpha) * drift
    return drift


@dataclass
class DeviceCalibration:
    """Streaming predicted-vs-observed accumulator for one device.

    Feed it completion-ordered ``(predicted_s, observed_s)`` pairs via
    :meth:`observe`; read the whole-run MAPE/bias and the rolling drift
    at any point.  Invalid pairs are counted (``skipped``) but excluded
    from every statistic.
    """

    device_id: str
    alpha: float = DRIFT_ALPHA
    count: int = 0
    skipped: int = 0
    _sum_abs: float = 0.0
    _sum_signed: float = 0.0
    _drift: float = float("nan")
    #: completion-ordered signed relative errors (the drift sparkline)
    series: list[float] = field(default_factory=list)

    def observe(self, predicted_s: float, observed_s: float) -> float | None:
        """Accumulate one pair; returns its relative error (None if skipped)."""
        if not _valid(predicted_s, observed_s):
            self.skipped += 1
            return None
        e = (predicted_s - observed_s) / observed_s
        self.count += 1
        self._sum_abs += abs(e)
        self._sum_signed += e
        self._drift = (
            e
            if not isfinite(self._drift)
            else self.alpha * e + (1.0 - self.alpha) * self._drift
        )
        self.series.append(e)
        return e

    @property
    def mape(self) -> float:
        return self._sum_abs / self.count if self.count else float("nan")

    @property
    def bias(self) -> float:
        return self._sum_signed / self.count if self.count else float("nan")

    @property
    def drift(self) -> float:
        return self._drift

    def to_dict(self, *, series: bool = True) -> dict:
        """JSON-friendly summary (NaN statistics become None); with
        ``series=False`` it leaves out the per-block :attr:`series`."""

        def clean(v: float) -> float | None:
            return v if isfinite(v) else None

        out = {
            "device": self.device_id,
            "blocks": self.count,
            "skipped": self.skipped,
            "mape": clean(self.mape),
            "bias": clean(self.bias),
            "drift": clean(self.drift),
        }
        if series:
            out["series"] = list(self.series)
        return out


def summarize_calibration(
    calibrations: Iterable[DeviceCalibration],
) -> dict[str, dict]:
    """Per-device summary dicts keyed by device id, insertion-ordered."""
    return {c.device_id: c.to_dict() for c in calibrations}
