"""Seeded open-loop job arrival streams.

The generator draws a non-homogeneous Poisson process by exponential
inter-arrival gaps at the instantaneous rate ``lambda(t)``: a constant
base rate, optionally modulated by a diurnal sinusoid (one "day" per
horizon) or a bursty square wave (short on-phases at several times the
base rate).  Every draw comes from a single named stream in arrival
order, so one seed fixes the whole trace — timestamps, tenants, app
templates and priorities alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs.artifact import from_data, to_data
from repro.sim.random import RandomStreams

__all__ = ["ArrivalSpec", "Arrival", "generate_arrivals", "PATTERNS"]

PATTERNS = ("constant", "diurnal", "bursty")

#: diurnal modulation depth: lambda swings rate * (1 +/- this)
_DIURNAL_DEPTH = 0.6
#: bursty square wave: on-phase multiplier / off-phase multiplier,
#: with ``_BURST_FRACTION`` of each period spent on
_BURST_ON = 3.0
_BURST_OFF = 0.5
_BURST_FRACTION = 0.25
_BURST_PERIODS = 8


@dataclass(frozen=True)
class Arrival:
    """One job submission instant drawn from the stream."""

    job_id: int
    time: float
    tenant: int
    template: int
    priority: int


@dataclass(frozen=True)
class ArrivalSpec:
    """What the open-loop stream looks like.

    Attributes
    ----------
    rate:
        Base arrival rate in jobs per virtual second.
    duration:
        Arrival horizon; jobs arrive in ``[0, duration)`` (the service
        keeps running after it to drain).
    pattern:
        ``constant``, ``diurnal`` or ``bursty`` rate modulation.
    tenants:
        Number of tenants; each arrival picks one uniformly.
    templates:
        ``(app_name, size)`` pairs; each arrival picks one uniformly.
        Template index is the job's cost-model identity.
    priority_levels:
        Priorities ``0 .. levels-1`` (higher is more important), drawn
        uniformly; the ``priority-shed`` policy consults them.
    """

    rate: float = 2.0
    duration: float = 30.0
    pattern: str = "constant"
    tenants: int = 2
    #: ideal service times ~0.16 s and ~0.45 s on the two-machine
    #: cluster: at the default rate the service sits near 60 %
    #: utilisation — busy enough to rebalance, healthy enough to drain
    templates: tuple[tuple[str, int], ...] = (
        ("matmul", 4096),
        ("stencil", 2048),
    )
    priority_levels: int = 3

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ConfigurationError(f"rate must be > 0, got {self.rate}")
        if self.duration <= 0.0:
            raise ConfigurationError(
                f"duration must be > 0, got {self.duration}"
            )
        if self.pattern not in PATTERNS:
            raise ConfigurationError(
                f"pattern must be one of {PATTERNS}, got {self.pattern!r}"
            )
        if self.tenants < 1:
            raise ConfigurationError(f"tenants must be >= 1, got {self.tenants}")
        if not self.templates:
            raise ConfigurationError("templates must be non-empty")
        if self.priority_levels < 1:
            raise ConfigurationError(
                f"priority_levels must be >= 1, got {self.priority_levels}"
            )

    def to_dict(self) -> dict:
        return to_data(self)

    @staticmethod
    def from_dict(data: dict) -> "ArrivalSpec":
        return from_data(ArrivalSpec, data)

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate ``lambda(t)``."""
        if self.pattern == "diurnal":
            phase = 2.0 * math.pi * t / self.duration
            return self.rate * (1.0 + _DIURNAL_DEPTH * math.sin(phase))
        if self.pattern == "bursty":
            period = self.duration / _BURST_PERIODS
            within = (t % period) / period
            mult = _BURST_ON if within < _BURST_FRACTION else _BURST_OFF
            return self.rate * mult
        return self.rate


def generate_arrivals(spec: ArrivalSpec, streams: RandomStreams) -> list[Arrival]:
    """Draw the full arrival trace for one service run.

    All randomness comes from the single ``arrivals`` stream in
    submission order, so the trace is a pure function of
    ``(streams.seed, spec)``.
    """
    rng = streams.stream("arrivals")
    arrivals: list[Arrival] = []
    t = 0.0
    job_id = 0
    while True:
        lam = max(spec.rate_at(t), 1e-9)
        t += float(rng.exponential(1.0 / lam))
        if t >= spec.duration:
            break
        arrivals.append(
            Arrival(
                job_id=job_id,
                time=t,
                tenant=int(rng.integers(spec.tenants)),
                template=int(rng.integers(len(spec.templates))),
                priority=int(rng.integers(spec.priority_levels)),
            )
        )
        job_id += 1
    return arrivals
