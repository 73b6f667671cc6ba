"""Fault serialisation and seeded randomized fault-schedule generation.

Faults are the frozen dataclasses of :mod:`repro.runtime.faults`;
this module adds a canonical dict form (for sweep cache keys and
scorecard JSON) and a deterministic generator that turns
a seeded random stream into a mixed fault schedule scaled to a run's
fault-free horizon.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.artifact import from_data, to_data
from repro.runtime.faults import (
    DeviceFailure,
    Fault,
    Perturbation,
    TransferFault,
    TransientFailure,
)

__all__ = ["fault_to_dict", "fault_from_dict", "generate_schedule"]


def fault_to_dict(fault: Fault) -> dict:
    """Canonical JSON-safe form of any fault object."""
    if not isinstance(fault, Fault):
        raise ConfigurationError(f"unknown fault object {fault!r}")
    return to_data(fault)


def fault_from_dict(data: dict) -> Fault:
    """Inverse of :func:`fault_to_dict`; an absent field takes its default
    (schedules serialized before a knob existed)."""
    return from_data(Fault, data)


def generate_schedule(
    rng: np.random.Generator,
    device_ids: Sequence[str],
    horizon: float,
    *,
    max_faults: int = 2,
) -> tuple[Fault, ...]:
    """Draw one randomized fault schedule for a run.

    Parameters
    ----------
    rng:
        Seeded generator; the schedule is a pure function of its state.
    device_ids:
        The cluster's devices.  Kill-capable faults (permanent failures
        and transfer faults, which escalate to permanent on give-up)
        are drawn from a pool that always leaves one device alive, so a
        generated schedule can never be statically infeasible.
    horizon:
        The run's fault-free makespan; fault times land in the
        ``[15 %, 80 %]`` window of it, transient downtimes span
        5-30 % of it.
    max_faults:
        Upper bound on the number of faults drawn (at least 1).
    """
    if not device_ids:
        raise ConfigurationError("generate_schedule needs at least one device")
    if horizon <= 0.0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon}")
    if max_faults < 1:
        raise ConfigurationError(f"max_faults must be >= 1, got {max_faults}")
    ids = list(device_ids)
    # shuffled kill pool minus one survivor; non-lethal faults may
    # target any device
    pool = list(ids)
    rng.shuffle(pool)
    killable = pool[:-1]
    transient_used: set[str] = set()
    n_faults = int(rng.integers(1, max_faults + 1))
    schedule: list[Fault] = []
    for _ in range(n_faults):
        kind = rng.choice(
            ["failure", "transient", "perturbation", "transfer"],
            p=[0.2, 0.35, 0.3, 0.15],
        )
        t = float(rng.uniform(0.15, 0.8)) * horizon
        if kind in ("failure", "transfer") and not killable:
            kind = "transient"
        if kind == "transient" and set(ids) <= transient_used:
            kind = "perturbation"
        if kind == "failure":
            device = killable.pop()
            schedule.append(DeviceFailure(device, t))
        elif kind == "transient":
            candidates = [d for d in ids if d not in transient_used]
            device = candidates[int(rng.integers(len(candidates)))]
            transient_used.add(device)
            downtime = float(rng.uniform(0.05, 0.3)) * horizon
            schedule.append(TransientFailure(device, t, downtime))
        elif kind == "perturbation":
            device = ids[int(rng.integers(len(ids)))]
            factor = float(rng.uniform(1.3, 3.0))
            schedule.append(Perturbation(device, t, factor))
        else:
            device = killable.pop()
            duration = float(rng.uniform(0.05, 0.2)) * horizon
            schedule.append(TransferFault(device, t, duration))
    return tuple(schedule)
