"""The ``serve_scorecard.json`` document: schema, build, validate.

The scorecard is the service episode's single source of truth: job
accounting, latency percentiles, goodput, tenant fairness and every
robustness counter.  It contains only virtual-time quantities, so two
runs with equal configs (and equal seeds) serialize byte-identically —
the property the sweep cache and the serve chaos campaign rely on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from repro.obs.artifact import (
    COUNT, NON_NEGATIVE, OBJECT, STR, check, list_of, number, one_of, write_json,
)
from repro.obs.timeseries import jain_fairness
from repro.util.stats import left_sum

__all__ = [
    "SERVE_SCHEMA",
    "build_scorecard",
    "percentile",
    "validate_scorecard",
    "write_scorecard",
]

SERVE_SCHEMA = 1


def percentile(values: list[float], pct: float) -> float:
    """Deterministic nearest-rank percentile (values need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty list")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def build_scorecard(service) -> dict:
    """Assemble the scorecard from a finished :class:`ClusterService`."""
    counts = service.counts
    duration = service.end_time
    latencies = service.latencies
    latency: dict[str, float | None]
    if latencies:
        latency = {
            "p50": percentile(latencies, 50),
            "p95": percentile(latencies, 95),
            "p99": percentile(latencies, 99),
            "mean": left_sum(latencies) / len(latencies),
            "max": max(latencies),
        }
    else:
        latency = {"p50": None, "p95": None, "p99": None, "mean": None, "max": None}
    tenants = service.config.arrivals.tenants
    tenant_units = {
        str(t): int(service.balancer.tenant_served.get(t, 0))
        for t in range(tenants)
    }
    served = [float(v) for v in tenant_units.values()]
    goodput_jobs = counts["completed"] / duration if duration > 0 else 0.0
    goodput_units = service.served_units / duration if duration > 0 else 0.0
    terminal = (
        counts["completed"]
        + counts["rejected"]
        + counts["shed"]
        + counts["timeout"]
        + counts["failed"]
    )
    invariants = list(service.invariant_errors)
    invariants += list(service.admission.violations)
    if terminal != counts["submitted"]:
        invariants.append(
            f"job conservation broken: {counts['submitted']} submitted, "
            f"{terminal} in terminal states"
        )
    return {
        "schema": SERVE_SCHEMA,
        "config": service.config.to_dict(),
        "duration_s": float(duration),
        "jobs": {k: int(v) for k, v in counts.items()},
        "latency_s": latency,
        "goodput": {
            "jobs_per_s": float(goodput_jobs),
            "units_per_s": float(goodput_units),
        },
        "fairness": {
            "jain_tenants": (
                jain_fairness(served) if any(v > 0 for v in served) else None
            ),
            "tenant_units": tenant_units,
        },
        "retries": {
            "budget_per_tenant": int(service.config.retry_budget),
            "consumed": {
                str(t): int(service.retry_consumed.get(t, 0))
                for t in sorted(service.retry_consumed)
            },
            "budget_exhausted_jobs": int(service.budget_exhausted),
        },
        "breakers": {
            d: service.breakers[d].to_dict() for d in service.order
        },
        "balancer": service.balancer.to_dict(),
        "admission": {
            "limit": int(service.admission.limit),
            "policy": service.admission.policy,
            "max_depth": int(service.admission.max_depth),
        },
        "samples": int(service.samples_taken),
        "invariant_errors": invariants,
    }


_TERMINAL = ("completed", "rejected", "shed", "timeout", "failed")
_LATENCY = number(0, nullable=True)
_SPEC = {
    "schema": one_of(SERVE_SCHEMA),
    "duration_s": NON_NEGATIVE,
    "jobs": dict.fromkeys(("submitted", *_TERMINAL), COUNT),
    "latency_s": dict.fromkeys(("p50", "p95", "p99", "mean", "max"), _LATENCY),
    "goodput": dict.fromkeys(("jobs_per_s", "units_per_s"), NON_NEGATIVE),
    **dict.fromkeys(
        ("config", "fairness", "retries", "breakers", "balancer", "admission"), OBJECT
    ),
    "invariant_errors": list_of(STR),
}


def validate_scorecard(card: Mapping[str, Any]) -> list[str]:
    """Structural checks plus job conservation; returns problems."""
    problems = check(card, _SPEC)
    if not problems:
        jobs = card["jobs"]
        terminal = sum(jobs[k] for k in _TERMINAL)
        if terminal != jobs["submitted"]:
            problems.append(
                f"jobs do not conserve: submitted={jobs['submitted']} "
                f"terminal={terminal}"
            )
    return problems


def write_scorecard(path: str | Path, card: Mapping[str, Any]) -> Path:
    """Write the scorecard canonically (sorted keys, trailing newline)."""
    return write_json(path, card)
