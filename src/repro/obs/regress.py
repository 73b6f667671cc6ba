"""Built-in anomaly detectors over a run's telemetry.

The detectors read a run's phase summary, metrics snapshot, idle
fractions, SLO report or critical-path analysis and encode the paper's
own health criteria: probing must stay a small fraction of the
application data (Sec. IV), per-device model fits should reach
R2 >= 0.7 before the solver trusts them, interior-point restorations
should be rare, and the whole point of PLB-HeC is a *balanced* load
(Fig. 7).  Each finding is emitted as a structured warning through the
event log and rendered by the dashboard.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs.events import EventLog
from repro.obs.metrics import _parse_series_key

__all__ = [
    "Anomaly",
    "detect_anomalies",
    "detect_slo_anomalies",
    "detect_critpath_anomalies",
]

_events = EventLog("obs.regress", level=logging.WARNING)

@dataclass(frozen=True)
class Anomaly:
    """One telemetry finding; severity is ``"warning"`` or ``"critical"``."""

    name: str
    severity: str
    message: str
    value: float
    threshold: float
    context: dict = field(default_factory=dict)


def _emit(findings: list[Anomaly]) -> None:
    """Log each finding as a structured ``anomaly.<name>`` instant."""
    for finding in findings:
        _events.instant(
            f"anomaly.{finding.name}",
            severity=finding.severity,
            value=round(finding.value, 6),
            threshold=finding.threshold,
            message=finding.message,
        )


#: Probing beyond this share of the application data defeats the point
#: of a short modeling phase (paper Sec. IV: ~10% observed).
PROBE_SHARE_THRESHOLD = 0.20

#: The policy's own trust floor for per-device fits.
R2_THRESHOLD = 0.7

#: Max-minus-min idle fraction beyond this is an imbalanced run.
IMBALANCE_THRESHOLD = 0.25

#: Feasibility restorations per interior-point solve beyond this are a
#: numerically struggling solver.
RESTORATION_RATE_THRESHOLD = 1.0

#: A per-device signed prediction bias beyond this magnitude means the
#: model systematically mis-sizes blocks for that device.
CALIBRATION_BIAS_THRESHOLD = 0.15

#: Per-device mean absolute prediction error beyond this means the
#: equal-finish-time partition is built on predictions that are wrong
#: by a quarter on average.
CALIBRATION_MAPE_THRESHOLD = 0.25


def _gauge_by_device(metrics: Mapping[str, Any], name: str) -> dict[str, float]:
    """Collect ``name{device=...}`` gauges into ``{device: value}``."""
    out: dict[str, float] = {}
    for key, value in metrics.get("gauges", {}).items():
        base, labels = _parse_series_key(key)
        if base == name and "device" in labels:
            out[labels["device"]] = float(value)
    return out


def detect_anomalies(
    *,
    phase_summary: Mapping[str, Any] | None = None,
    metrics: Mapping[str, Any] | None = None,
    idle_fractions: Mapping[str, float] | None = None,
    probe_share_threshold: float = PROBE_SHARE_THRESHOLD,
    r2_threshold: float = R2_THRESHOLD,
    imbalance_threshold: float = IMBALANCE_THRESHOLD,
    restoration_rate_threshold: float = RESTORATION_RATE_THRESHOLD,
    calibration_bias_threshold: float = CALIBRATION_BIAS_THRESHOLD,
    calibration_mape_threshold: float = CALIBRATION_MAPE_THRESHOLD,
    emit: bool = True,
) -> list[Anomaly]:
    """Run every built-in detector over one run's telemetry.

    Each finding is also emitted as a structured ``anomaly.<name>``
    warning through the event log (suppress with ``emit=False``), so
    JSON-lines consumers see them without rendering a dashboard.
    """
    findings: list[Anomaly] = []
    phase_summary = phase_summary or {}
    metrics = metrics or {}

    probe_share = float(phase_summary.get("probe", {}).get("unit_share", 0.0))
    if probe_share > probe_share_threshold:
        findings.append(
            Anomaly(
                name="probe-share",
                severity="warning",
                message=(
                    f"probe phase consumed {probe_share:.1%} of the application "
                    f"data (threshold {probe_share_threshold:.0%}); the modeling "
                    "phase is not amortising"
                ),
                value=probe_share,
                threshold=probe_share_threshold,
            )
        )

    r2 = _gauge_by_device(metrics, "plbhec.r2")
    weak = {d: v for d, v in r2.items() if v < r2_threshold}
    if weak:
        worst_dev = min(weak, key=weak.get)
        findings.append(
            Anomaly(
                name="low-r2",
                severity="warning",
                message=(
                    f"{len(weak)} device model(s) below R2 {r2_threshold} at solve "
                    f"time (worst: {worst_dev} at {weak[worst_dev]:.3f}); the "
                    "partition solver is extrapolating from a poor fit"
                ),
                value=weak[worst_dev],
                threshold=r2_threshold,
                context={"devices": dict(sorted(weak.items()))},
            )
        )

    if idle_fractions:
        values = [float(v) for v in idle_fractions.values()]
        spread = max(values) - min(values)
        if spread > imbalance_threshold:
            laziest = max(idle_fractions, key=idle_fractions.get)
            findings.append(
                Anomaly(
                    name="load-imbalance",
                    severity="critical",
                    message=(
                        f"idle-fraction spread {spread:.1%} across devices "
                        f"(threshold {imbalance_threshold:.0%}); {laziest} sat "
                        f"idle {idle_fractions[laziest]:.1%} of the run"
                    ),
                    value=spread,
                    threshold=imbalance_threshold,
                    context={"idle_fractions": dict(idle_fractions)},
                )
            )

    counters = metrics.get("counters", {})
    solves = float(counters.get("ipm.solves", 0.0))
    restorations = float(counters.get("ipm.restorations", 0.0))
    if solves > 0:
        rate = restorations / solves
        if rate > restoration_rate_threshold:
            findings.append(
                Anomaly(
                    name="ipm-restorations",
                    severity="warning",
                    message=(
                        f"{restorations:.0f} feasibility restorations over "
                        f"{solves:.0f} interior-point solve(s) "
                        f"({rate:.2f}/solve, threshold "
                        f"{restoration_rate_threshold:.1f}); the solver is "
                        "repeatedly leaving the feasible region"
                    ),
                    value=rate,
                    threshold=restoration_rate_threshold,
                )
            )

    bias = _gauge_by_device(metrics, "plbhec.calibration.bias")
    biased = {d: v for d, v in bias.items() if abs(v) > calibration_bias_threshold}
    if biased:
        worst_dev = max(biased, key=lambda d: abs(biased[d]))
        direction = "over" if biased[worst_dev] > 0 else "under"
        findings.append(
            Anomaly(
                name="calibration-bias",
                severity="warning",
                message=(
                    f"{len(biased)} device model(s) with systematic prediction "
                    f"bias beyond ±{calibration_bias_threshold:.0%} (worst: "
                    f"{worst_dev} {direction}-predicts by "
                    f"{abs(biased[worst_dev]):.1%}); block sizes for these "
                    "devices are consistently mis-targeted"
                ),
                value=biased[worst_dev],
                threshold=calibration_bias_threshold,
                context={"devices": dict(sorted(biased.items()))},
            )
        )

    mape = _gauge_by_device(metrics, "plbhec.calibration.mape")
    noisy = {d: v for d, v in mape.items() if v > calibration_mape_threshold}
    if noisy:
        worst_dev = max(noisy, key=noisy.get)
        findings.append(
            Anomaly(
                name="calibration-mape",
                severity="warning",
                message=(
                    f"{len(noisy)} device model(s) with mean absolute "
                    f"prediction error beyond {calibration_mape_threshold:.0%} "
                    f"(worst: {worst_dev} at {noisy[worst_dev]:.1%}); the "
                    "equal-finish-time partition rests on unreliable "
                    "predictions for these devices"
                ),
                value=noisy[worst_dev],
                threshold=calibration_mape_threshold,
                context={"devices": dict(sorted(noisy.items()))},
            )
        )

    if emit:
        _emit(findings)
    return findings


def detect_slo_anomalies(
    report: Mapping[str, Any], *, emit: bool = True
) -> list[Anomaly]:
    """Convert failing SLO objectives into :class:`Anomaly` findings.

    ``report`` is the plain dict produced by
    :func:`repro.obs.slo.evaluate_slo` (taken as a mapping here so this
    module stays import-cycle-free).  Each ``"fail"`` row becomes one
    finding named ``slo.<objective>`` carrying the objective's own
    severity; ``"no-data"`` rows are skipped — absence of telemetry is
    surfaced by the SLO report itself, not escalated as an anomaly.
    Findings are emitted as ``anomaly.slo.<objective>`` instants unless
    ``emit=False``, matching the other detectors.
    """
    findings: list[Anomaly] = []
    for row in report.get("objectives", []):
        if row.get("verdict") != "fail":
            continue
        name = str(row.get("name", "objective"))
        measured = row.get("measured")
        threshold = float(row.get("threshold", 0.0))
        budget = row.get("budget")
        if budget is not None:
            detail = (
                f"violating fraction "
                f"{float(row.get('violating_fraction') or 0.0):.1%} exceeds "
                f"error budget {float(budget):.1%}"
            )
        else:
            detail = (
                f"measured {measured} violates "
                f"{row.get('agg')}({row.get('series')}) "
                f"{row.get('op')} {threshold}"
            )
        findings.append(
            Anomaly(
                name=f"slo.{name}",
                severity=str(row.get("severity", "critical")),
                message=f"SLO {name} failed: {row.get('expr')} — {detail}",
                value=float(measured) if measured is not None else 0.0,
                threshold=threshold,
                context={
                    "expr": row.get("expr"),
                    "budget": budget,
                    "burn_rate": row.get("burn_rate"),
                    "first_violation_t": row.get("first_violation_t"),
                },
            )
        )
    if emit:
        _emit(findings)
    return findings


#: Device idle beyond this share of the critical path means the
#: bottleneck device repeatedly waits for nothing in particular — a
#: balanced PLB-HeC run keeps its slowest device saturated, so a large
#: idle share signals the partition (not the hardware) is the problem.
CRITPATH_IDLE_SHARE_THRESHOLD = 0.20

#: Solver stalls beyond this share of the critical path mean the
#: scheduler charges more than it saves; the paper's overhead-honesty
#: argument only holds while solve time stays a small tax on compute.
CRITPATH_SOLVER_SHARE_THRESHOLD = 0.25


def detect_critpath_anomalies(
    analysis: Mapping[str, Any],
    *,
    idle_share_threshold: float = CRITPATH_IDLE_SHARE_THRESHOLD,
    solver_share_threshold: float = CRITPATH_SOLVER_SHARE_THRESHOLD,
    emit: bool = True,
) -> list[Anomaly]:
    """Flag makespan-attribution pathologies in a critical-path analysis.

    ``analysis`` is the dict produced by
    :func:`repro.obs.critpath.analyze_trace` (or its cached
    ``payload_from_analysis`` form — only ``makespan`` and
    ``categories`` are read, so either works; taken as a mapping to
    keep this module import-cycle-free).

    Two absolute checks: device idle share above
    ``idle_share_threshold`` (``critpath.idle-share``) and solver share
    above ``solver_share_threshold`` (``critpath.solver-share``).

    Findings are advisory (``severity="warning"``): attribution tells
    you *where* the makespan went, not whether that is a regression.
    """
    findings: list[Anomaly] = []
    makespan = float(analysis.get("makespan", 0.0))
    categories = dict(analysis.get("categories", {}))
    if makespan <= 0.0:
        return findings
    shares = {k: float(v) / makespan for k, v in categories.items()}

    idle_share = shares.get("idle", 0.0)
    if idle_share > idle_share_threshold:
        findings.append(
            Anomaly(
                name="critpath.idle-share",
                severity="warning",
                message=(
                    f"device idle is {idle_share:.1%} of the critical "
                    f"path (threshold {idle_share_threshold:.0%}); the "
                    "bottleneck device starves — the partition leaves "
                    "headroom the solver should have claimed"
                ),
                value=idle_share,
                threshold=idle_share_threshold,
                context={"categories": {k: round(v, 6) for k, v in shares.items()}},
            )
        )

    solver_share = shares.get("solver", 0.0)
    if solver_share > solver_share_threshold:
        findings.append(
            Anomaly(
                name="critpath.solver-share",
                severity="warning",
                message=(
                    f"solver stalls are {solver_share:.1%} of the "
                    f"critical path (threshold "
                    f"{solver_share_threshold:.0%}); scheduling overhead "
                    "is eating the balance it buys — consider a larger "
                    "block size or fewer rebalances"
                ),
                value=solver_share,
                threshold=solver_share_threshold,
                context={"categories": {k: round(v, 6) for k, v in shares.items()}},
            )
        )

    if emit:
        _emit(findings)
    return findings
