"""Declarative SLOs over cluster telemetry: spec, evaluator, alerts.

Sits on top of :mod:`repro.obs.timeseries`: an :class:`SLOSpec` is a
set of objectives written as small expressions over recorded series —

``p95(device_idle_frac) < 0.2`` · ``fairness > 0.9`` ·
``mean(goodput_units_per_s) >= 50000``

— and :func:`evaluate_slo` turns a spec plus a
:class:`~repro.obs.timeseries.TimeSeriesStore` into a JSON report with
one verdict row per objective.

Two evaluation modes per objective:

* **Aggregate** (``budget`` unset): the verdict is the aggregated value
  compared against the threshold — ``p95(x) < 0.2`` fails iff the
  whole-run p95 crosses 0.2.
* **Error budget** (``budget`` set): a fraction of *samples* is allowed
  to violate the point-wise condition; the verdict fails when the
  violating fraction exceeds the budget.  ``burn_rate`` reports how fast
  the budget is being consumed over a trailing sliding window
  (violating fraction in the window divided by the budget — > 1 means
  the budget will not survive the run).

A bare series name picks the *strictest* aggregate for the comparison
direction (``fairness > 0.9`` must hold at the minimum sample;
``imbalance < 3`` at the maximum), so an unadorned objective can never
pass on a lucky average.

Failing objectives become structured ``alert.slo.*`` events in the
EventLog (:func:`emit_slo_alerts`), anomaly findings for the dashboard
(:func:`repro.obs.regress.detect_slo_anomalies`), and instant markers
on the Chrome-trace scheduler track (via the ``alerts`` parameter of
:func:`repro.obs.trace_export.trace_to_chrome`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.obs.artifact import (
    ANY, BOOL, COUNT, STR, check, list_of, number, one_of, read_json, refuse,
    write_json,
)
from repro.obs.events import EventLog
from repro.obs.metrics import percentile
from repro.obs.timeseries import TimeSeriesStore

__all__ = [
    "SLO_REPORT_SCHEMA",
    "SLOObjective",
    "SLOSpec",
    "DEFAULT_SLO_SPEC",
    "load_slo_spec",
    "spec_from_dict",
    "evaluate_slo",
    "slo_alerts",
    "emit_slo_alerts",
    "write_slo_report",
    "validate_slo_report",
]

#: ``slo_report.json`` schema version.
SLO_REPORT_SCHEMA = 1

_events = EventLog("slo")

_AGGS = ("min", "max", "mean", "last", "p50", "p90", "p95", "p99")
_OPS = ("<=", ">=", "<", ">")
_EXPR_RE = re.compile(
    r"^\s*(?:(?P<agg>min|max|mean|last|p50|p90|p95|p99)\s*\(\s*"
    r"(?P<inner>[A-Za-z_][\w.]*)\s*\)|(?P<bare>[A-Za-z_][\w.]*))"
    r"\s*(?P<op><=|>=|<|>)\s*(?P<thr>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*$"
)


@dataclass(frozen=True)
class SLOObjective:
    """One objective: an aggregate (or budgeted point-wise) condition.

    Attributes
    ----------
    name:
        Stable identifier (used in alert/anomaly event names).
    expr:
        The source expression, e.g. ``"p95(device_idle_frac) < 0.2"``.
    series / agg / op / threshold:
        The parsed form.  ``agg`` is one of min/max/mean/last/p50/p90/
        p95/p99.
    budget:
        Optional error budget: the allowed fraction of point-wise
        violating samples (None = pure aggregate objective).
    window:
        Sliding-window length in virtual seconds for the burn rate
        (default: the trailing 25 % of the sampled span).
    severity:
        ``"critical"`` or ``"warning"`` — carried into alerts and
        anomaly findings.
    """

    name: str
    expr: str
    series: str
    agg: str
    op: str
    threshold: float
    budget: float | None = None
    window: float | None = None
    severity: str = "critical"

    def __post_init__(self) -> None:
        if self.agg not in _AGGS:
            raise ConfigurationError(f"unknown aggregate {self.agg!r}")
        if self.op not in _OPS:
            raise ConfigurationError(f"unknown comparison {self.op!r}")
        if self.budget is not None and not 0.0 <= self.budget < 1.0:
            raise ConfigurationError(
                f"error budget must be in [0, 1), got {self.budget}"
            )
        if self.window is not None and self.window <= 0.0:
            raise ConfigurationError(f"window must be > 0, got {self.window}")
        if self.severity not in ("critical", "warning"):
            raise ConfigurationError(
                f"severity must be 'critical' or 'warning', got {self.severity!r}"
            )

    def holds(self, value: float) -> bool:
        """Does ``value`` satisfy this objective's comparison?"""
        if self.op == "<":
            return value < self.threshold
        if self.op == "<=":
            return value <= self.threshold
        if self.op == ">":
            return value > self.threshold
        return value >= self.threshold


def parse_objective(
    name: str,
    expr: str,
    *,
    budget: float | None = None,
    window: float | None = None,
    severity: str = "critical",
) -> SLOObjective:
    """Parse ``AGG(series) OP number`` (or ``series OP number``).

    A bare series name gets the strictest aggregate for the comparison
    direction: ``min`` for ``>``/``>=`` objectives, ``max`` for
    ``<``/``<=``.
    """
    m = _EXPR_RE.match(expr)
    if m is None:
        raise ConfigurationError(
            f"cannot parse SLO expression {expr!r}; expected "
            "'AGG(series) OP number' with AGG in "
            f"{'/'.join(_AGGS)} or a bare series name"
        )
    op = m.group("op")
    if m.group("bare"):
        series = m.group("bare")
        agg = "min" if op in (">", ">=") else "max"
    else:
        series = m.group("inner")
        agg = m.group("agg")
    return SLOObjective(
        name=name,
        expr=expr.strip(),
        series=series,
        agg=agg,
        op=op,
        threshold=float(m.group("thr")),
        budget=budget,
        window=window,
        severity=severity,
    )


@dataclass(frozen=True)
class SLOSpec:
    """A named set of objectives (what ``--slo FILE`` loads)."""

    name: str
    objectives: tuple[SLOObjective, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ConfigurationError("an SLO spec needs at least one objective")
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate objective names in {names}")


_SPEC_SHAPE = {"objectives": list_of({"expr": ANY}, nonempty=True)}


def spec_from_dict(doc: Mapping[str, Any]) -> SLOSpec:
    """Build an :class:`SLOSpec` from its JSON form.

    Expected shape::

        {"name": "...", "description": "...",
         "objectives": [{"name": "...", "expr": "p95(x) < 0.2",
                         "budget": 0.05, "window": 0.5,
                         "severity": "warning"}, ...]}
    """
    refuse(check(doc, _SPEC_SHAPE, "SLO spec"), "invalid SLO spec")
    objectives = []
    for i, row in enumerate(doc["objectives"]):
        objectives.append(
            parse_objective(
                str(row.get("name") or f"objective-{i}"),
                str(row["expr"]),
                budget=row.get("budget"),
                window=row.get("window"),
                severity=str(row.get("severity", "critical")),
            )
        )
    return SLOSpec(
        name=str(doc.get("name", "slo")),
        objectives=tuple(objectives),
        description=str(doc.get("description", "")),
    )


def load_slo_spec(path: str | Path) -> SLOSpec:
    """Load and validate an SLO spec JSON file."""
    return spec_from_dict(read_json(path, what="SLO spec"))


#: The default objectives ``repro dashboard`` and chaos campaigns
#: evaluate: generous enough that a healthy fault-free run passes, tight
#: enough that a wedged device or collapsed goodput shows up.
DEFAULT_SLO_SPEC = SLOSpec(
    name="default",
    description="baseline cluster health: devices mostly busy, progress "
    "shared fairly, work actually completing",
    objectives=(
        parse_objective(
            # mean, not p95: per-window idle is near-binary, so any
            # device fully idle for 5% of windows (normal during the
            # probe phase) would pin p95 at 1.0 and fail healthy runs.
            "device-idle", "mean(device_idle_frac) < 0.9", severity="warning"
        ),
        parse_objective("fairness", "mean(fairness) > 0.5"),
        parse_objective("completion", "last(backlog_units) <= 0"),
        parse_objective("goodput", "max(goodput_units_per_s) > 0"),
    ),
)


def _aggregate(values: list[float], agg: str) -> float:
    if agg == "min":
        return min(values)
    if agg == "max":
        return max(values)
    if agg == "mean":
        return sum(values) / len(values)
    if agg == "last":
        return values[-1]
    return percentile(sorted(values), float(agg[1:]))


def evaluate_slo(
    spec: SLOSpec,
    store: TimeSeriesStore,
    *,
    run_id: str = "",
) -> dict[str, Any]:
    """Evaluate every objective of ``spec`` against ``store``.

    Returns the ``slo_report.json`` document: one row per objective with
    a ``verdict`` of ``"pass"``, ``"fail"`` or ``"no-data"`` (a series
    the run never recorded), plus the overall ``ok`` (no objective
    failed — missing data is surfaced, not failed).
    """
    rows: list[dict[str, Any]] = []
    for obj in spec.objectives:
        merged: list[tuple[float, float]] = []
        for pts in store.matching(obj.series).values():
            merged.extend(pts)
        merged.sort(key=lambda p: p[0])
        row: dict[str, Any] = {
            "name": obj.name,
            "expr": obj.expr,
            "series": obj.series,
            "agg": obj.agg,
            "op": obj.op,
            "threshold": obj.threshold,
            "severity": obj.severity,
            "budget": obj.budget,
            "samples": len(merged),
        }
        if not merged:
            row.update(
                measured=None, verdict="no-data", violating_samples=0,
                violating_fraction=0.0, burn_rate=None, first_violation_t=None,
            )
            rows.append(row)
            continue
        values = [v for _, v in merged]
        measured = _aggregate(values, obj.agg)
        violating = [(t, v) for t, v in merged if not obj.holds(v)]
        fraction = len(violating) / len(merged)
        t_lo, t_hi = merged[0][0], merged[-1][0]
        window = obj.window
        if window is None:
            window = max((t_hi - t_lo) * 0.25, 1e-12)
        w_pts = [(t, v) for t, v in merged if t >= t_hi - window]
        w_frac = (
            sum(1 for t, v in w_pts if not obj.holds(v)) / len(w_pts)
            if w_pts
            else 0.0
        )
        if obj.budget is not None:
            ok = fraction <= obj.budget + 1e-12
            burn = w_frac / obj.budget if obj.budget > 0 else None
        else:
            ok = obj.holds(measured)
            burn = None
        row.update(
            measured=measured,
            verdict="pass" if ok else "fail",
            violating_samples=len(violating),
            violating_fraction=fraction,
            window=window,
            window_violating_fraction=w_frac,
            burn_rate=burn,
            first_violation_t=violating[0][0] if violating else None,
        )
        rows.append(row)
    failed = [r for r in rows if r["verdict"] == "fail"]
    return {
        "schema": SLO_REPORT_SCHEMA,
        "spec": spec.name,
        "description": spec.description,
        "run_id": run_id,
        "ok": not failed,
        "objectives": rows,
        "evaluated": len(rows),
        "violations": len(failed),
        "no_data": sum(1 for r in rows if r["verdict"] == "no-data"),
    }


# ----------------------------------------------------------------------
# alerts
# ----------------------------------------------------------------------
def slo_alerts(report: Mapping[str, Any]) -> list[dict[str, Any]]:
    """The alert list for a report's failing objectives.

    Each alert carries the virtual time to stamp on the trace (the first
    violating sample when the objective has one, else 0.0 — an
    aggregate breach has no single onset).
    """
    alerts = []
    for row in report.get("objectives", []):
        if row.get("verdict") != "fail":
            continue
        t = row.get("first_violation_t")
        alerts.append(
            {
                "name": f"slo:{row['name']}",
                "objective": row["name"],
                "expr": row.get("expr", ""),
                "severity": row.get("severity", "critical"),
                "t": float(t) if t is not None else 0.0,
                "measured": row.get("measured"),
                "threshold": row.get("threshold"),
                "message": (
                    f"SLO {row['name']} violated: {row.get('expr')} "
                    f"(measured {row.get('measured')})"
                ),
            }
        )
    return alerts


def emit_slo_alerts(report: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Emit one ``alert.slo.<objective>`` EventLog instant per violation.

    Returns the alerts (same as :func:`slo_alerts`) so callers can also
    stamp them onto the trace export.
    """
    alerts = slo_alerts(report)
    for alert in alerts:
        measured = alert.get("measured")
        _events.instant(
            f"alert.slo.{alert['objective']}",
            severity=alert["severity"],
            expr=alert["expr"],
            measured=round(measured, 6) if isinstance(measured, float) else measured,
            threshold=alert.get("threshold"),
            virtual_t=alert["t"],
            message=alert["message"],
        )
    return alerts


# ----------------------------------------------------------------------
# slo_report.json (write / validate)
# ----------------------------------------------------------------------
def write_slo_report(path: str | Path, report: Mapping[str, Any]) -> Path:
    """Write ``slo_report.json`` (validated, atomic)."""
    return write_json(path, report, validate=validate_slo_report, what="SLO report")


_OBJECTIVE = {
    **dict.fromkeys(("name", "expr", "series", "agg", "op"), STR),
    "verdict": one_of("pass", "fail", "no-data"),
    "measured": number(nullable=True),
}
_REPORT = {
    "schema": one_of(SLO_REPORT_SCHEMA),
    "ok": BOOL,
    "objectives": list_of(_OBJECTIVE, nonempty=True),
    "violations": COUNT,
}


def validate_slo_report(report: Mapping[str, Any]) -> list[str]:
    """Schema-check an SLO report dict; returns a list of problems."""
    problems = check(report, _REPORT)
    if problems:
        return problems
    fails = sum(row["verdict"] == "fail" for row in report["objectives"])
    if report["violations"] != fails:
        problems.append(
            f"'violations' says {report['violations']} but "
            f"{fails} objectives failed"
        )
    if report["ok"] and fails:
        problems.append("'ok' is true but objectives failed")
    return problems
