"""The scheduler decision ledger: *why* every allocation happened.

The rest of the obs stack records what a run did (metrics, traces,
series); the ledger records the scheduler's side of the story.  Every
time PLB-HeC fixes block sizes — a probe round, the end-of-modeling
selection, a skew-triggered rebalance, a fault redistribution, a
fallback — it opens a :class:`DecisionRecord` capturing the full causal
chain: what triggered the decision, the per-device model state it was
made from, the solver outcome (or which fallback-chain stage fired),
the chosen allocation ``x_g`` and the predicted per-device block times.

The executor then closes the loop: each dispatched block is stamped
with the id of the decision that placed it, and on completion the
policy feeds the ``(predicted, observed)`` pair back via
:meth:`DecisionLedger.attribute`.  The ledger accumulates residuals per
(decision, device) and per-device whole-run calibration
(:mod:`repro.obs.calibration`), which is what ``repro explain``, the
``explain.jsonl`` artifact, the ``plbhec.calibration.*`` gauges and the
dashboard's "Scheduler decisions" and "Solver convergence" sections all
render.

Determinism: a ledger contains virtual times and pure solver/model
numbers only — no wall-clock timestamps — so two runs of the same
configuration (under a pinned overhead charge) produce byte-identical
ledgers.  The sweep engine caches a ledger's :meth:`~DecisionLedger.summary`
(counts, attribution, calibration statistics; no decision records, no
per-block calibration series) next to the
:class:`~repro.obs.report.RunReport`; the full ledger is read from the
live run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import isfinite
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.obs.artifact import (
    COUNT, FINITE, OBJECT, STR, check, list_of, map_of, one_of, read_json, write_json,
)
from repro.obs.calibration import DRIFT_ALPHA, DeviceCalibration
from repro.util.stats import left_sum

__all__ = [
    "EXPLAIN_SCHEMA",
    "DecisionRecord",
    "DecisionLedger",
    "read_explain",
    "validate_explain",
    "write_explain",
]

#: Version of the ``explain.jsonl`` line format.
EXPLAIN_SCHEMA = 1

#: Trigger vocabulary — every decision carries exactly one of these.
TRIGGERS = (
    "probe-round",
    "selection",
    "warm-start",
    "rebalance",
    "fault",
    "recovery",
)


def json_safe(obj: Any) -> Any:
    """Recursively replace non-finite floats with None.

    ``json.dumps`` would otherwise emit bare ``NaN`` tokens, which are
    not JSON and break strict parsers on the artifact's consumers.
    """
    if isinstance(obj, float):
        return obj if isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    return obj


@dataclass(frozen=True)
class DecisionRecord:
    """One scheduling decision: the allocation and everything behind it.

    Attributes
    ----------
    decision_id:
        Ledger-sequential id (``"d0000"``, ``"d0001"``, ...).
    trigger:
        Why the decision was taken — one of :data:`TRIGGERS`.
    t:
        Virtual time the decision was made at.
    phase:
        Scheduler phase (``"modeling"`` or ``"execution"``).
    allocation:
        Chosen integer block sizes per device (the ``x_g``).
    predicted:
        Predicted seconds per device for its allocated block (empty when
        no models existed, e.g. probe rounds).
    predicted_time:
        The common finish time T the solve predicted (NaN when
        unavailable).
    solver:
        Solver outcome: ``method``, ``converged``, ``iterations``,
        ``kkt_error``, ``solve_time_s`` and — on the degradation path —
        ``fallback_stage`` and ``error``.
    models:
        Per-device model state at decision time (basis, coefficients,
        R², profile-point count; see
        :meth:`~repro.modeling.perf_profile.DeviceModel.state_summary`).
    detail:
        Trigger-specific context (e.g. the skew value that tripped a
        rebalance).
    """

    decision_id: str
    trigger: str
    t: float
    phase: str
    allocation: dict[str, int] = field(default_factory=dict)
    predicted: dict[str, float] = field(default_factory=dict)
    predicted_time: float = float("nan")
    solver: dict = field(default_factory=dict)
    models: dict[str, dict] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trigger not in TRIGGERS:
            raise ConfigurationError(
                f"trigger must be one of {TRIGGERS}, got {self.trigger!r}"
            )


class _Residuals:
    """Per-(decision, device) predicted-vs-observed accumulator."""

    __slots__ = ("blocks", "units", "sum_pred", "sum_obs", "sum_abs", "sum_rel", "scored")

    def __init__(self) -> None:
        self.blocks = 0
        self.units = 0
        self.sum_pred = 0.0
        self.sum_obs = 0.0
        self.sum_abs = 0.0
        self.sum_rel = 0.0
        self.scored = 0

    def to_dict(self) -> dict:
        n = self.scored
        return {
            "blocks": self.blocks,
            "units": self.units,
            "mean_predicted_s": self.sum_pred / n if n else None,
            "mean_observed_s": self.sum_obs / n if n else None,
            "mape": self.sum_abs / n if n else None,
            "bias": self.sum_rel / n if n else None,
        }


class DecisionLedger:
    """Accumulates decisions and the observations attributed to them."""

    def __init__(self, run_id: str = "", *, alpha: float = DRIFT_ALPHA) -> None:
        self.run_id = run_id
        self.alpha = alpha
        self.decisions: list[DecisionRecord] = []
        self._by_id: dict[str, DecisionRecord] = {}
        self._observed: dict[str, dict[str, _Residuals]] = {}
        self._calibrations: dict[str, DeviceCalibration] = {}
        self.attributed_blocks = 0
        self.unattributed_blocks = 0

    # ------------------------------------------------------------------
    # decision side
    # ------------------------------------------------------------------
    def open_decision(
        self,
        *,
        trigger: str,
        t: float,
        phase: str,
        allocation: dict[str, int] | None = None,
        predicted: dict[str, float] | None = None,
        predicted_time: float = float("nan"),
        solver: dict | None = None,
        models: dict[str, dict] | None = None,
        detail: dict | None = None,
    ) -> str:
        """Record a new decision; returns its ledger id."""
        decision_id = f"d{len(self.decisions):04d}"
        record = DecisionRecord(
            decision_id=decision_id,
            trigger=trigger,
            t=float(t),
            phase=phase,
            allocation=dict(allocation or {}),
            predicted={k: float(v) for k, v in (predicted or {}).items()},
            predicted_time=float(predicted_time),
            solver=dict(solver or {}),
            models=dict(models or {}),
            detail=dict(detail or {}),
        )
        self.decisions.append(record)
        self._by_id[decision_id] = record
        self._observed[decision_id] = {}
        return decision_id

    @property
    def current_id(self) -> str | None:
        """Id of the decision currently governing dispatches (or None)."""
        return self.decisions[-1].decision_id if self.decisions else None

    def get(self, decision_id: str) -> DecisionRecord | None:
        """Look up a decision by id (None if unknown)."""
        return self._by_id.get(decision_id)

    # ------------------------------------------------------------------
    # observation side
    # ------------------------------------------------------------------
    def attribute(
        self,
        decision_id: str | None,
        device_id: str,
        *,
        units: int,
        predicted_s: float | None,
        observed_s: float,
    ) -> None:
        """Attribute one completed block back to the decision that placed it.

        A block carrying no (or an unknown) decision id is counted as
        unattributed — the explain report surfaces the coverage ratio,
        so attribution gaps are visible instead of silent.
        """
        if decision_id is None or decision_id not in self._observed:
            self.unattributed_blocks += 1
            return
        self.attributed_blocks += 1
        acc = self._observed[decision_id].setdefault(device_id, _Residuals())
        acc.blocks += 1
        acc.units += int(units)
        cal = self._calibrations.get(device_id)
        if cal is None:
            cal = self._calibrations[device_id] = DeviceCalibration(
                device_id, alpha=self.alpha
            )
        pred = float("nan") if predicted_s is None else float(predicted_s)
        e = cal.observe(pred, float(observed_s))
        if e is not None:
            acc.scored += 1
            acc.sum_pred += pred
            acc.sum_obs += float(observed_s)
            acc.sum_abs += abs(e)
            acc.sum_rel += e

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def observed_for(self, decision_id: str) -> dict[str, dict]:
        """Per-device residual aggregates of one decision."""
        return {
            d: acc.to_dict()
            for d, acc in self._observed.get(decision_id, {}).items()
        }

    def calibration(self) -> dict[str, DeviceCalibration]:
        """Per-device whole-run calibration accumulators."""
        return dict(self._calibrations)

    def device_calibration(self, device_id: str) -> DeviceCalibration | None:
        """One device's calibration accumulator (None before any block)."""
        return self._calibrations.get(device_id)

    def fallback_stages(self) -> list[str]:
        """Fallback-chain stages fired, in decision order."""
        return [
            d.solver["fallback_stage"]
            for d in self.decisions
            if d.solver.get("fallback_stage")
        ]

    def trigger_counts(self) -> dict[str, int]:
        """Decision counts keyed by trigger."""
        counts: dict[str, int] = {}
        for d in self.decisions:
            counts[d.trigger] = counts.get(d.trigger, 0) + 1
        return counts

    def _totals(self, *, series: bool) -> dict:
        """The whole-run fields both plain-data forms carry; ``series``
        keeps each device's per-block calibration series."""
        return {
            "calibration": {
                d: c.to_dict(series=series) for d, c in self._calibrations.items()
            },
            "attribution": {
                "attributed": self.attributed_blocks,
                "unattributed": self.unattributed_blocks,
            },
            "triggers": self.trigger_counts(),
            "fallback_stages": self.fallback_stages(),
        }

    def summary(self) -> dict:
        """:meth:`to_dict` with a ``decision_count`` in place of its
        ``decisions`` list, which is never built, and without each
        device's calibration ``series`` (the dashboard's sparkline reads
        it from the live run): the form sweep payloads cache (JSON-safe)."""
        return json_safe(
            {
                "schema": EXPLAIN_SCHEMA,
                "run_id": self.run_id,
                "decision_count": len(self.decisions),
                **self._totals(series=False),
            }
        )

    def to_dict(self) -> dict:
        """The full plain-data ledger (JSON-safe, deterministic order)."""
        decisions = []
        for d in self.decisions:
            decisions.append(
                {
                    "id": d.decision_id,
                    "trigger": d.trigger,
                    "t": d.t,
                    "phase": d.phase,
                    "allocation": dict(d.allocation),
                    "predicted": dict(d.predicted),
                    "predicted_time": d.predicted_time,
                    "solver": dict(d.solver),
                    "models": dict(d.models),
                    "detail": dict(d.detail),
                    "observed": self.observed_for(d.decision_id),
                }
            )
        return json_safe(
            {
                "schema": EXPLAIN_SCHEMA,
                "run_id": self.run_id,
                "decisions": decisions,
                **self._totals(series=True),
            }
        )


# ----------------------------------------------------------------------
# the explain.jsonl artifact
# ----------------------------------------------------------------------
def write_explain(ledger: "DecisionLedger | dict", path: str) -> int:
    """Write the ``explain.jsonl`` artifact; returns the line count.

    Line 1 is a header (schema, run id, coverage), then one line per
    decision (with its observed residuals), then one calibration
    summary line — the same run-id-correlated JSON-lines shape the
    structured event log uses, so the two artifacts join on ``run_id``.
    The write is atomic.
    """
    data = ledger.to_dict() if isinstance(ledger, DecisionLedger) else ledger
    run_id, decisions = data["run_id"], data["decisions"]
    keys = ("schema", "attribution", "triggers", "fallback_stages")
    header = {key: data[key] for key in keys}
    lines = [
        {"type": "header", "run_id": run_id, "decisions": len(decisions), **header},
        *({"type": "decision", "run_id": run_id, **d} for d in decisions),
        {"type": "calibration", "run_id": run_id, "devices": data["calibration"]},
    ]
    write_json(path, lines, "jsonl")
    return len(lines)


_LINES = list_of(OBJECT, nonempty=True)
_HEADER = {
    "type": one_of("header"), "schema": one_of(EXPLAIN_SCHEMA), "decisions": COUNT,
}
_DECISION = {
    "type": one_of("decision"), "id": STR, "trigger": one_of(*TRIGGERS), "t": FINITE,
    "phase": STR, "allocation": OBJECT, "solver": OBJECT, "observed": map_of(OBJECT),
}
_CALIBRATION = {"type": one_of("calibration"), "devices": map_of(OBJECT)}


def validate_explain(objs: Sequence[Any]) -> list[str]:
    """Schema-check parsed ``explain.jsonl`` lines; returns problems.

    Line 1 is the header, the last line the calibration summary, and
    every line between them a decision — as many as the header promises.
    """
    problems = check(objs, _LINES, "explain")
    if problems:
        return problems
    problems = check(objs[0], _HEADER, "line 1")
    for i, obj in enumerate(objs[1:-1], start=2):
        problems += check(obj, _DECISION, f"line {i}")
    if len(objs) < 2:
        return problems + ["explain artifact has no calibration line"]
    problems += check(objs[-1], _CALIBRATION, f"line {len(objs)}")
    if not problems and len(objs) - 2 != objs[0]["decisions"]:
        problems.append(
            f"header promises {objs[0]['decisions']} decisions, "
            f"found {len(objs) - 2}"
        )
    return problems


def read_explain(path: str) -> dict:
    """Parse and validate an ``explain.jsonl`` file into its summary view.

    Returns ``{"header", "decisions", "calibration"}``; raises
    :class:`ConfigurationError` on a malformed file.
    """
    objs = read_json(
        path, lines=True, validate=validate_explain, what="explain artifact"
    )
    return {"header": objs[0], "decisions": objs[1:-1], "calibration": objs[-1]}


def decision_rows(data: dict) -> Iterable[dict]:
    """Flatten a ledger dict into per-decision display rows.

    Shared by ``repro explain`` and the dashboard's decision table.
    """
    for d in data.get("decisions", []):
        observed = d.get("observed", {})
        blocks = sum(o.get("blocks", 0) for o in observed.values())
        mapes = [
            o["mape"] for o in observed.values() if o.get("mape") is not None
        ]
        yield {
            "id": d["id"],
            "t": d["t"],
            "trigger": d["trigger"],
            "phase": d["phase"],
            "method": d.get("solver", {}).get("method", ""),
            "fallback_stage": d.get("solver", {}).get("fallback_stage"),
            "iterations": d.get("solver", {}).get("iterations", 0),
            "kkt_error": d.get("solver", {}).get("kkt_error"),
            "predicted_time": d.get("predicted_time"),
            "devices": len(d.get("allocation", {})),
            "blocks": blocks,
            "mape": left_sum(mapes) / len(mapes) if mapes else None,
        }


def ledger_summary(data: Mapping[str, Any]) -> dict:
    """A ledger dict's headline numbers: decisions, block-attribution
    coverage and how often each fallback stage fired.

    Reads either form, :meth:`DecisionLedger.to_dict` or the
    :meth:`DecisionLedger.summary` sweep payloads carry.  Shared by
    ``repro explain``, the dashboard's decision tiles and the chaos
    scorecard's run rows.
    """
    attribution = data.get("attribution", {})
    attributed = int(attribution.get("attributed", 0) or 0)
    total = attributed + int(attribution.get("unattributed", 0) or 0)
    decisions = data.get("decisions")
    count = int(data.get("decision_count", 0)) if decisions is None else len(decisions)
    return {
        "decisions": count,
        "attributed": attributed,
        "total": total,
        "coverage": attributed / total if total else 0.0,
        # in first-fired order, as scorecards serialise them
        "fallback_stages": dict(Counter(data.get("fallback_stages", ()))),
    }
