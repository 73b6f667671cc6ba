"""Append-only run/campaign history store (JSONL).

Every sweep execution (with ``REPRO_HISTORY`` set) and every ``repro
chaos`` campaign leaves a *trajectory*: one JSON line per event,
appended to ``.repro_history/history.jsonl`` (or wherever
``REPRO_HISTORY`` points).  The ``kind`` field says what an entry is:
``run`` (a run's outcome samples), ``calibration`` (a run's per-device
prediction accuracy) or ``chaos`` (a campaign's survival summary).
Each entry also carries what a later comparison needs to decide whether
two entries are comparable at all:

* a **host fingerprint** (platform, python, cpu count) plus its hash —
  black-box performance numbers do not transfer across machines
  (Stevens & Klöckner, arXiv:1904.09538);
* the **config hash** of what ran (grid/app/policy/seed), so only
  like-for-like samples are pooled;
* the **git revision**, so a trend line can be mapped back to commits.

The store is deliberately dumb: append-only JSON lines, no index, no
locking beyond O_APPEND atomicity for the line sizes involved.  Query
helpers filter in memory — history files stay small (hundreds of
entries) for the lifetime of a repo.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.obs.artifact import ANY, COUNT, OBJECT, check, map_of, one_of, refuse
from repro.obs.report import config_hash
from repro.util.logging import get_logger

__all__ = [
    "HISTORY_SCHEMA",
    "DEFAULT_HISTORY_DIR",
    "HistoryStore",
    "run_entry",
    "chaos_entry",
    "calibration_entry",
    "host_fingerprint",
    "fingerprint_hash",
    "git_rev",
    "validate_entry",
]

_log = get_logger("obs.history")

#: Bump when the entry layout changes incompatibly.
#: ("2": a profiled flag on the since-retired ``bench`` kind; "3": the
#: ``chaos`` kind records campaign scorecards; "4": the ``calibration``
#: kind records per-device prediction-accuracy summaries from scheduler
#: decision ledgers.)
HISTORY_SCHEMA = 4

#: Default store location, relative to the working directory.
DEFAULT_HISTORY_DIR = ".repro_history"

#: Each entry kind's own fields, and the fields every entry carries.
_KIND_FIELDS = {
    "run": {"samples": {"makespan": ANY}},
    "chaos": {"summary": {"survival_rate": ANY}},
    "calibration": {"devices": map_of({"mape": ANY}, nonempty=True)},
}
_ENTRY = {
    "schema": COUNT,
    "kind": one_of(*_KIND_FIELDS),
    "host": OBJECT,
    **dict.fromkeys(("recorded_at", "host_hash", "config_hash"), ANY),
}


def host_fingerprint() -> dict[str, Any]:
    """The machine identity performance numbers are only valid on."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def fingerprint_hash(fingerprint: Mapping[str, Any] | None = None) -> str:
    """Short stable hash of a host fingerprint (default: this host)."""
    blob = json.dumps(
        dict(fingerprint if fingerprint is not None else host_fingerprint()),
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def git_rev(cwd: str | os.PathLike[str] | None = None) -> str | None:
    """The current git revision, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def validate_entry(entry: Mapping[str, Any]) -> list[str]:
    """Schema-check one entry; returns a list of problems (empty = ok)."""
    return check(entry, _ENTRY) or check(entry, _KIND_FIELDS[entry["kind"]])


def _stamp(entry: dict[str, Any]) -> dict[str, Any]:
    """Fill the shared bookkeeping fields an entry may omit."""
    entry.setdefault("schema", HISTORY_SCHEMA)
    entry.setdefault("recorded_at", time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    entry.setdefault("host", host_fingerprint())
    entry.setdefault("host_hash", fingerprint_hash(entry["host"]))
    entry.setdefault("git_rev", git_rev())
    return entry


def run_entry(report: Mapping[str, Any], *, wall_s: float | None = None) -> dict[str, Any]:
    """Build a history entry from a RunReport dict (sweep payloads)."""
    entry: dict[str, Any] = {
        "kind": "run",
        "run_id": report.get("run_id"),
        "config": dict(report.get("config", {})),
        "config_hash": report["config_hash"],
        "samples": {
            "makespan": report["makespan"],
            "solver_overhead_s": report.get("solver_overhead_s"),
            "rebalances": report.get("rebalances"),
        },
    }
    if wall_s is not None:
        entry["samples"]["wall_s"] = float(wall_s)
    return _stamp(entry)


def chaos_entry(scorecard: Mapping[str, Any]) -> dict[str, Any]:
    """Build a history entry from a chaos-campaign scorecard.

    The config hash covers the campaign grid (apps, sizes, policies,
    seed, fault budget), so survival-rate trends pool like-for-like
    campaigns only.
    """
    config = dict(scorecard.get("config", {}))
    policies = {
        name: {
            "survival_rate": agg.get("survival_rate"),
            "mean_degradation": agg.get("mean_degradation"),
            "mean_recovery_lag": agg.get("mean_recovery_lag"),
            "violations": agg.get("violations"),
        }
        for name, agg in dict(scorecard.get("policies", {})).items()
    }
    total = int(scorecard.get("total_runs", 0) or 0)
    survived = int(scorecard.get("survived_runs", 0) or 0)
    entry: dict[str, Any] = {
        "kind": "chaos",
        "config": config,
        "config_hash": config_hash(config),
        "summary": {
            "survival_rate": survived / total if total else 0.0,
            "total_runs": total,
            "survived_runs": survived,
            "total_violations": int(scorecard.get("total_violations", 0) or 0),
            "all_invariants_ok": bool(scorecard.get("all_invariants_ok")),
            "policies": policies,
        },
    }
    return _stamp(entry)


def calibration_entry(
    report: Mapping[str, Any], ledger: Mapping[str, Any]
) -> dict[str, Any]:
    """Build a history entry from a run's decision-ledger calibration.

    ``report`` is the RunReport dict the ledger belongs to (supplies the
    config/config-hash/run-id identity, so the entry joins the run's
    ``run`` entry on its config hash); ``ledger`` is the ledger's
    ``to_dict`` form.
    """
    devices = {
        device: {
            "mape": summary.get("mape"),
            "bias": summary.get("bias"),
            "drift": summary.get("drift"),
            "blocks": summary.get("blocks"),
            "skipped": summary.get("skipped"),
        }
        for device, summary in dict(ledger.get("calibration", {})).items()
    }
    attribution = dict(ledger.get("attribution", {}))
    # the ledger lists fired stages in decision order; the history
    # entry stores the per-stage counts (the chaos scorecard's shape)
    stages: dict[str, int] = {}
    for stage in ledger.get("fallback_stages", ()):
        stages[stage] = stages.get(stage, 0) + 1
    entry: dict[str, Any] = {
        "kind": "calibration",
        "run_id": report.get("run_id") or ledger.get("run_id"),
        "config": dict(report.get("config", {})),
        "config_hash": report["config_hash"],
        "devices": devices,
        "summary": {
            "decisions": len(ledger.get("decisions", ())),
            "attributed": attribution.get("attributed"),
            "unattributed": attribution.get("unattributed"),
            "triggers": dict(ledger.get("triggers", {})),
            "fallback_stages": stages,
        },
    }
    return _stamp(entry)


class HistoryStore:
    """The append-only JSONL store with filtering query helpers.

    ``root`` may be a directory (entries live in ``<root>/history.jsonl``)
    or a path ending in ``.jsonl`` (used verbatim).
    """

    def __init__(self, root: str | os.PathLike[str] = DEFAULT_HISTORY_DIR) -> None:
        root = Path(root)
        if root.suffix == ".jsonl":
            self.path = root
            self.root = root.parent
        else:
            self.root = root
            self.path = root / "history.jsonl"

    @staticmethod
    def from_env() -> "HistoryStore | None":
        """Honour ``REPRO_HISTORY``: off / ``1`` = default dir / a path."""
        value = os.environ.get("REPRO_HISTORY", "").strip()
        if value in ("", "0", "off", "false", "no"):
            return None
        if value in ("1", "on", "true", "yes"):
            return HistoryStore(DEFAULT_HISTORY_DIR)
        return HistoryStore(value)

    # ------------------------------------------------------------------
    def append(self, entry: Mapping[str, Any]) -> dict[str, Any]:
        """Stamp, validate and append one entry; returns the stored form.

        Raises
        ------
        ConfigurationError
            When the entry fails :func:`validate_entry` — a malformed
            entry would silently poison every later comparison.
        """
        stored = _stamp(dict(entry))
        refuse(validate_entry(stored), "refusing to append malformed history entry")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(stored, sort_keys=True, default=str)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return stored

    def entries(
        self,
        *,
        kind: str | None = None,
        config_hash: str | None = None,
        host_hash: str | None = None,
        last: int | None = None,
    ) -> list[dict[str, Any]]:
        """Entries in append order, filtered; corrupt lines are skipped.

        ``last`` keeps only the newest ``last`` matching entries (none
        for 0); a negative ``last`` raises :class:`ConfigurationError`.
        """
        if last is not None and last < 0:
            raise ConfigurationError(f"last must be >= 0, got {last}")
        out: list[dict[str, Any]] = []
        try:
            lines: Iterable[str] = self.path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            return out
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                _log.warning("skipping corrupt history line %s:%d", self.path, lineno)
                continue
            if not isinstance(entry, dict):
                _log.warning("skipping non-object history line %s:%d", self.path, lineno)
                continue
            if kind is not None and entry.get("kind") != kind:
                continue
            if config_hash is not None and entry.get("config_hash") != config_hash:
                continue
            if host_hash is not None and entry.get("host_hash") != host_hash:
                continue
            out.append(entry)
        if last is not None:
            out = out[max(len(out) - last, 0):]
        return out
