"""Critical-path extraction and 100 % makespan attribution.

PLB-HeC's claims are *lower makespan* and *lower device idleness* than
profile-free balancers; this module answers the follow-up question the
raw numbers cannot: **why** was the makespan what it was, and where is
the remaining headroom?

The analysis builds a causality chain over a completed
:class:`~repro.sim.trace.ExecutionTrace` and walks it *backwards* from
the makespan:

* per-worker busy chains come from the ``TaskRecord`` intervals
  (``start_time``/``end_time``, split into retry / transfer / exec
  segments);
* dispatch barriers come from the executor's timing contract — a record
  whose ``start_time`` exceeds its ``dispatch_time`` was stalled by a
  charged model-fit/solve overhead (``solver_overhead_times``), so the
  gap is scheduler time by construction;
* failure → recovery → re-dispatch edges come from ``failures`` /
  ``recoveries`` / ``lost_blocks``: gaps that fall inside a device
  down-window are fault recovery, and completions whose data range was
  previously lost are rework;
* everything else separating two causally-linked events is device idle.

Because the walk partitions ``[0, makespan]`` into contiguous,
non-overlapping segments, the category totals sum to the makespan *by
construction* (``abs(sum(categories) - makespan) < 1e-9`` — asserted by
``repro why --assert-bound`` and the CI smoke step).

On top of the attribution the module derives **what-if lower bounds**
(all provably ``<= makespan``):

* ``zero_transfer`` — makespan minus transfer time on the critical path
  (perfect interconnect);
* ``zero_scheduler`` — makespan minus solver stalls on the path (free
  partitioning decisions);
* ``perfect_balance`` — ``total_work / total_rate`` with per-device
  rates measured from the trace (the Σwork/Σspeed oracle of the
  functional-performance-model literature, cf. Lastovetsky et al.);
* ``device_speedup`` — per device, the makespan if that device computed
  ``speedup_factor``× faster (only its on-path exec time shrinks).

The resulting document (``critpath.json``) is schema-validated by
:func:`validate_critpath`, ridden into sweep payloads by
:func:`payload_from_analysis` (deterministic, so warm-cache / parallel
replays are byte-identical), flagged into the Chrome trace export, and
summarised in the dashboard's "Critical path" section.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Mapping

from repro.obs.artifact import (
    ANY, FINITE, NON_NEGATIVE, check, list_of, map_of, number, one_of, refuse,
    write_json,
)
from repro.sim.trace import ExecutionTrace, TaskRecord

__all__ = [
    "CRITPATH_SCHEMA",
    "CATEGORIES",
    "analyze_trace",
    "category_shares",
    "payload_from_analysis",
    "validate_critpath",
    "write_critpath",
]

#: Bump when the analysis document layout changes incompatibly.
CRITPATH_SCHEMA = 1

#: Every makespan second lands in exactly one of these buckets.
CATEGORIES = (
    "compute",
    "transfer",
    "idle",
    "solver",
    "retries",
    "fault_recovery",
    "rework",
)

#: Attribution must be exact to this absolute tolerance (the acceptance
#: bar: ``abs(sum(categories) - makespan) < 1e-9``).
ATTRIBUTION_TOLERANCE = 1e-9

#: Default k for the per-device "if X were k× faster" sensitivity.
DEFAULT_SPEEDUP_FACTOR = 2.0


def _down_windows(trace: ExecutionTrace) -> list[tuple[float, float]]:
    """Device down-windows [t_down, t_up), open ones capped at makespan.

    Failures pair with recoveries by :meth:`ExecutionTrace.down_windows`
    (the fault-isolation invariant's pairing rule); unpaired failures are
    permanent and stay down until the end of the run.
    """
    windows: list[tuple[float, float]] = []
    for _device, t_down, t_up in trace.down_windows():
        t_up = trace.makespan if t_up is None else min(t_up, trace.makespan)
        if t_up > t_down:
            windows.append((t_down, t_up))
    return _merge_intervals(windows)


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of half-open intervals, sorted and coalesced."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _lost_ranges(trace: ExecutionTrace) -> list[tuple[float, int, int]]:
    """(loss_time, start_unit, end_unit) for range-tracked lost blocks."""
    return [
        (t, start, start + units)
        for t, _device, units, start in trace.lost_blocks
        if start >= 0 and units > 0
    ]


def _is_rework(
    record: TaskRecord, lost: list[tuple[float, int, int]]
) -> bool:
    """A record reprocesses lost data iff its range intersects a range
    lost *before* it was dispatched."""
    if record.start_unit < 0 or not lost:
        return False
    lo, hi = record.start_unit, record.start_unit + record.units
    for t_lost, l_lo, l_hi in lost:
        if record.dispatch_time >= t_lost and lo < l_hi and l_lo < hi:
            return True
    return False


def analyze_trace(
    trace: ExecutionTrace,
    *,
    speedup_factor: float = DEFAULT_SPEEDUP_FACTOR,
) -> dict[str, Any]:
    """Extract the critical path and attribute 100 % of the makespan.

    Returns the ``critpath.json`` document (see module docstring);
    :func:`validate_critpath` checks the shape and the invariants.
    """
    # k < 1 would put a bound above the makespan; k = 0 divides by zero
    where = f"speedup_factor {speedup_factor!r}"
    refuse(check(speedup_factor, number(1), where), "invalid argument")
    makespan = float(trace.makespan)
    eps = 1e-12 * max(1.0, makespan)
    down = _down_windows(trace)
    lost = _lost_ranges(trace)
    worker_index = {w: i for i, w in enumerate(trace.worker_ids)}

    # ------------------------------------------------------------------
    # backward walk: partition [0, makespan] into attributed segments
    # ------------------------------------------------------------------
    segments: dict[str, list[float]] = {cat: [] for cat in CATEGORIES}
    transfer_on_path: list[float] = []          # incl. rework transfers
    exec_on_path: dict[str, list[float]] = {}   # per device, incl. rework
    path: list[dict[str, Any]] = []             # built backwards
    consumed: set[int] = set()
    cursor = makespan
    end_times = [(r.end_time, i) for i, r in enumerate(trace.records)]
    max_steps = 4 * len(trace.records) + 16

    def add(cat: str, length: float) -> None:
        if length > 0.0:
            segments[cat].append(length)

    for _ in range(max_steps):
        if cursor <= eps:
            break
        # predecessor: a record ending exactly at the cursor
        candidates = [
            i
            for t, i in end_times
            if i not in consumed and abs(t - cursor) <= eps
        ]
        if candidates:
            # deterministic tie-break: longest busy interval first, then
            # stable worker order, then data range
            best = min(
                candidates,
                key=lambda i: (
                    trace.records[i].start_time,
                    worker_index.get(trace.records[i].worker_id, 1 << 30),
                    trace.records[i].start_unit,
                ),
            )
            r = trace.records[best]
            consumed.add(best)
            start = min(r.start_time, cursor)
            rework = _is_rework(r, lost)
            # forward sub-segments within [start, cursor]:
            #   retry | transfer | exec  (exec absorbs rounding residue)
            retry_end = min(start + r.retry_time, cursor)
            transfer_end = min(retry_end + r.transfer_time, cursor)
            add("retries", retry_end - start)
            add("rework" if rework else "transfer", transfer_end - retry_end)
            add("rework" if rework else "compute", cursor - transfer_end)
            transfer_on_path.append(transfer_end - retry_end)
            exec_on_path.setdefault(r.worker_id, []).append(cursor - transfer_end)
            path.append(
                {
                    "kind": "task",
                    "worker": r.worker_id,
                    "start": start,
                    "end": cursor,
                    "units": r.units,
                    "phase": r.phase,
                    "decision": r.decision,
                    "rework": rework,
                    "cause": "busy",
                }
            )
            if r.dispatch_time < start - eps:
                # the executor only delays a dispatched block for one
                # reason: a charged solver overhead stalls the worker
                add("solver", start - r.dispatch_time)
                path.append(
                    {
                        "kind": "solver",
                        "worker": r.worker_id,
                        "start": r.dispatch_time,
                        "end": start,
                        "cause": "solver-stall",
                    }
                )
                cursor = r.dispatch_time
            else:
                cursor = min(start, cursor)
            continue
        # no completion at the cursor: a causal gap.  Its lower edge is
        # the latest earlier event (completion, failure, recovery) — or
        # t=0 when nothing precedes it.
        prev = 0.0
        for t, i in end_times:
            if i not in consumed and t < cursor - eps:
                prev = max(prev, t)
        for t, _d in trace.failures:
            if t < cursor - eps:
                prev = max(prev, t)
        for t, _d in trace.recoveries:
            if t < cursor - eps:
                prev = max(prev, t)
        # carve the gap into fault-recovery (inside down-windows) and
        # genuine idle, in chronological order
        pieces: list[tuple[float, float, str]] = []
        at = prev
        for w_start, w_end in down:
            lo, hi = max(w_start, at), min(w_end, cursor)
            if hi > lo:
                if lo > at:
                    pieces.append((at, lo, "idle"))
                pieces.append((lo, hi, "fault_recovery"))
                at = hi
        if cursor > at:
            pieces.append((at, cursor, "idle"))
        for g_start, g_end, cat in reversed(pieces):
            add(cat, g_end - g_start)
            path.append(
                {
                    "kind": cat,
                    "start": g_start,
                    "end": g_end,
                    "cause": "downtime" if cat == "fault_recovery" else "wait",
                }
            )
        cursor = prev
    else:
        # safety valve: never under-attribute, even on a trace that
        # violates the walk's assumptions (the busy-overlap invariant
        # in repro.resilience.invariants catches the real culprits)
        if cursor > eps:
            add("idle", cursor)
            path.append(
                {"kind": "idle", "start": 0.0, "end": cursor, "cause": "wait"}
            )

    path.reverse()
    categories = {cat: math.fsum(segments[cat]) for cat in CATEGORIES}
    attributed = math.fsum(v for vals in segments.values() for v in vals)

    # ------------------------------------------------------------------
    # what-if lower bounds (each provably <= makespan)
    # ------------------------------------------------------------------
    total_units = trace.total_units()
    rate_sum = 0.0
    for worker in trace.worker_ids:
        units = sum(r.units for r in trace.records if r.worker_id == worker)
        busy = trace.busy_time(worker)
        if units > 0 and busy > 0.0:
            # busy <= makespan, so rate >= units / makespan and the
            # Σwork/Σspeed quotient cannot exceed the observed makespan
            rate_sum += units / busy
    bounds: dict[str, Any] = {
        "zero_transfer": max(0.0, makespan - math.fsum(transfer_on_path)),
        "zero_scheduler": max(0.0, makespan - categories["solver"]),
        "perfect_balance": (total_units / rate_sum) if rate_sum > 0.0 else 0.0,
        "speedup_factor": float(speedup_factor),
        "device_speedup": {
            worker: max(
                0.0,
                makespan
                - (1.0 - 1.0 / speedup_factor)
                * math.fsum(exec_on_path.get(worker, [])),
            )
            for worker in trace.worker_ids
        },
    }

    # ------------------------------------------------------------------
    # bottleneck device + decision blame (the ledger join)
    # ------------------------------------------------------------------
    on_path_busy: dict[str, dict[str, float]] = {}
    for node in path:
        if node["kind"] != "task":
            continue
        agg = on_path_busy.setdefault(
            node["worker"], {"busy_s": 0.0, "tasks": 0.0, "units": 0.0}
        )
        agg["busy_s"] += node["end"] - node["start"]
        agg["tasks"] += 1
        agg["units"] += node["units"]
    bottleneck: dict[str, Any] = {}
    if on_path_busy:
        name = max(
            on_path_busy,
            key=lambda w: (on_path_busy[w]["busy_s"], -worker_index.get(w, 0)),
        )
        agg = on_path_busy[name]
        bottleneck = {
            "device": name,
            "busy_s": agg["busy_s"],
            "share": agg["busy_s"] / makespan if makespan > 0.0 else 0.0,
            "tasks": int(agg["tasks"]),
            "units": int(agg["units"]),
        }
    blame: dict[str, dict[str, float]] = {}
    for node in path:
        if node["kind"] != "task" or not node["decision"]:
            continue
        agg = blame.setdefault(node["decision"], {"tasks": 0.0, "busy_s": 0.0})
        agg["tasks"] += 1
        agg["busy_s"] += node["end"] - node["start"]
    decisions = [
        {"id": did, "tasks": int(agg["tasks"]), "busy_s": agg["busy_s"]}
        for did, agg in sorted(
            blame.items(), key=lambda kv: (-kv[1]["busy_s"], kv[0])
        )
    ]

    return {
        "schema": CRITPATH_SCHEMA,
        "makespan": makespan,
        "total_units": total_units,
        "categories": categories,
        "attributed": attributed,
        "path": path,
        "path_tasks": sum(1 for n in path if n["kind"] == "task"),
        "bounds": bounds,
        "bottleneck": bottleneck,
        "decisions": decisions,
        "devices_on_path": {
            w: agg["busy_s"] for w, agg in sorted(on_path_busy.items())
        },
    }


def category_shares(analysis: Mapping[str, Any]) -> dict[str, float]:
    """Per-category fraction of the makespan (all zero for empty runs)."""
    makespan = float(analysis.get("makespan", 0.0) or 0.0)
    cats = analysis.get("categories", {})
    if makespan <= 0.0:
        return {cat: 0.0 for cat in CATEGORIES}
    return {cat: float(cats.get(cat, 0.0)) / makespan for cat in CATEGORIES}


def payload_from_analysis(analysis: Mapping[str, Any]) -> dict[str, Any]:
    """The compact, deterministic form carried in sweep payloads.

    Drops the per-node ``path`` (which can run to hundreds of entries)
    but keeps everything the compare tables, chaos scorecards and
    regression detectors consume.  Pure dict-of-plain-data in, pure
    dict-of-plain-data out: replaying from a warm cache or under a
    different job count yields byte-identical JSON.
    """
    return {
        "schema": analysis["schema"],
        "makespan": analysis["makespan"],
        "categories": dict(analysis["categories"]),
        "attributed": analysis["attributed"],
        "path_tasks": analysis["path_tasks"],
        "bounds": {
            "zero_transfer": analysis["bounds"]["zero_transfer"],
            "zero_scheduler": analysis["bounds"]["zero_scheduler"],
            "perfect_balance": analysis["bounds"]["perfect_balance"],
            "speedup_factor": analysis["bounds"]["speedup_factor"],
            "device_speedup": dict(analysis["bounds"]["device_speedup"]),
        },
        "bottleneck": dict(analysis["bottleneck"]),
        "decisions": [dict(d) for d in analysis["decisions"]],
    }


_BOUNDS = ("zero_transfer", "zero_scheduler", "perfect_balance")
_SPEC = {
    "schema": one_of(CRITPATH_SCHEMA),
    "makespan": NON_NEGATIVE,
    # fsum rounding may leave a category a hair below zero
    "categories": dict.fromkeys(CATEGORIES, number(-ATTRIBUTION_TOLERANCE)),
    "attributed": FINITE,
    "path": list_of(ANY),
    "bounds": {
        **dict.fromkeys(_BOUNDS, NON_NEGATIVE),
        "device_speedup": map_of(NON_NEGATIVE),
    },
}


def validate_critpath(doc: Mapping[str, Any]) -> list[str]:
    """Schema-check an analysis document; returns problems (empty = ok).

    Checks the two hard guarantees alongside the shape: the categories
    sum to the makespan within :data:`ATTRIBUTION_TOLERANCE`, and every
    what-if bound is at most the observed makespan.
    """
    problems = check(doc, _SPEC)
    if problems:
        return problems
    makespan, cats, bounds = doc["makespan"], doc["categories"], doc["bounds"]
    if set(cats) != set(CATEGORIES):
        problems.append(f"categories must carry exactly {sorted(CATEGORIES)}")
    total = math.fsum(cats.values())
    if abs(total - makespan) >= ATTRIBUTION_TOLERANCE:
        problems.append(
            f"categories sum to {total!r}, not the makespan {makespan!r} "
            f"(off by {abs(total - makespan):.3e})"
        )
    if makespan > 0 and not doc["path"]:
        problems.append("non-zero makespan but empty critical path")
    limits = [(f"bound {name!r}", bounds[name]) for name in _BOUNDS]
    limits += [
        (f"device_speedup[{device!r}]", value)
        for device, value in bounds["device_speedup"].items()
    ]
    problems += [
        f"{name} = {value!r} exceeds the makespan {makespan!r}"
        for name, value in limits
        if value > makespan + ATTRIBUTION_TOLERANCE
    ]
    return problems


def write_critpath(path: str | Path, analysis: Mapping[str, Any]) -> Path:
    """Validate and atomically write an analysis to ``critpath.json``.

    Raises
    ------
    ConfigurationError
        When the analysis fails :func:`validate_critpath` — a broken
        attribution artifact is worse than none.
    """
    return write_json(path, analysis, validate=validate_critpath, what="critpath")
