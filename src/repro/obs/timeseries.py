"""Virtual-time cluster telemetry: sampler, series store, ``repro top``.

Everything the observability stack recorded so far is *post-hoc*: a
trace, a metrics snapshot, a ledger — all views of a finished run.  This
module watches the cluster **as a function of virtual time**: a
:class:`ClusterSampler` rides the discrete-event engine, waking at a
fixed virtual interval to record per-device utilization, queue depth,
outstanding/completed work, imbalance and Jain's fairness index into a
bounded ring-buffer :class:`TimeSeriesStore`.

Design constraints, in order of importance:

* **Byte-identical schedules.**  The sampler only *reads* simulation
  state; it never consumes randomness, never dispatches, and its pending
  tick is cancelled the instant the run is over, so the virtual clock
  (and therefore every trace byte) is identical with sampling on or
  off.  ``tests/obs/test_timeseries.py`` locks this in.
* **Zero cost when disabled.**  The executor's hot path pays one
  ``is not None`` check per dispatch/completion when no sampler is
  attached.
* **Deterministic.**  Samples are pure functions of the (seeded)
  simulation state, so series ride sweep payloads cache-compatibly and
  parallel sweeps merge series identical to serial ones.

The store's windowed aggregation (mean/max/p50/p95/p99) takes its
percentiles from :func:`repro.obs.metrics.percentile`, as the registry
does, and :func:`publish_windowed_gauges` exposes the aggregates as
``ts.*`` gauges for the Prometheus exposition.  ``series.jsonl`` is the
on-disk artifact (:func:`write_series` / :func:`read_series` /
:func:`validate_series`); :func:`render_top` turns it into the
``repro top`` terminal view.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.obs.artifact import (
    FINITE, NAME, STR, check, list_of, map_of, one_of, read_json, write_json,
)
from repro.obs.metrics import (
    _parse_series_key,
    _series_key,
    get_registry,
    percentile,
)
from repro.util.stats import left_sum

__all__ = [
    "SERIES_SCHEMA",
    "TimeSeriesStore",
    "ClusterSampler",
    "jain_fairness",
    "publish_windowed_gauges",
    "store_from_payload",
    "write_series",
    "read_series",
    "validate_series",
    "render_top",
    "sparkline",
]

#: ``series.jsonl`` schema version (header line ``schema`` field).
SERIES_SCHEMA = 1

#: Cluster-level series names a sampler records each tick.
CLUSTER_SERIES = (
    "queue_depth",
    "backlog_units",
    "outstanding_units",
    "completed_units",
    "goodput_units_per_s",
    "imbalance",
    "fairness",
)

#: Per-device series names (labelled ``{device=...}``).
DEVICE_SERIES = ("device_util", "device_idle_frac", "device_busy_s")


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` over ``values``.

    1.0 means perfectly even progress; ``1/n`` means one device did all
    the work.  An empty or all-zero input (nothing has progressed yet)
    is *defined* as perfectly fair, 1.0.
    """
    if not values:
        return 1.0
    total = float(left_sum(values))
    squares = float(left_sum(v * v for v in values))
    if squares <= 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


class TimeSeriesStore:
    """Bounded ring buffers of ``(t, value)`` samples, one per series.

    Series are keyed exactly like metrics-registry series
    (``name{label=value,...}`` with sorted label keys), so the store,
    the Prometheus exposition and the dashboard all agree on naming.
    Each series keeps at most ``max_points`` samples (oldest dropped
    first), bounding memory for arbitrarily long campaigns.
    """

    def __init__(self, *, max_points: int = 4096) -> None:
        if max_points < 1:
            raise ConfigurationError("max_points must be >= 1")
        self.max_points = int(max_points)
        self._series: dict[str, deque[tuple[float, float]]] = {}

    def record(self, name: str, t: float, value: float, /, **labels: str) -> None:
        """Append one sample to the named series (any label names)."""
        if not name:
            raise ConfigurationError("series name must be non-empty")
        key = _series_key(name, labels)
        buf = self._series.get(key)
        if buf is None:
            buf = self._series[key] = deque(maxlen=self.max_points)
        buf.append((float(t), float(value)))

    def keys(self) -> list[str]:
        """Series keys in first-recorded order."""
        return list(self._series)

    def points(self, key: str) -> list[tuple[float, float]]:
        """The ``(t, value)`` samples of one series key (empty if absent)."""
        return list(self._series.get(key, ()))

    def matching(self, name: str) -> dict[str, list[tuple[float, float]]]:
        """All series whose base name is ``name``, keyed by full key."""
        out = {}
        for key, buf in self._series.items():
            if _parse_series_key(key)[0] == name:
                out[key] = list(buf)
        return out

    def values(self, name: str) -> list[float]:
        """All sample values across every label set of ``name``, in time order."""
        merged: list[tuple[float, float]] = []
        for pts in self.matching(name).values():
            merged.extend(pts)
        merged.sort(key=lambda p: p[0])
        return [v for _, v in merged]

    def __len__(self) -> int:
        return sum(len(buf) for buf in self._series.values())

    def __bool__(self) -> bool:
        return any(self._series.values())

    def aggregate(
        self, key: str, *, t_min: float | None = None, t_max: float | None = None
    ) -> dict[str, float]:
        """Windowed aggregate of one series key.

        Returns ``{count, mean, min, max, last, p50, p95, p99}`` over the
        samples with ``t_min <= t <= t_max`` (whole series by default).
        Percentiles come from the metrics registry's :func:`percentile`,
        so the two aggregation paths can never disagree.
        An empty window returns ``{"count": 0}``.
        """
        window = [
            v
            for t, v in self._series.get(key, ())
            if (t_min is None or t >= t_min) and (t_max is None or t <= t_max)
        ]
        if not window:
            return {"count": 0}
        total = 0.0
        for v in window:
            total += v
        ordered = sorted(window)
        return {
            "count": len(window),
            "mean": total / len(window),
            "min": min(window),
            "max": max(window),
            "last": window[-1],
            "p50": percentile(ordered, 50.0),
            "p95": percentile(ordered, 95.0),
            "p99": percentile(ordered, 99.0),
        }

    def to_payload(self) -> dict[str, Any]:
        """A JSON-compatible dump (rides sweep payloads across processes)."""
        return {
            "max_points": self.max_points,
            "series": {k: [[t, v] for t, v in buf] for k, buf in self._series.items()},
        }


def store_from_payload(payload: Mapping[str, Any]) -> TimeSeriesStore:
    """Rebuild a :class:`TimeSeriesStore` from :meth:`~TimeSeriesStore.to_payload`."""
    store = TimeSeriesStore(max_points=int(payload.get("max_points", 4096)))
    for key, pts in payload.get("series", {}).items():
        name, labels = _parse_series_key(key)
        for t, v in pts:
            store.record(name, t, v, **labels)
    return store


class ClusterSampler:
    """Deterministic periodic sampler of a simulated cluster.

    Single-use: attach one instance to one
    :meth:`~repro.runtime.runtime.Runtime.run` call.  The executor calls
    :meth:`start` once the engine exists, notifies the sampler on every
    dispatch/completion/loss, and the sampler self-schedules its ticks
    on the engine — reading state only, so the simulated schedule is
    byte-identical with or without it.

    Parameters
    ----------
    interval:
        Virtual seconds between samples.  ``None`` or ``0.0`` means
        *auto*: the executor substitutes a deterministic estimate
        (~1/128th of the predicted makespan) at run start.
    store:
        Destination :class:`TimeSeriesStore` (a fresh bounded store by
        default).
    max_points:
        Ring size of the default store.
    """

    def __init__(
        self,
        interval: float | None = None,
        *,
        store: TimeSeriesStore | None = None,
        max_points: int = 4096,
    ) -> None:
        if interval is not None and interval < 0.0:
            raise ConfigurationError(
                f"sample interval must be >= 0, got {interval}"
            )
        if interval == 0.0:
            interval = None  # 0.0 is the CLI spelling of "auto"
        self.interval = interval
        self.store = store if store is not None else TimeSeriesStore(max_points=max_points)
        self.samples_taken = 0
        self._engine = None
        self._work_remaining: Callable[[], int] | None = None
        self._devices: tuple[str, ...] = ()
        self._total_units = 0
        self._task = None
        self._started = False
        # per-device busy accounting: closed intervals + the in-flight one
        self._closed_busy: dict[str, float] = {}
        self._inflight: dict[str, tuple[float, float, int]] = {}
        self._completed_units = 0
        self._last_t = 0.0
        self._last_busy: dict[str, float] = {}
        self._last_completed = 0

    # ------------------------------------------------------------------
    # executor-facing lifecycle
    # ------------------------------------------------------------------
    def start(
        self,
        engine,
        *,
        devices: Sequence[str],
        total_units: int,
        work_remaining: Callable[[], int],
    ) -> None:
        """Bind to a run and schedule the first tick.

        ``interval`` must be resolved (> 0) by the time this is called;
        the executor substitutes its auto estimate beforehand.
        """
        if self._started:
            raise ConfigurationError(
                "ClusterSampler is single-use: attach a fresh instance per run"
            )
        if not self.interval or self.interval <= 0.0:
            raise ConfigurationError(
                "sampler interval unresolved; pass interval > 0 or let the "
                "executor auto-derive it"
            )
        self._started = True
        self._engine = engine
        self._devices = tuple(devices)
        self._total_units = int(total_units)
        self._work_remaining = work_remaining
        self._closed_busy = {d: 0.0 for d in self._devices}
        self._last_busy = {d: 0.0 for d in self._devices}
        # keep ticking while the run can still progress: a deadlocked or
        # finished run must drain (bool(queue) is False once the tick
        # itself popped), or the sampler would keep the engine alive
        self._task = engine.schedule_periodic(
            self.interval,
            self._tick,
            tag="sample",
            continue_while=lambda: bool(engine.queue)
            and (self._work_remaining() > 0 or bool(self._inflight)),
        )

    def on_dispatch(self, worker_id: str, t0: float, t1: float, units: int) -> None:
        """A block now occupies ``worker_id`` over ``[t0, t1]``."""
        self._inflight[worker_id] = (float(t0), float(t1), int(units))

    def on_complete(self, worker_id: str, units: int) -> None:
        """The in-flight block on ``worker_id`` finished."""
        entry = self._inflight.pop(worker_id, None)
        if entry is not None:
            t0, t1, _ = entry
            self._closed_busy[worker_id] += max(0.0, t1 - t0)
        self._completed_units += int(units)

    def on_lost(self, worker_id: str, t: float) -> None:
        """The in-flight block on ``worker_id`` was lost at time ``t``.

        The device still *occupied* ``[t0, min(t, t1)]`` (it was
        transferring/retrying/executing right up to the loss), so that
        span counts as busy even though no task record will exist.
        """
        entry = self._inflight.pop(worker_id, None)
        if entry is not None:
            t0, t1, _ = entry
            self._closed_busy[worker_id] += max(0.0, min(float(t), t1) - t0)

    def stop(self) -> None:
        """Cancel the pending tick (the run is over; never extend the clock)."""
        if self._task is not None:
            self._task.cancel()

    def finish(self, t: float) -> None:
        """Take the closing sample at the makespan (no-op if already there)."""
        if self._started and t > self._last_t:
            self._sample(float(t))

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _busy_until(self, device: str, t: float) -> float:
        """Cumulative busy seconds of ``device`` up to time ``t``."""
        busy = self._closed_busy[device]
        entry = self._inflight.get(device)
        if entry is not None:
            t0, t1, _ = entry
            busy += max(0.0, min(t, t1) - t0)
        return busy

    def _tick(self, now: float) -> None:
        self._sample(now)

    def _sample(self, t: float) -> None:
        dt = t - self._last_t
        if dt <= 0.0:
            return
        record = self.store.record
        cumulative: dict[str, float] = {}
        for device in self._devices:
            busy = self._busy_until(device, t)
            cumulative[device] = busy
            util = min(max((busy - self._last_busy[device]) / dt, 0.0), 1.0)
            record("device_util", t, util, device=device)
            record("device_idle_frac", t, 1.0 - util, device=device)
            record("device_busy_s", t, busy, device=device)
            self._last_busy[device] = busy
        backlog = self._work_remaining()
        outstanding = sum(units for _, _, units in self._inflight.values())
        completed = self._completed_units
        record("queue_depth", t, float(len(self._engine.queue)))
        record("backlog_units", t, float(backlog))
        record("outstanding_units", t, float(outstanding))
        record("completed_units", t, float(completed))
        record("goodput_units_per_s", t, (completed - self._last_completed) / dt)
        progress = list(cumulative.values())
        lo, hi = min(progress), max(progress)
        # max/min cumulative progress; 0.0 flags "some device has not
        # started yet" rather than emitting an unbounded ratio
        record("imbalance", t, hi / lo if lo > 0.0 else 0.0)
        record("fairness", t, jain_fairness(progress))
        self._last_t = t
        self._last_completed = completed
        self.samples_taken += 1


# ----------------------------------------------------------------------
# Prometheus bridge
# ----------------------------------------------------------------------
def publish_windowed_gauges(
    store: TimeSeriesStore, registry=None, *, prefix: str = "ts"
) -> int:
    """Publish each series' windowed aggregates as ``<prefix>.*`` gauges.

    For every series the store holds, sets
    ``<prefix>.<name>.{mean,max,p50,p95,p99}`` gauges (with the series'
    own labels) on ``registry`` (the process default when omitted), so
    ``--metrics-format prom`` exports the telemetry without a second
    aggregation path.  Returns the number of gauges written.
    """
    if registry is None:
        registry = get_registry()
    written = 0
    for key in store.keys():
        agg = store.aggregate(key)
        if agg.get("count", 0) == 0:
            continue
        name, labels = _parse_series_key(key)
        for stat in ("mean", "max", "p50", "p95", "p99"):
            registry.set_gauge(f"{prefix}.{name}.{stat}", agg[stat], **labels)
            written += 1
    return written


# ----------------------------------------------------------------------
# series.jsonl (write / read / validate)
# ----------------------------------------------------------------------
def write_series(
    path: str | Path,
    store: TimeSeriesStore,
    *,
    run_id: str = "",
    interval: float | None = None,
    meta: Mapping[str, Any] | None = None,
) -> Path:
    """Write the store as a ``series.jsonl`` artifact (atomic).

    Line 1 is a header (``kind: header``) carrying the schema version,
    run id, sample interval and series inventory; every following line
    is one sample (``kind: sample``).  The writer validates its own
    output before moving it into place.
    """
    rows: list[dict[str, Any]] = [
        {
            "kind": "header",
            "schema": SERIES_SCHEMA,
            "run_id": run_id,
            "interval": interval,
            "series": store.keys(),
            "samples": len(store),
            "meta": dict(meta) if meta else {},
        }
    ]
    for key in store.keys():
        name, labels = _parse_series_key(key)
        rows += [
            {"kind": "sample", "series": name, "labels": labels, "t": t, "v": v}
            for t, v in store.points(key)
        ]
    return write_json(path, rows, "jsonl", validate=_series_problems, what="series")


def read_series(path: str | Path) -> tuple[dict[str, Any], TimeSeriesStore]:
    """Read a ``series.jsonl`` artifact back into ``(header, store)``.

    Validates before parsing; raises :class:`ConfigurationError` on a
    malformed file.
    """
    rows = read_json(path, lines=True, validate=_series_problems, what="series")
    store = TimeSeriesStore()
    for row in rows[1:]:
        store.record(row["series"], row["t"], row["v"], **row["labels"])
    return rows[0], store


def validate_series(lines: Iterable[str]) -> list[str]:
    """Schema-check ``series.jsonl`` content; returns a list of problems."""
    rows, problems = [], []
    for i, line in enumerate((ln for ln in lines if ln.strip()), 1):
        try:
            rows.append(json.loads(line))
        except (ValueError, RecursionError) as exc:
            problems.append(f"line {i}: not JSON: {exc}")
    return problems or _series_problems(rows)


_HEADER = {
    "kind": one_of("header"),
    "schema": one_of(SERIES_SCHEMA),
    "series": list_of(STR),
}
_SAMPLE = {
    "kind": one_of("sample"),
    "series": NAME,
    "labels": map_of(STR),
    "t": FINITE,
    "v": FINITE,
}


def _series_problems(rows: Sequence[Any]) -> list[str]:
    """Shape, declared keys, time order and count of parsed series rows."""
    if not rows:
        return ["empty file (missing header line)"]
    problems = check(rows[0], _HEADER, "line 1")
    if problems:
        return problems
    declared = set(rows[0]["series"])
    last_t: dict[str, float] = {}
    for i, row in enumerate(rows[1:], 2):
        if row_problems := check(row, _SAMPLE, f"line {i}"):
            problems += row_problems
            continue
        key = _series_key(row["series"], row["labels"])
        if declared and key not in declared:
            problems.append(f"line {i}: undeclared series {key!r}")
        if row["t"] < last_t.get(key, row["t"]):
            problems.append(f"line {i}: time goes backwards in {key!r}")
        last_t[key] = row["t"]
    samples = rows[0].get("samples")
    found = len(rows) - 1
    if isinstance(samples, int) and samples != found and not problems:
        problems.append(f"header declares {samples} samples, found {found}")
    return problems


# ----------------------------------------------------------------------
# `repro top`
# ----------------------------------------------------------------------
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(
    values: Sequence[float],
    *,
    width: int = 40,
    lo: float | None = None,
    hi: float | None = None,
) -> str:
    """A unicode block sparkline of ``values`` resampled to ``width`` cells.

    ``lo``/``hi`` pin the value range (e.g. 0..1 for utilizations);
    by default the range is the data's own min/max.
    """
    if not values:
        return ""
    if lo is None:
        lo = min(values)
    if hi is None:
        hi = max(values)
    span = hi - lo
    cells = []
    n = len(values)
    width = min(width, n) if n else width
    for i in range(width):
        # average the bucket of samples this cell covers
        a = i * n // width
        b = max((i + 1) * n // width, a + 1)
        v = left_sum(values[a:b]) / (b - a)
        frac = 0.0 if span <= 0 else (v - lo) / span
        frac = min(max(frac, 0.0), 1.0)
        cells.append(_SPARK_BLOCKS[round(frac * (len(_SPARK_BLOCKS) - 1))])
    return "".join(cells)


def render_top(
    header: Mapping[str, Any],
    store: TimeSeriesStore,
    *,
    width: int = 40,
    slo_report: Mapping[str, Any] | None = None,
) -> str:
    """The ``repro top`` frame: per-device strips + cluster health.

    Pure function of the series content (and optionally an SLO report),
    so CI can assert on it with ``--once``.
    """
    lines: list[str] = []
    utils = store.matching("device_util")
    serve_mode = False
    if not utils:
        # service episodes record serve_device_busy{device=} 0/1 flags
        # instead of batch device_util fractions
        serve_utils = store.matching("serve_device_busy")
        if serve_utils:
            utils = serve_utils
            serve_mode = True
    t_now = 0.0
    for pts in utils.values():
        if pts:
            t_now = max(t_now, pts[-1][0])
    run_id = header.get("run_id") or "-"
    interval = header.get("interval")
    lines.append(
        f"repro top — run {run_id}  t={t_now:.4f}s"
        + (f"  interval={interval:.4g}s" if interval else "")
    )
    lines.append("")
    if not utils:
        lines.append("(no device_util samples in this series file)")
        return "\n".join(lines)
    devices = {key: _parse_series_key(key)[1].get("device", key) for key in utils}
    name_w = max(len(device) for device in devices.values())
    busy_col = "busy" if serve_mode else "busy_s"
    lines.append(
        f"{'device'.ljust(name_w)}  util  {'timeline'.ljust(width)}  {busy_col}"
    )
    for key in sorted(utils):
        device = devices[key]
        pts = utils[key]
        values = [v for _, v in pts]
        current = values[-1] if values else 0.0
        if serve_mode:
            share = left_sum(values) / len(values) if values else 0.0
            busy_cell = f"{share:.0%} of samples"
        else:
            busy_pts = store.points(
                _series_key("device_busy_s", {"device": device})
            )
            busy = busy_pts[-1][1] if busy_pts else 0.0
            busy_cell = f"{busy:.4f}"
        lines.append(
            f"{device.ljust(name_w)}  {current:>4.0%}  "
            f"{sparkline(values, width=width, lo=0.0, hi=1.0).ljust(width)}  "
            f"{busy_cell}"
        )
    lines.append("")
    if serve_mode:
        backlog = [v for _, v in store.points("serve_backlog_jobs")]
        completed = [v for _, v in store.points("serve_completed_total")]
        done = completed[-1] if completed else 0.0
        in_flight = backlog[-1] if backlog else 0.0
        total = done + in_flight
        pct = done / total if total else 0.0
        lines.append(
            f"backlog   {sparkline(backlog, width=width, lo=0.0).ljust(width)}  "
            f"{int(in_flight)} jobs in flight ({pct:.0%} done)"
        )
        goodput = [v for _, v in store.points("serve_goodput_jobs_per_s")]
        if goodput:
            lines.append(
                f"goodput   "
                f"{sparkline(goodput, width=width, lo=0.0).ljust(width)}  "
                f"{goodput[-1]:,.2f} jobs/s"
            )
        fairness = [v for _, v in store.points("serve_tenant_fairness")]
        queue = [v for _, v in store.points("serve_queue_depth")]
        shed = [v for _, v in store.points("serve_shed_total")]
        summary = []
        if fairness:
            summary.append(f"tenant-fairness {fairness[-1]:.3f}")
        if queue:
            summary.append(f"queue {int(queue[-1])}")
        if shed:
            summary.append(f"shed {int(shed[-1])}")
        if summary:
            lines.append("  ".join(summary))
        return _render_top_slo(lines, slo_report)
    backlog = [v for _, v in store.points("backlog_units")]
    completed = [v for _, v in store.points("completed_units")]
    outstanding = [v for _, v in store.points("outstanding_units")]
    # Work conservation: queued + in-flight + done = the domain size at
    # every tick; the first sample already has units in flight, so the
    # total must count all three.
    total = (
        backlog[0] + outstanding[0] + completed[0]
        if backlog and outstanding and completed
        else 0.0
    )
    done = completed[-1] if completed else 0.0
    pct = done / total if total else 0.0
    lines.append(
        f"backlog   {sparkline(backlog, width=width, lo=0.0).ljust(width)}  "
        f"{int(backlog[-1]) if backlog else 0} units left ({pct:.0%} done)"
    )
    goodput = [v for _, v in store.points("goodput_units_per_s")]
    if goodput:
        lines.append(
            f"goodput   {sparkline(goodput, width=width, lo=0.0).ljust(width)}  "
            f"{goodput[-1]:,.0f} units/s"
        )
    fairness = [v for _, v in store.points("fairness")]
    imbalance = [v for _, v in store.points("imbalance")]
    queue = [v for _, v in store.points("queue_depth")]
    summary = []
    if fairness:
        summary.append(f"fairness {fairness[-1]:.3f}")
    if imbalance:
        summary.append(f"imbalance {imbalance[-1]:.2f}x")
    if queue:
        summary.append(f"queue {int(queue[-1])}")
    if summary:
        lines.append("  ".join(summary))
    return _render_top_slo(lines, slo_report)


def _render_top_slo(
    lines: list[str], slo_report: Mapping[str, Any] | None
) -> str:
    if slo_report:
        lines.append("")
        lines.append(f"SLO: {slo_report.get('spec', '-')}")
        for row in slo_report.get("objectives", []):
            verdict = row.get("verdict", "-")
            mark = {"pass": "ok", "fail": "FAIL", "no-data": "n/a"}.get(
                verdict, verdict
            )
            measured = row.get("measured")
            shown = f"{measured:.4g}" if isinstance(measured, (int, float)) else "-"
            lines.append(
                f"  [{mark:>4}] {row.get('name')}: {row.get('expr')} "
                f"(measured {shown})"
            )
    return "\n".join(lines)
