"""Self-contained HTML observability dashboard (``repro dashboard``).

One static file that answers "what changed and why" for a run of the
reproduction: per-policy makespan and idleness (the shape of the
paper's Figs. 4-7), solver convergence (each solve's method, steps and
KKT error, from the live run's decision ledger), a per-worker Gantt
strip rendered from the :class:`~repro.sim.trace.ExecutionTrace`, and
the anomaly findings from :mod:`repro.obs.regress`.

Constraints, enforced by the tests:

* **zero dependencies** — stdlib only, charts are hand-rolled inline
  SVG;
* **self-contained** — no external requests of any kind (no CDN
  scripts, fonts, or images), so the artifact renders identically from
  a CI upload, an airgapped machine, or a mail attachment;
* **both color schemes** — light and dark are separately chosen
  palettes (not an automatic inversion), switched on
  ``prefers-color-scheme``.

Chart conventions follow one system: categorical series colors are
assigned to policies in fixed order (never cycled), marks are thin with
rounded data-ends, values are directly labeled at bar tips (two light
series sit below 3:1 contrast on the light surface, so labels + the
table views carry the numbers), text wears text tokens rather than
series colors, and every mark has a ``<title>`` hover tooltip.
"""

from __future__ import annotations

import html
import math
import os
import platform
import subprocess
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.obs.artifact import write_text
from repro.obs.ledger import decision_rows, ledger_summary
from repro.obs.metrics import _parse_series_key
from repro.obs.regress import Anomaly
from repro.util.stats import left_sum

if TYPE_CHECKING:  # the render stack is imported lazily: repro.obs is
    # loaded by low-level modules (sim.engine), and importing the
    # experiment/simulator layers here would close an import cycle
    from repro.experiments.runner import SweepPoint
    from repro.sim.trace import ExecutionTrace

__all__ = [
    "DashboardData",
    "chaos_dashboard_data",
    "collect_dashboard_data",
    "render_dashboard",
    "write_dashboard",
]

#: ``&``, ``<`` and ``>`` as entities, quotes kept (the escape SVG and
#: HTML text need, without the HTTP and email stack ``xml.sax`` loads)
escape = partial(html.escape, quote=False)

#: Fixed categorical assignment: paper policies in presentation order.
#: (Validated 4-slot palette; light/dark steps of the same hues.)
_SERIES_VARS = ("--series-1", "--series-2", "--series-3", "--series-4")

_CSS = """
:root { color-scheme: light; }
body {
  margin: 0; padding: 0 0 48px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834;
  --series-3: #1baf7a; --series-4: #eda100;
  --status-good: #0ca30c; --status-warning: #fab219;
  --status-serious: #ec835a; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root { color-scheme: dark; }
  body {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926;
    --series-3: #199e70; --series-4: #c98500;
  }
}
main { max-width: 960px; margin: 0 auto; padding: 0 20px; }
header.page { max-width: 960px; margin: 0 auto; padding: 28px 20px 4px; }
h1 { font-size: 22px; font-weight: 600; margin: 0 0 4px; }
h2 { font-size: 16px; font-weight: 600; margin: 0 0 2px; }
.sub { color: var(--text-secondary); font-size: 13px; margin: 0 0 6px; }
.meta { color: var(--text-muted); font-size: 12px; }
section {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 18px 20px 16px; margin: 16px 0;
}
.hero { display: flex; gap: 32px; align-items: baseline; flex-wrap: wrap; }
.hero .value { font-size: 48px; font-weight: 600; line-height: 1.1; }
.tiles { display: flex; gap: 24px; flex-wrap: wrap; margin: 8px 0 4px; }
.tile .label { color: var(--text-secondary); font-size: 12px; }
.tile .value { font-size: 24px; font-weight: 600; }
.tile .hint { color: var(--text-muted); font-size: 11px; }
.legend { display: flex; gap: 16px; flex-wrap: wrap; margin: 6px 0 10px;
  font-size: 12px; color: var(--text-secondary); }
.legend .key { display: inline-flex; align-items: center; gap: 6px; }
.swatch { width: 10px; height: 10px; border-radius: 3px; display: inline-block; }
svg { display: block; }
svg text { font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
.axis-label { font-size: 11px; fill: var(--text-muted); }
.value-label { font-size: 11px; fill: var(--text-primary); }
.series-label { font-size: 11px; fill: var(--text-secondary); }
.axis-line { stroke: var(--axis); stroke-width: 1; }
.gridline { stroke: var(--grid); stroke-width: 1; }
table { border-collapse: collapse; font-size: 12px; margin-top: 10px; width: 100%; }
th { text-align: left; color: var(--text-secondary); font-weight: 600; }
th, td { padding: 3px 10px 3px 0; border-bottom: 1px solid var(--grid); }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.anomaly { display: flex; gap: 10px; align-items: baseline; padding: 6px 0;
  border-bottom: 1px solid var(--grid); font-size: 13px; }
.anomaly:last-child { border-bottom: none; }
.badge { font-size: 11px; font-weight: 600; padding: 1px 8px; border-radius: 8px;
  color: #fff; white-space: nowrap; }
.badge.warning { background: var(--status-serious); }
.badge.critical { background: var(--status-critical); }
.allclear { color: var(--status-good); font-size: 13px; font-weight: 600; }
.empty { color: var(--text-muted); font-size: 13px; font-style: italic; }
details.table-view summary { color: var(--text-muted); font-size: 12px;
  cursor: pointer; margin-top: 8px; }
footer { max-width: 960px; margin: 0 auto; padding: 8px 20px;
  color: var(--text-muted); font-size: 12px; }
"""


@dataclass
class DashboardData:
    """Everything one rendered dashboard shows."""

    config: dict = field(default_factory=dict)
    generated_at: str = ""
    host: dict = field(default_factory=dict)
    git_rev: str | None = None
    point: SweepPoint | None = None
    trace: ExecutionTrace | None = None
    trace_policy: str = "plb-hec"
    anomalies: list[Anomaly] = field(default_factory=list)
    profile: dict = field(default_factory=dict)
    #: chaos-campaign scorecard (``repro chaos`` output); empty = none
    resilience: dict = field(default_factory=dict)
    #: decision ledger of the live run (``DecisionLedger.to_dict`` form)
    ledger: dict = field(default_factory=dict)
    #: virtual-time telemetry of the live run (``interval``, ``samples``,
    #: and a ``TimeSeriesStore.to_payload`` store); empty = not sampled
    series: dict = field(default_factory=dict)
    #: SLO evaluation (``repro.obs.slo.evaluate_slo`` report) over it
    slo: dict = field(default_factory=dict)
    #: critical-path analysis of the live run
    #: (``repro.obs.critpath.analyze_trace`` document); empty = no trace
    critpath: dict = field(default_factory=dict)


def _host_fingerprint() -> dict[str, Any]:
    """The machine the header's numbers were measured on."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def _git_rev() -> str | None:
    """The current git revision, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def collect_dashboard_data(
    *,
    app: str = "matmul",
    size: int = 16384,
    machines: int = 4,
    seed: int = 0,
    noise: float = 0.005,
    replications: int = 2,
    jobs: int | None = None,
    scorecard: Mapping[str, Any] | None = None,
) -> DashboardData:
    """Run the workload and gather every section's inputs.

    The policy comparison goes through the sweep engine (so
    ``REPRO_JOBS``/``REPRO_CACHE`` apply); every other section reads
    one live PLB-HeC run of the same scenario: its trace, per-run
    metrics delta, sampled series, profile and decision ledger (whose
    solves the convergence section shows).  Nothing else is fitted or
    solved.
    """
    from repro.cluster import paper_cluster
    from repro.experiments.runner import make_application, make_policy, run_policies
    from repro.obs.critpath import analyze_trace
    from repro.obs.metrics import get_registry
    from repro.obs.profiler import profiling
    from repro.obs.regress import (
        detect_anomalies,
        detect_critpath_anomalies,
        detect_slo_anomalies,
    )
    from repro.obs.slo import DEFAULT_SLO_SPEC, evaluate_slo
    from repro.obs.timeseries import ClusterSampler
    from repro.runtime import Runtime

    data = DashboardData(
        config={
            "app": app,
            "size": size,
            "machines": machines,
            "seed": seed,
            "noise": noise,
            "replications": replications,
        },
        generated_at=time.strftime("%Y-%m-%d %H:%M:%S %z"),
        host=_host_fingerprint(),
        git_rev=_git_rev(),
        resilience=dict(scorecard) if scorecard else {},
    )

    data.point = run_policies(
        app,
        size,
        machines,
        replications=replications,
        seed=seed,
        noise_sigma=noise,
        jobs=jobs,
    )

    # One live PLB-HeC run: Gantt strip + anomaly detectors over its
    # metrics delta, idle fractions and phase summary.  The run executes
    # under the phase profiler so the CPU-profile section shows where
    # this scenario's host time actually goes.
    application = make_application(app, size)
    registry = get_registry()
    mark = registry.mark()
    runtime = Runtime(
        paper_cluster(machines), application.codelet(), seed=seed, noise_sigma=noise
    )
    sampler = ClusterSampler(0.0)  # auto interval, ~makespan/128
    with profiling() as prof:
        result = runtime.run(
            make_policy("plb-hec"),
            application.total_units,
            application.default_initial_block_size(),
            sampler=sampler,
        )
    data.profile = prof.snapshot()
    delta = registry.delta_since(mark)
    data.trace = result.trace
    if result.ledger is not None:
        data.ledger = result.ledger.to_dict()
    data.series = {
        "interval": sampler.interval or 0.0,
        "samples": sampler.samples_taken,
        "store": sampler.store.to_payload(),
    }
    data.slo = evaluate_slo(DEFAULT_SLO_SPEC, sampler.store, run_id=result.run_id)
    data.anomalies = detect_anomalies(
        phase_summary=result.trace.phase_summary(),
        metrics=delta,
        idle_fractions=result.idle_fractions,
    )
    data.anomalies += detect_slo_anomalies(data.slo)
    data.critpath = analyze_trace(result.trace)
    data.anomalies += detect_critpath_anomalies(data.critpath)
    return data


def chaos_dashboard_data(scorecard: Mapping[str, Any]) -> DashboardData:
    """A dashboard carrying only the resilience section.

    ``repro chaos --dashboard`` renders its scorecard without paying
    for the full sweep and live-run collection; every other section
    shows its empty state.
    """
    return DashboardData(
        config=dict(scorecard.get("config", {})),
        generated_at=time.strftime("%Y-%m-%d %H:%M:%S %z"),
        host=_host_fingerprint(),
        git_rev=_git_rev(),
        resilience=dict(scorecard),
    )


# ----------------------------------------------------------------------
# SVG chart helpers (stdlib only)
# ----------------------------------------------------------------------

def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if step >= raw:
            break
    start = math.floor(lo / step) * step
    ticks = []
    t = start
    while t <= hi + step * 0.5:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _fmt_value(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000:
        return f"{v:,.0f}"
    if abs(v) >= 1:
        return f"{v:.3g}"
    return f"{v:.2g}"


def _hbar_chart(
    rows: Sequence[tuple[str, float, str]],
    *,
    width: int = 860,
    unit: str = "s",
) -> str:
    """Horizontal bars: label, thin rounded bar, value at the tip."""
    if not rows:
        return "<p class='empty'>(no data)</p>"
    label_w, value_w, bar_h, row_h = 110, 86, 18, 30
    plot_w = width - label_w - value_w
    height = row_h * len(rows) + 6
    vmax = max(v for _, v, _ in rows) or 1.0
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" role="img" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    for i, (label, value, color) in enumerate(rows):
        y = i * row_h + 4
        w = max(value / vmax * plot_w, 1.5)
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 5}" text-anchor="end" '
            f'class="axis-label">{escape(label)}</text>'
            f'<rect x="{label_w}" y="{y}" width="{w:.2f}" height="{bar_h}" '
            f'rx="4" fill="{color}">'
            f"<title>{escape(label)}: {value:.4f}{unit}</title></rect>"
            f'<text x="{label_w + w + 8:.2f}" y="{y + bar_h - 5}" '
            f'class="value-label">{_fmt_value(value)}{unit}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _grouped_columns(
    groups: Sequence[str],
    series: Sequence[tuple[str, str, Sequence[float]]],
    *,
    width: int = 860,
    height: int = 220,
    y_unit: str = "",
    percent: bool = False,
) -> str:
    """Grouped columns: one cluster per group, one column per series."""
    if not groups or not series:
        return "<p class='empty'>(no data)</p>"
    margin_l, margin_b, margin_t = 52, 26, 8
    plot_w, plot_h = width - margin_l - 10, height - margin_b - margin_t
    vmax = max((max(vals) for _, _, vals in series), default=1.0) or 1.0
    ticks = _nice_ticks(0.0, vmax)
    vmax = ticks[-1]
    group_w = plot_w / len(groups)
    col_w = min((group_w * 0.8 - 2 * (len(series) - 1)) / len(series), 24)
    cluster_w = col_w * len(series) + 2 * (len(series) - 1)

    def y(v: float) -> float:
        return margin_t + plot_h * (1.0 - v / vmax)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" role="img" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    for t in ticks:
        label = f"{t * 100:.0f}%" if percent else f"{_fmt_value(t)}{y_unit}"
        parts.append(
            f'<line x1="{margin_l}" y1="{y(t):.1f}" x2="{width - 10}" '
            f'y2="{y(t):.1f}" class="gridline"/>'
            f'<text x="{margin_l - 6}" y="{y(t) + 4:.1f}" text-anchor="end" '
            f'class="axis-label">{label}</text>'
        )
    for gi, group in enumerate(groups):
        x0 = margin_l + gi * group_w + (group_w - cluster_w) / 2
        parts.append(
            f'<text x="{margin_l + gi * group_w + group_w / 2:.1f}" '
            f'y="{height - 8}" text-anchor="middle" class="axis-label">'
            f"{escape(group)}</text>"
        )
        for si, (name, color, vals) in enumerate(series):
            v = float(vals[gi])
            x = x0 + si * (col_w + 2)
            h = max(plot_h * v / vmax, 1.0)
            label = f"{v * 100:.0f}%" if percent else f"{_fmt_value(v)}{y_unit}"
            parts.append(
                f'<rect x="{x:.2f}" y="{y(v):.1f}" width="{col_w:.2f}" '
                f'height="{h:.1f}" rx="3" fill="{color}">'
                f"<title>{escape(name)} on {escape(group)}: {label}</title></rect>"
            )
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" x2="{width - 10}" '
        f'y2="{margin_t + plot_h}" class="axis-line"/></svg>'
    )
    return "".join(parts)


def _line_chart(
    series: Sequence[tuple[str, str, Sequence[tuple[float, float]]]],
    *,
    width: int = 860,
    height: int = 240,
    log_y: bool = False,
    x_label: str = "",
) -> str:
    """2px lines with ringed >=8px markers, hairline grid, end labels."""
    series = [(n, c, [(x, y) for x, y in pts if y == y]) for n, c, pts in series]
    series = [(n, c, pts) for n, c, pts in series if pts]
    if not series:
        return "<p class='empty'>(no data)</p>"
    margin_l, margin_r, margin_b, margin_t = 64, 92, 28, 10
    plot_w, plot_h = width - margin_l - margin_r, height - margin_b - margin_t
    xs = [x for _, _, pts in series for x, _ in pts]
    ys = [y for _, _, pts in series for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if log_y:
        floor = min((y for y in ys if y > 0), default=1e-12)
        ys = [max(y, floor) for y in ys]
        lo_e = math.floor(math.log10(min(ys)))
        hi_e = math.ceil(math.log10(max(ys)))
        if hi_e == lo_e:
            hi_e += 1
        ticks = [10.0**e for e in range(lo_e, hi_e + 1)]

        def ty(v: float) -> float:
            frac = (math.log10(max(v, 10.0**lo_e)) - lo_e) / (hi_e - lo_e)
            return margin_t + plot_h * (1.0 - frac)

        def tick_label(t: float) -> str:
            return f"1e{int(math.log10(t))}"
    else:
        ticks = _nice_ticks(min(min(ys), 0.0), max(ys))

        def ty(v: float) -> float:
            return margin_t + plot_h * (1.0 - (v - ticks[0]) / (ticks[-1] - ticks[0]))

        def tick_label(t: float) -> str:
            return _fmt_value(t)

    def tx(v: float) -> float:
        return margin_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" role="img" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    for t in ticks:
        parts.append(
            f'<line x1="{margin_l}" y1="{ty(t):.1f}" x2="{width - margin_r}" '
            f'y2="{ty(t):.1f}" class="gridline"/>'
            f'<text x="{margin_l - 6}" y="{ty(t) + 4:.1f}" text-anchor="end" '
            f'class="axis-label">{tick_label(t)}</text>'
        )
    for name, color, pts in series:
        path = " ".join(
            f"{'M' if i == 0 else 'L'}{tx(x):.1f},{ty(y):.1f}"
            for i, (x, y) in enumerate(pts)
        )
        parts.append(
            f'<path d="{path}" fill="none" stroke="{color}" stroke-width="2" '
            f'stroke-linejoin="round" stroke-linecap="round"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{tx(x):.1f}" cy="{ty(y):.1f}" r="4" fill="{color}" '
                f'stroke="var(--surface-1)" stroke-width="2">'
                f"<title>{escape(name)}: {y:.5g} (x={x:.6g})</title></circle>"
            )
        ex, ey = pts[-1]
        parts.append(
            f'<text x="{tx(ex) + 10:.1f}" y="{ty(ey) + 4:.1f}" '
            f'class="series-label">{escape(name)}</text>'
        )
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" '
        f'x2="{width - margin_r}" y2="{margin_t + plot_h}" class="axis-line"/>'
    )
    if x_label:
        parts.append(
            f'<text x="{margin_l + plot_w / 2:.0f}" y="{height - 6}" '
            f'text-anchor="middle" class="axis-label">{escape(x_label)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _scatter_chart(
    series: Sequence[tuple[str, str, Sequence[tuple[float, float]]]],
    *,
    width: int = 860,
    height: int = 240,
    unit: str = "s",
) -> str:
    """Predicted-vs-observed scatter with an identity diagonal.

    Points on the dashed ``y = x`` line are perfect predictions; above
    it the model over-predicted, below it under-predicted.
    """
    series = [
        (n, c, [(x, y) for x, y in pts if x == x and y == y])
        for n, c, pts in series
    ]
    series = [(n, c, pts) for n, c, pts in series if pts]
    if not series:
        return "<p class='empty'>(no scored predictions)</p>"
    margin_l, margin_r, margin_b, margin_t = 64, 16, 30, 10
    plot_w, plot_h = width - margin_l - margin_r, height - margin_b - margin_t
    values = [v for _, _, pts in series for p in pts for v in p]
    lo, hi = 0.0, max(values) * 1.05 or 1.0
    ticks = _nice_ticks(lo, hi)
    hi = ticks[-1]

    def sx(v: float) -> float:
        return margin_l + (v - lo) / (hi - lo) * plot_w

    def sy(v: float) -> float:
        return margin_t + plot_h * (1.0 - (v - lo) / (hi - lo))

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" role="img" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    for t in ticks:
        parts.append(
            f'<line x1="{margin_l}" y1="{sy(t):.1f}" x2="{width - margin_r}" '
            f'y2="{sy(t):.1f}" class="gridline"/>'
            f'<text x="{margin_l - 6}" y="{sy(t) + 4:.1f}" text-anchor="end" '
            f'class="axis-label">{_fmt_value(t)}{unit}</text>'
            f'<text x="{sx(t):.1f}" y="{height - 12}" text-anchor="middle" '
            f'class="axis-label">{_fmt_value(t)}{unit}</text>'
        )
    parts.append(
        f'<line x1="{sx(lo):.1f}" y1="{sy(lo):.1f}" x2="{sx(hi):.1f}" '
        f'y2="{sy(hi):.1f}" class="axis-line" stroke-dasharray="4 4">'
        "<title>perfect prediction (y = x)</title></line>"
    )
    for name, color, pts in series:
        for obs, pred in pts:
            parts.append(
                f'<circle cx="{sx(obs):.1f}" cy="{sy(pred):.1f}" r="4" '
                f'fill="{color}" fill-opacity="0.75">'
                f"<title>{escape(name)}: predicted {pred:.4g}{unit}, "
                f"observed {obs:.4g}{unit}</title></circle>"
            )
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" '
        f'x2="{width - margin_r}" y2="{margin_t + plot_h}" class="axis-line"/>'
        "</svg>"
    )
    return "".join(parts)


def _legend(entries: Sequence[tuple[str, str]]) -> str:
    keys = "".join(
        f'<span class="key"><span class="swatch" style="background:{color}">'
        f"</span>{escape(name)}</span>"
        for name, color in entries
    )
    return f'<div class="legend">{keys}</div>'


def _tiles(tiles: Iterable[tuple[str, str, str]]) -> str:
    """A row of (label, value, hint) stat tiles."""
    cells = "".join(
        f'<div class="tile"><div class="label">{escape(label)}</div>'
        f'<div class="value">{escape(value)}</div>'
        f'<div class="hint">{escape(hint)}</div></div>'
        for label, value, hint in tiles
    )
    return f'<div class="tiles">{cells}</div>'


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    head = "".join(
        f'<th{" class=num" if i else ""}>{escape(str(h))}</th>'
        for i, h in enumerate(headers)
    )
    body = "".join(
        "<tr>"
        + "".join(
            f'<td{" class=num" if i else ""}>'
            + escape(_fmt_value(c) if isinstance(c, float) else str(c))
            + "</td>"
            for i, c in enumerate(row)
        )
        + "</tr>"
        for row in rows
    )
    return (
        "<details class='table-view'><summary>table view</summary>"
        f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table></details>"
    )


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------

def _policy_colors(names: Sequence[str]) -> dict[str, str]:
    """Fixed-order categorical assignment, one slot per policy."""
    return {
        name: f"var({_SERIES_VARS[i % len(_SERIES_VARS)]})"
        for i, name in enumerate(names)
    }


def _section_policies(point: SweepPoint | None) -> str:
    if point is None or not point.outcomes:
        return "<section><h2>Policy comparison</h2><p class='empty'>no sweep data</p></section>"
    names = list(point.outcomes)
    colors = _policy_colors(names)
    bars = [
        (name, point.outcomes[name].mean_makespan, colors[name]) for name in names
    ]
    devices = sorted(
        {d for name in names for d in point.outcomes[name].mean_idle()}
    )
    idle_series = [
        (
            name,
            colors[name],
            [point.outcomes[name].mean_idle().get(d, 0.0) for d in devices],
        )
        for name in names
    ]
    table = _table(
        ["policy", "mean makespan (s)", "std (s)", "speedup vs greedy", "rebalances"],
        [
            [
                name,
                point.outcomes[name].mean_makespan,
                point.outcomes[name].std_makespan,
                point.speedup_vs("greedy", name) if "greedy" in point.outcomes else float("nan"),
                sum(point.outcomes[name].rebalances),
            ]
            for name in names
        ],
    )
    return (
        "<section><h2>Policy comparison</h2>"
        f"<p class='sub'>{point.app_name}, size {point.size:,}, "
        f"{point.num_machines} machine(s) — mean makespan and per-device "
        "idleness over replications (the paper's Figs. 4-7 shape)</p>"
        + _legend([(n, colors[n]) for n in names])
        + _hbar_chart(bars, unit="s")
        + "<h2 style='margin-top:18px'>Idleness per device</h2>"
        + _grouped_columns(devices, idle_series, percent=True)
        + table
        + "</section>"
    )


def _section_convergence(ledger: Mapping[str, Any]) -> str:
    # the execution-phase decisions a solver answered (not a fallback)
    solves = [
        d["solver"]
        for d in ledger.get("decisions", [])
        if d.get("phase") == "execution" and not d["solver"].get("fallback_stage")
    ]
    if not solves:
        return (
            "<section><h2>Solver convergence</h2><p class='empty'>no "
            "solver-answered decision</p></section>"
        )
    methods = Counter(s["method"] for s in solves)
    # a non-finite KKT error reaches the ledger dict as None
    kkts = [s["kkt_error"] for s in solves if s["kkt_error"] is not None]
    tiles = (
        (
            "solves",
            str(len(solves)),
            ", ".join(f"{m} ×{n}" for m, n in sorted(methods.items())),
        ),
        ("most steps", str(max(int(s["iterations"]) for s in solves)), ""),
        ("worst KKT error", f"{max(kkts):.2e}" if kkts else "—", ""),
        ("restorations", str(sum(int(s.get("restorations", 0)) for s in solves)), ""),
    )
    chart = _line_chart(
        [("KKT error", "var(--series-1)", list(enumerate(kkts)))],
        log_y=True,
        x_label="solve (decision order)",
    )
    return (
        "<section><h2>Solver convergence</h2>"
        "<p class='sub'>every block-partition solve of the live PLB-HeC "
        "run above, from its decision ledger: the answering method "
        "(Newton steps for the certificate, iterations for the "
        "interior-point method) and the final KKT error (Sec. V.a)</p>"
        + _tiles(tiles)
        + chart
        + "</section>"
    )


def _section_gantt(trace: ExecutionTrace | None, policy: str) -> str:
    if trace is None:
        return "<section><h2>Execution timeline</h2><p class='empty'>no trace</p></section>"
    from repro.util.gantt import render_gantt_svg

    svg = render_gantt_svg(
        trace,
        phase_colors={
            "exec": "var(--series-1)",
            "probe": "var(--series-2)",
        },
    )
    return (
        "<section><h2>Execution timeline</h2>"
        f"<p class='sub'>per-worker Gantt strip of one {escape(policy)} run — "
        "probe (orange) vs execution (blue) intervals, dashed rules at "
        "rebalances</p>"
        + _legend([("exec", "var(--series-1)"), ("probe", "var(--series-2)")])
        + svg
        + "</section>"
    )


#: Fixed category palette for the makespan-attribution bars (status
#: colors carry the fault/retry buckets so they read as trouble).
_CRITPATH_COLORS = {
    "compute": "var(--series-1)",
    "transfer": "var(--series-2)",
    "idle": "var(--series-4)",
    "solver": "var(--series-3)",
    "retries": "var(--status-warning)",
    "fault_recovery": "var(--status-critical)",
    "rework": "var(--status-serious)",
}


def _section_critpath(critpath: Mapping[str, Any]) -> str:
    if not critpath or not critpath.get("path"):
        return (
            "<section><h2>Critical path</h2><p class='empty'>no "
            "critical-path analysis (run <code>repro why</code> for a "
            "standalone report)</p></section>"
        )
    from repro.obs.critpath import CATEGORIES, category_shares

    makespan = float(critpath.get("makespan", 0.0))
    shares = category_shares(critpath)
    categories = dict(critpath.get("categories", {}))
    bars = [
        (cat, float(categories.get(cat, 0.0)), _CRITPATH_COLORS[cat])
        for cat in CATEGORIES
        if float(categories.get(cat, 0.0)) > 0.0
    ]

    bounds = dict(critpath.get("bounds", {}))

    def headroom(bound: float) -> str:
        if makespan <= 0.0:
            return "—"
        return f"-{max(0.0, makespan - bound) / makespan * 100:.1f}%"

    tiles = [
        ("makespan", f"{makespan:.4f}s", "100% attributed"),
        (
            "zero transfer",
            f"{float(bounds.get('zero_transfer', 0.0)):.4f}s",
            f"{headroom(float(bounds.get('zero_transfer', 0.0)))} headroom",
        ),
        (
            "zero scheduler",
            f"{float(bounds.get('zero_scheduler', 0.0)):.4f}s",
            f"{headroom(float(bounds.get('zero_scheduler', 0.0)))} headroom",
        ),
        (
            "perfect balance",
            f"{float(bounds.get('perfect_balance', 0.0)):.4f}s",
            f"{headroom(float(bounds.get('perfect_balance', 0.0)))} headroom",
        ),
    ]

    bottleneck = dict(critpath.get("bottleneck", {}))
    speedup = dict(bounds.get("device_speedup", {}))
    factor = float(bounds.get("speedup_factor", 0.0)) or 2.0
    devices_on_path = dict(critpath.get("devices_on_path", {}))
    device_rows = [
        [
            device
            # a literal star: _table escapes cells, so an entity would
            # render as text
            + (" ★" if device == bottleneck.get("device") else ""),
            busy_s,
            f"{busy_s / makespan * 100:.1f}%" if makespan > 0 else "—",
            float(speedup.get(device, makespan)),
            headroom(float(speedup.get(device, makespan))),
        ]
        for device, busy_s in sorted(
            devices_on_path.items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]
    device_table = _table(
        [
            "device",
            "on-path busy (s)",
            "share",
            f"makespan if {factor:g}&#215; faster (s)",
            "headroom",
        ],
        device_rows,
    )
    blame = list(critpath.get("decisions", []))
    blame_html = ""
    if blame:
        blame_html = _table(
            ["decision", "on-path tasks", "on-path busy (s)"],
            [[d["id"], d["tasks"], d["busy_s"]] for d in blame[:8]],
        )
    return (
        "<section><h2>Critical path</h2>"
        f"<p class='sub'>every makespan second attributed to one bucket "
        f"by a backward walk over the causality chain — "
        f"{int(critpath.get('path_tasks', 0))} task(s) on the path, "
        f"compute {shares['compute'] * 100:.1f}%, idle "
        f"{shares['idle'] * 100:.1f}%, solver "
        f"{shares['solver'] * 100:.1f}% (<code>repro why</code>)</p>"
        + _legend([(c, _CRITPATH_COLORS[c]) for c, _v, _col in bars])
        + _hbar_chart(bars, unit="s")
        + "<h2 style='margin-top:18px'>What-if lower bounds</h2>"
        "<p class='sub'>provable floors on this run's makespan under "
        "idealized conditions — how much a perfect interconnect, a free "
        "scheduler, or the &#931;work/&#931;speed oracle could save</p>"
        + _tiles(tiles)
        + device_table
        + blame_html
        + "</section>"
    )


def _section_profile(profile: Mapping[str, Any]) -> str:
    if not profile or not profile.get("phases"):
        return (
            "<section><h2>CPU profile</h2><p class='empty'>no profile "
            "captured</p></section>"
        )
    from repro.obs.profiler import (
        hot_function_rows,
        phase_breakdown,
        render_flamegraph_svg,
    )

    breakdown = phase_breakdown(profile)
    flame = render_flamegraph_svg(
        profile, title="host CPU time by phase and call stack"
    )
    table = _table(
        ["function", "phase", "calls", "self (ms)", "cum (ms)", "share"],
        hot_function_rows(profile, top=10),
    )
    return (
        "<section><h2>CPU profile</h2>"
        "<p class='sub'>deterministic phase-attributed profile of the live "
        "PLB-HeC run above — where the scheduler's host time goes "
        "(probe/fit/solve/execute/overhead)</p>"
        + _tiles(
            (phase, f"{d['share'] * 100:.1f}%", f"{d['self_s'] * 1e3:.1f}ms self")
            for phase, d in breakdown.items()
        )
        + flame
        + table
        + "</section>"
    )


def _section_anomalies(anomalies: Sequence[Anomaly]) -> str:
    if not anomalies:
        body = '<p class="allclear">&#10003; no anomalies detected</p>'
    else:
        body = "".join(
            f'<div class="anomaly"><span class="badge {a.severity}">'
            f'{"&#9888;" if a.severity == "warning" else "&#10007;"} '
            f"{escape(a.severity)}</span>"
            f"<span><strong>{escape(a.name)}</strong> — {escape(a.message)}</span></div>"
            for a in anomalies
        )
    return (
        "<section><h2>Anomalies</h2>"
        "<p class='sub'>built-in detectors over this run's telemetry "
        "(probe share, per-device R&#178;, load imbalance, IPM restorations)</p>"
        + body
        + "</section>"
    )


def _section_decisions(ledger: Mapping[str, Any]) -> str:
    if not ledger or not ledger.get("decisions"):
        return (
            "<section><h2>Scheduler decisions</h2><p class='empty'>no "
            "decision ledger (policy keeps none, or the run predates "
            "<code>repro explain</code>)</p></section>"
        )
    decisions = list(decision_rows(dict(ledger)))
    summary = ledger_summary(dict(ledger))
    fallback_stages = summary["fallback_stages"]
    tiles = (
        ("decisions", str(summary["decisions"]), ""),
        (
            "blocks attributed",
            f"{summary['coverage'] * 100:.0f}%",
            f"{summary['attributed']}/{summary['total']}",
        ),
        (
            "fallback decisions",
            str(sum(fallback_stages.values())),
            ", ".join(sorted(fallback_stages)) if fallback_stages else "none",
        ),
    )

    calibration = dict(ledger.get("calibration", {}))
    devices = sorted(calibration)
    device_colors = {
        d: f"var({_SERIES_VARS[i % len(_SERIES_VARS)]})"
        for i, d in enumerate(devices)
    }
    # calibration scatter: per-device mean predicted vs mean observed
    # block time of each decision the device executed under
    scatter_series = []
    for device in devices:
        pts = []
        for d in ledger.get("decisions", []):
            o = (d.get("observed") or {}).get(device) or {}
            pred, obs = o.get("mean_predicted_s"), o.get("mean_observed_s")
            if pred is not None and obs is not None:
                pts.append((float(obs), float(pred)))
        scatter_series.append((device, device_colors[device], pts))

    drift_series = [
        (
            device,
            device_colors[device],
            [
                (float(i), float(e))
                for i, e in enumerate(calibration[device].get("series", []))
            ],
        )
        for device in devices
    ]

    head = (
        "<tr><th>id</th><th>trigger</th><th>method</th>"
        "<th class=num>iterations</th><th class=num>KKT error</th>"
        "<th class=num>t (s)</th><th class=num>predicted (s)</th>"
        "<th class=num>blocks</th><th class=num>MAPE</th></tr>"
    )
    body_rows = []
    for row in decisions:
        method = escape(str(row["method"]))
        if row["fallback_stage"]:
            method += (
                f' <span class="badge warning">fallback: '
                f"{escape(str(row['fallback_stage']))}</span>"
            )
        kkt = row["kkt_error"]
        pred = row["predicted_time"]
        mape_v = row["mape"]
        body_rows.append(
            f"<tr><td>{escape(str(row['id']))}</td>"
            f"<td>{escape(str(row['trigger']))}</td>"
            f"<td>{method}</td>"
            f"<td class=num>{int(row['iterations'])}</td>"
            f"<td class=num>{f'{kkt:.2e}' if isinstance(kkt, float) else '—'}</td>"
            f"<td class=num>{float(row['t']):.4f}</td>"
            f"<td class=num>{f'{pred:.4f}' if isinstance(pred, float) else '—'}</td>"
            f"<td class=num>{int(row['blocks'])}</td>"
            f"<td class=num>{f'{mape_v * 100:.1f}%' if mape_v is not None else '—'}</td>"
            "</tr>"
        )
    table = (
        f"<table><thead>{head}</thead><tbody>{''.join(body_rows)}</tbody></table>"
    )

    cal_rows = [
        [
            device,
            int(calibration[device].get("blocks") or 0),
            int(calibration[device].get("skipped") or 0),
            f"{calibration[device]['mape'] * 100:.1f}%"
            if calibration[device].get("mape") is not None
            else "—",
            f"{calibration[device]['bias'] * 100:+.1f}%"
            if calibration[device].get("bias") is not None
            else "—",
            f"{calibration[device]['drift'] * 100:+.1f}%"
            if calibration[device].get("drift") is not None
            else "—",
        ]
        for device in devices
    ]
    cal_table = _table(
        ["device", "scored blocks", "skipped", "MAPE", "bias", "drift (EWMA)"],
        cal_rows,
    )
    return (
        "<section><h2>Scheduler decisions</h2>"
        "<p class='sub'>the decision ledger of the live PLB-HeC run above "
        "— every partition the scheduler committed to, what the solver "
        "reported, and how its block-time predictions calibrated against "
        "execution (<code>repro explain</code>)</p>"
        + _tiles(tiles)
        + table
        + "<h2 style='margin-top:18px'>Prediction calibration</h2>"
        "<p class='sub'>per-device mean predicted vs observed block time "
        "per decision; the dashed diagonal is a perfect prediction</p>"
        + _legend([(d, device_colors[d]) for d in devices])
        + _scatter_chart(scatter_series)
        + "<h2 style='margin-top:18px'>Calibration drift</h2>"
        "<p class='sub'>signed relative error of each scored block in "
        "completion order — a trend away from zero is model drift</p>"
        + _line_chart(drift_series, x_label="scored block (completion order)")
        + cal_table
        + "</section>"
    )


def _spark_svg(
    values: Sequence[float],
    *,
    color: str = "var(--series-1)",
    width: int = 240,
    height: int = 32,
    lo: float | None = None,
    hi: float | None = None,
    title: str = "",
) -> str:
    """A small inline-SVG sparkline (polyline, no axes)."""
    if not values:
        return "<span class='empty'>(no samples)</span>"
    vlo = min(values) if lo is None else lo
    vhi = max(values) if hi is None else hi
    if vhi <= vlo:
        vhi = vlo + 1.0
    n = len(values)
    pts = " ".join(
        f"{(i / max(n - 1, 1)) * (width - 4) + 2:.1f},"
        f"{(1.0 - (v - vlo) / (vhi - vlo)) * (height - 6) + 3:.1f}"
        for i, v in enumerate(values)
    )
    hover = f"<title>{escape(title)}</title>" if title else ""
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" xmlns="http://www.w3.org/2000/svg">'
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="1.5" stroke-linejoin="round" '
        f'stroke-linecap="round"/>{hover}</svg>'
    )


def _section_telemetry(series: Mapping[str, Any], slo: Mapping[str, Any]) -> str:
    header = "<section><h2>Cluster telemetry</h2>"
    if not series or not series.get("store"):
        return (
            header + "<p class='empty'>no sampled series (attach the "
            "virtual-time sampler with <code>repro run "
            "--sample-interval 0</code>)</p></section>"
        )
    from repro.obs.timeseries import store_from_payload

    store = store_from_payload(series["store"])
    utils = store.matching("device_util")
    rows = []
    for key in sorted(utils):
        device = _parse_series_key(key)[1].get("device", key)
        values = [v for _, v in utils[key]]
        mean_util = left_sum(values) / len(values) if values else 0.0
        rows.append(
            f"<tr><td>{escape(device)}</td>"
            f"<td>{_spark_svg(values, lo=0.0, hi=1.0, title=f'{device} utilization')}</td>"
            f"<td class=num>{mean_util * 100:.1f}%</td></tr>"
        )
    cluster_rows = []
    for name, color in (
        ("backlog_units", "var(--series-2)"),
        ("goodput_units_per_s", "var(--series-3)"),
        ("fairness", "var(--series-4)"),
    ):
        values = [v for _, v in store.points(name)]
        if not values:
            continue
        lo, hi = (0.0, 1.0) if name == "fairness" else (0.0, None)
        cluster_rows.append(
            f"<tr><td>{escape(name)}</td>"
            f"<td>{_spark_svg(values, color=color, lo=lo, hi=hi, title=name)}</td>"
            f"<td class=num>{_fmt_value(values[-1])}</td></tr>"
        )
    tables = (
        "<table><thead><tr><th>device</th><th>utilization</th>"
        "<th class=num>mean</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
        "<table><thead><tr><th>series</th><th>timeline</th>"
        "<th class=num>last</th></tr></thead>"
        f"<tbody>{''.join(cluster_rows)}</tbody></table>"
    )
    slo_html = ""
    if slo:
        tiles = []
        for row in slo.get("objectives", []):
            verdict = row.get("verdict", "-")
            badge = {
                "pass": "<span class='allclear'>&#10003; pass</span>",
                "fail": "<span class='badge critical'>&#10007; fail</span>",
                "no-data": "<span class='empty'>no data</span>",
            }.get(verdict, escape(verdict))
            burn = row.get("burn_rate")
            hint = f"burn {burn:.2f}&#215;" if burn is not None else escape(
                str(row.get("expr", ""))
            )
            measured = row.get("measured")
            shown = (
                _fmt_value(float(measured)) if measured is not None else "—"
            )
            tiles.append(
                f'<div class="tile"><div class="label">'
                f"{escape(str(row.get('name')))}</div>"
                f'<div class="value">{shown}</div>'
                f'<div class="hint">{hint} {badge}</div></div>'
            )
        status = (
            '<p class="allclear">&#10003; all objectives met</p>'
            if slo.get("ok")
            else (
                f"<p class='sub'>{int(slo.get('violations', 0))} "
                "objective(s) violated</p>"
            )
        )
        slo_html = (
            "<h2 style='margin-top:18px'>SLO burn-down</h2>"
            f"<p class='sub'>spec <code>{escape(str(slo.get('spec', '-')))}"
            "</code> evaluated over the recorded series</p>"
            + status
            + f'<div class="tiles">{"".join(tiles)}</div>'
        )
    return (
        header
        + f"<p class='sub'>{int(series.get('samples', 0))} virtual-time "
        f"samples at {series.get('interval', 0.0):.3g}s interval from the "
        "live PLB-HeC run — per-device utilization and cluster health "
        "(<code>repro top</code> shows the same series in a terminal)</p>"
        + tables
        + slo_html
        + "</section>"
    )


def _section_resilience(scorecard: Mapping[str, Any]) -> str:
    if not scorecard:
        return (
            "<section><h2>Resilience</h2><p class='empty'>no chaos "
            "campaign scorecard (run <code>repro chaos</code>)</p></section>"
        )
    total = scorecard.get("total_runs", 0)
    survived = scorecard.get("survived_runs", 0)
    violations = scorecard.get("total_violations", 0)
    ok = scorecard.get("all_invariants_ok", False)
    verdict = (
        '<p class="allclear">&#10003; all invariants satisfied</p>'
        if ok
        else (
            f'<div class="anomaly"><span class="badge error">&#10007; '
            f"error</span><span><strong>invariants</strong> — "
            f"{violations} violation(s) across the campaign</span></div>"
        )
    )
    tiles = (
        f'<div class="tiles"><div class="tile"><div class="label">runs</div>'
        f'<div class="value">{int(total)}</div></div>'
        f'<div class="tile"><div class="label">survived</div>'
        f'<div class="value">{int(survived)}</div></div>'
        f'<div class="tile"><div class="label">violations</div>'
        f'<div class="value">{int(violations)}</div></div></div>'
    )
    rows = []
    for name, agg in dict(scorecard.get("policies", {})).items():
        mean_deg = agg.get("mean_degradation")
        max_deg = agg.get("max_degradation")
        lag = agg.get("mean_recovery_lag")
        attribution = agg.get("mean_attribution") or {}

        def share(category: str) -> str:
            value = attribution.get(category)
            return f"{value * 100:.1f}%" if value is not None else "—"

        rows.append(
            [
                name,
                f"{agg.get('survived', 0)}/{agg.get('runs', 0)}",
                f"{agg.get('survival_rate', 0.0) * 100:.0f}%",
                f"{mean_deg:.3f}&#215;" if mean_deg is not None else "—",
                f"{max_deg:.3f}&#215;" if max_deg is not None else "—",
                f"{lag * 1e3:.1f}ms" if lag is not None else "—",
                agg.get("violations", 0),
                share("fault_recovery"),
                share("rework"),
                share("idle"),
            ]
        )
    table = _table(
        [
            "policy",
            "survived",
            "rate",
            "mean degradation",
            "max degradation",
            "mean recovery lag",
            "violations",
            "fault recovery",
            "rework",
            "idle",
        ],
        rows,
    )
    return (
        "<section><h2>Resilience</h2>"
        "<p class='sub'>chaos-campaign scorecard: per-policy survival and "
        "makespan degradation under randomized fault schedules "
        "(failures, transients, perturbations, transfer faults)</p>"
        + verdict
        + tiles
        + table
        + "</section>"
    )


def render_dashboard(data: DashboardData) -> str:
    """Render the full dashboard document as a string."""
    cfg = data.config
    hero = ""
    if data.point is not None and {"greedy", "plb-hec"} <= set(data.point.outcomes):
        speedup = data.point.speedup_vs("greedy", "plb-hec")
        hero = (
            '<div class="hero"><div><div class="tile"><div class="label">'
            "PLB-HeC speedup vs greedy</div>"
            f'<div class="value">{speedup:.2f}&#215;</div></div></div></div>'
        )
    host = data.host
    meta_bits = [
        f"{escape(str(cfg.get('app', '?')))} size {cfg.get('size', '?')}",
        f"{cfg.get('machines', '?')} machine(s)",
        f"{cfg.get('replications', '?')} replication(s)",
        escape(str(host.get("platform", "?"))),
        f"python {escape(str(host.get('python', '?')))}",
        f"{host.get('cpu_count', '?')} cpu(s)",
    ]
    if data.git_rev:
        meta_bits.append(f"rev {escape(data.git_rev)}")
    meta_bits.append(escape(data.generated_at))
    sections = [
        _section_policies(data.point),
        _section_convergence(data.ledger),
        _section_gantt(data.trace, data.trace_policy),
        _section_critpath(data.critpath),
        _section_telemetry(data.series, data.slo),
        _section_decisions(data.ledger),
        _section_profile(data.profile),
        _section_resilience(data.resilience),
        _section_anomalies(data.anomalies),
    ]
    return (
        "<!DOCTYPE html>\n<html lang='en'><head><meta charset='utf-8'>"
        "<meta name='viewport' content='width=device-width, initial-scale=1'>"
        "<title>PLB-HeC observability dashboard</title>"
        f"<style>{_CSS}</style></head><body>"
        "<header class='page'><h1>PLB-HeC observability dashboard</h1>"
        f"<p class='meta'>{' &#183; '.join(meta_bits)}</p>" + hero + "</header>"
        "<main>" + "".join(sections) + "</main>"
        "<footer>generated by <code>python -m repro dashboard</code> — "
        "self-contained, no external requests</footer></body></html>\n"
    )


def write_dashboard(path: str | Path, data: DashboardData) -> Path:
    """Render and atomically write the dashboard file."""
    return write_text(path, render_dashboard(data))
