"""ASCII Gantt rendering of execution traces (the paper's Fig. 3).

Renders each processing unit as one row of a fixed-width timeline.
Busy intervals are drawn per phase (``#`` execution, ``:`` probing),
idle stretches as spaces, so modeling-phase barriers, rebalance drains
and tail stragglers are visible at a glance::

    A.cpu   |::##############  ####|
    A.gpu0  |: ####################|
    B.cpu   |:::::  ###############|

Used by examples and diagnostics; the quantitative idleness numbers
come from :meth:`~repro.sim.trace.ExecutionTrace.idle_fractions`.
"""

from __future__ import annotations

import html
from functools import partial

from repro.errors import ConfigurationError
from repro.sim.trace import ExecutionTrace

__all__ = ["render_gantt", "render_gantt_svg", "PHASE_GLYPHS", "SVG_PHASE_COLORS"]

#: ``&``, ``<`` and ``>`` as entities, quotes kept (the escape SVG and
#: HTML text need, without the HTTP and email stack ``xml.sax`` loads)
escape = partial(html.escape, quote=False)

#: glyph used per phase label (anything else renders as ``#``)
PHASE_GLYPHS = {"probe": ":", "exec": "#"}
_DEFAULT_GLYPH = "#"
_MARKER_REBALANCE = "R"
_MARKER_FAILURE = "X"


def render_gantt(
    trace: ExecutionTrace,
    *,
    width: int = 80,
    show_markers: bool = True,
) -> str:
    """Render the trace as an ASCII Gantt chart.

    Parameters
    ----------
    trace:
        A finalized execution trace.
    width:
        Timeline width in characters (>= 10).
    show_markers:
        Overlay ``R`` at rebalance instants and ``X`` at device-failure
        instants (on the affected device's row).

    Returns
    -------
    str
        One row per worker plus a time-axis footer.
    """
    if width < 10:
        raise ConfigurationError(f"width must be >= 10, got {width}")
    makespan = trace.makespan
    if makespan <= 0.0:
        return "(empty trace)"

    def col(t: float) -> int:
        return min(int(t / makespan * width), width - 1)

    label_width = max((len(w) for w in trace.worker_ids), default=0) + 1
    lines = []
    for worker in trace.worker_ids:
        row = [" "] * width
        for start, end, phase in trace.gantt()[worker]:
            glyph = PHASE_GLYPHS.get(phase, _DEFAULT_GLYPH)
            for c in range(col(start), col(end) + 1):
                row[c] = glyph
        if show_markers:
            for t, device in trace.failures:
                if device == worker:
                    row[col(t)] = _MARKER_FAILURE
        lines.append(f"{worker.ljust(label_width)}|{''.join(row)}|")
    if show_markers and trace.rebalance_times:
        marker_row = [" "] * width
        for t in trace.rebalance_times:
            marker_row[col(t)] = _MARKER_REBALANCE
        lines.append(f"{''.ljust(label_width)}|{''.join(marker_row)}|")
    axis = f"{''.ljust(label_width)}|0{' ' * (width - 2)}>" + f"| {makespan:.3g}s"
    lines.append(axis)
    legend = (
        f"{''.ljust(label_width)} {PHASE_GLYPHS['probe']}=probe "
        f"{PHASE_GLYPHS['exec']}=exec"
    )
    if show_markers:
        legend += f" {_MARKER_REBALANCE}=rebalance {_MARKER_FAILURE}=failure"
    lines.append(legend)
    return "\n".join(lines)


#: Default mark colors per phase for the SVG renderer; the dashboard
#: overrides these with its CSS custom properties so light/dark theming
#: stays in one place.
SVG_PHASE_COLORS = {"exec": "#2a78d6", "probe": "#eb6834"}
_SVG_DEFAULT_COLOR = "#2a78d6"
_SVG_MARKER_COLOR = "#898781"
_SVG_FAILURE_COLOR = "#d03b3b"


def render_gantt_svg(
    trace: ExecutionTrace,
    *,
    width: int = 860,
    row_height: int = 22,
    show_markers: bool = True,
    phase_colors: dict[str, str] | None = None,
    label_width: int = 72,
) -> str:
    """Render the trace as an inline-SVG Gantt strip.

    The structural twin of :func:`render_gantt` for HTML reports
    (``repro dashboard``): one thin rounded bar per busy interval,
    colored by phase, with rebalance instants as hairline rules across
    all rows and failures as markers on the affected row.  Every mark
    carries a ``<title>`` so hovering reveals the exact interval.

    Returns an ``<svg>`` fragment (no external references), or a short
    placeholder paragraph for an empty trace.
    """
    if width < 100:
        raise ConfigurationError(f"width must be >= 100, got {width}")
    makespan = trace.makespan
    if makespan <= 0.0 or not trace.worker_ids:
        return "<p class='empty'>(empty trace)</p>"
    colors = dict(SVG_PHASE_COLORS)
    if phase_colors:
        colors.update(phase_colors)
    plot_w = width - label_width - 8
    axis_h = 24
    height = row_height * len(trace.worker_ids) + axis_h
    bar_h = max(row_height - 6, 6)

    def x(t: float) -> float:
        return label_width + t / makespan * plot_w

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" '
        f'role="img" aria-label="Per-worker execution timeline" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    gantt = trace.gantt()
    for row, worker in enumerate(trace.worker_ids):
        y = row * row_height
        parts.append(
            f'<text x="{label_width - 8}" y="{y + row_height / 2 + 4:.1f}" '
            f'text-anchor="end" class="axis-label">{escape(worker)}</text>'
        )
        for start, end, phase in gantt[worker]:
            w = max(x(end) - x(start), 1.5)
            color = colors.get(phase, _SVG_DEFAULT_COLOR)
            parts.append(
                f'<rect x="{x(start):.2f}" y="{y + 3}" width="{w:.2f}" '
                f'height="{bar_h}" rx="2" fill="{color}">'
                f"<title>{escape(worker)} {escape(phase)}: "
                f"{start:.4f}s - {end:.4f}s ({end - start:.4f}s)</title></rect>"
            )
        if show_markers:
            for t, device in trace.failures:
                if device == worker:
                    cx = x(t)
                    parts.append(
                        f'<g stroke="{_SVG_FAILURE_COLOR}" stroke-width="2">'
                        f'<line x1="{cx - 4:.2f}" y1="{y + 4}" x2="{cx + 4:.2f}" '
                        f'y2="{y + row_height - 4}"/>'
                        f'<line x1="{cx - 4:.2f}" y1="{y + row_height - 4}" '
                        f'x2="{cx + 4:.2f}" y2="{y + 4}"/>'
                        f"<title>failure on {escape(device)} at {t:.4f}s</title></g>"
                    )
    rows_h = row_height * len(trace.worker_ids)
    if show_markers:
        for t in trace.rebalance_times:
            parts.append(
                f'<line x1="{x(t):.2f}" y1="0" x2="{x(t):.2f}" y2="{rows_h}" '
                f'stroke="{_SVG_MARKER_COLOR}" stroke-width="1" '
                f'stroke-dasharray="3,3"><title>rebalance at {t:.4f}s</title></line>'
            )
    # time axis
    parts.append(
        f'<line x1="{label_width}" y1="{rows_h + 2}" x2="{width - 8}" '
        f'y2="{rows_h + 2}" class="axis-line"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = makespan * frac
        parts.append(
            f'<text x="{x(t):.1f}" y="{rows_h + 16}" text-anchor="middle" '
            f'class="axis-label">{t:.3g}s</text>'
        )
    parts.append("</svg>")
    return "".join(parts)
