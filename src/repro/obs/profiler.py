"""Deterministic phase-attributed CPU profiling (``repro profile``).

The observability layer up to here can say *that* a run got slower
(metrics, the paired perf gate in ``benchmarks/perf_gate.py``) but not
*where*.  This module closes that gap with a zero-dependency
profiling subsystem built on :mod:`cProfile`:

* :class:`PhaseProfiler` keeps **one deterministic profile per
  scheduler phase** (``probe``/``fit``/``solve``/``execute``/
  ``overhead``).  Instrumented code declares phases through the ambient
  :func:`profile_phase` / :func:`switch_phase` hooks (contextvar-backed,
  like the run-id correlation in :mod:`repro.obs.events`); when no
  profiler is active the hooks are near-free no-ops, so the
  instrumentation can stay in the hot paths permanently.
* :func:`snapshot` turns the captured profiles into a plain-data
  (JSON/pickle-safe) stats document; :func:`merge_profiles` folds
  several such documents into one — that is how per-worker profiles
  from ``ProcessPoolExecutor`` sweep jobs are aggregated in
  :mod:`repro.experiments.parallel`.
* Exports: :func:`collapsed_stacks` (flamegraph.pl / speedscope
  compatible collapsed-stack text), :func:`render_flamegraph_svg`
  (self-contained, dark-mode aware SVG, same conventions as
  :mod:`repro.obs.dashboard`), :func:`hot_functions` (the top-N table
  ``repro profile`` prints and the dashboard shows), and
  :func:`phase_breakdown`.

Determinism note: ``cProfile`` is a tracing (not sampling) profiler —
call counts are exact and reproducible for a seeded simulation, which
is what makes the multiprocess merge testable (serial and parallel
sweeps must agree on every call count).  Only the profiler-owning
thread is traced; the simulated backend is single-threaded, which is
the intended target.
"""

from __future__ import annotations

import cProfile
import contextlib
import contextvars
import time
from typing import Any, Iterator, Mapping, Sequence
from xml.sax.saxutils import escape

from repro.errors import ConfigurationError
from repro.obs.artifact import write_text

__all__ = [
    "PROFILE_PHASES",
    "PROFILE_SCHEMA",
    "PhaseProfiler",
    "active_profiler",
    "profiling",
    "profile_phase",
    "switch_phase",
    "snapshot",
    "merge_profiles",
    "hot_functions",
    "hot_function_rows",
    "phase_breakdown",
    "collapsed_stacks",
    "render_flamegraph_svg",
    "write_flamegraph",
    "write_collapsed",
]

#: The named phases profiled time is attributed to.  ``overhead`` is the
#: base phase (harness work outside any instrumented scope), so every
#: profiled sample belongs to exactly one named phase by construction.
PROFILE_PHASES = ("probe", "fit", "solve", "execute", "overhead")

#: Bump when the snapshot document layout changes incompatibly.
PROFILE_SCHEMA = 1

_active: contextvars.ContextVar["PhaseProfiler | None"] = contextvars.ContextVar(
    "repro_profiler", default=None
)


def _pretty_name(filename: str, lineno: int, funcname: str) -> str:
    """A human-readable qualified name for one profiled function."""
    if filename in ("~", ""):
        return funcname  # builtins: already "<built-in method ...>"
    path = filename.replace("\\", "/")
    if path.endswith(".py"):
        path = path[:-3]
    marker = "/repro/"
    if marker in path:
        module = "repro." + path.rsplit(marker, 1)[1].replace("/", ".")
        return f"{module}.{funcname}"
    return f"{path.rsplit('/', 1)[-1]}.{funcname}"


class PhaseProfiler:
    """One ``cProfile.Profile`` per phase, switched as phases change.

    The profiler keeps a phase *stack*: :meth:`phase` pushes a scoped
    phase (a model fit, an interior-point solve) and restores the
    previous one on exit; :meth:`switch` replaces the current phase
    in place (the simulated executor's probe -> execute transition,
    which is not lexically scoped).  Exactly one underlying profile is
    enabled at any moment, so every sample lands in exactly one phase.
    """

    def __init__(self) -> None:
        self._profiles: dict[str, cProfile.Profile] = {}
        self._wall: dict[str, float] = {}
        self._stack: list[str] = []
        self._current: str | None = None
        self._seg_t0 = 0.0
        self.running = False

    # ------------------------------------------------------------------
    def _check(self, phase: str) -> str:
        if phase not in PROFILE_PHASES:
            raise ConfigurationError(
                f"unknown profile phase {phase!r} (expected one of "
                f"{PROFILE_PHASES})"
            )
        return phase

    def _profile(self, phase: str) -> cProfile.Profile:
        prof = self._profiles.get(phase)
        if prof is None:
            prof = self._profiles[phase] = cProfile.Profile()
            self._wall.setdefault(phase, 0.0)
        return prof

    def _hop(self, phase: str) -> None:
        """Disable the current phase's profile and enable ``phase``'s."""
        if phase == self._current:
            return
        now = time.perf_counter()
        if self._current is not None:
            self._profiles[self._current].disable()
            self._wall[self._current] += now - self._seg_t0
        self._seg_t0 = now
        self._current = phase
        self._profile(phase).enable()

    # ------------------------------------------------------------------
    def start(self, phase: str = "overhead") -> "PhaseProfiler":
        """Begin capturing under ``phase`` (the base of the stack)."""
        if self.running:
            raise ConfigurationError("profiler is already running")
        self.running = True
        self._stack = [self._check(phase)]
        self._hop(phase)
        return self

    def stop(self) -> "PhaseProfiler":
        """Stop capturing; the profiler can be inspected afterwards."""
        if not self.running:
            raise ConfigurationError("profiler is not running")
        now = time.perf_counter()
        assert self._current is not None
        self._profiles[self._current].disable()
        self._wall[self._current] += now - self._seg_t0
        self._current = None
        self.running = False
        return self

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute the block's samples to ``name``, then restore."""
        if not self.running:
            yield
            return
        self._check(name)
        self._stack.append(name)
        self._hop(name)
        try:
            yield
        finally:
            if self.running:
                self._stack.pop()
                self._hop(self._stack[-1])
            elif self._stack and self._stack[-1] == name:
                self._stack.pop()

    def switch(self, name: str) -> None:
        """Replace the current (top-of-stack) phase in place."""
        if not self.running:
            return
        self._check(name)
        self._stack[-1] = name
        self._hop(name)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The captured profiles as a plain-data stats document.

        Layout (all JSON/pickle-safe)::

            {"schema": 1,
             "wall_s": {phase: seconds},
             "total_self_s": float,
             "phases": {phase: {"self_s": float,
                                "functions": {key: {"name", "ncalls",
                                                    "self_s", "cum_s",
                                                    "callers": {key: cum_s}}}}}}

        ``key`` is the stable ``file:line:function`` identity used for
        cross-process merging; ``name`` is the readable qualified form.
        """
        if self.running:
            raise ConfigurationError("stop the profiler before snapshotting")
        phases: dict[str, Any] = {}
        total = 0.0
        for phase, prof in self._profiles.items():
            prof.create_stats()
            functions: dict[str, Any] = {}
            self_s = 0.0
            for func, (cc, nc, tt, ct, callers) in prof.stats.items():
                key = "%s:%d:%s" % func
                functions[key] = {
                    "name": _pretty_name(*func),
                    "ncalls": int(nc),
                    "self_s": float(tt),
                    "cum_s": float(ct),
                    "callers": {
                        "%s:%d:%s" % caller: float(edge[3])
                        for caller, edge in callers.items()
                    },
                }
                self_s += float(tt)
            phases[phase] = {"self_s": self_s, "functions": functions}
            total += self_s
        return {
            "schema": PROFILE_SCHEMA,
            "wall_s": {p: float(w) for p, w in self._wall.items()},
            "total_self_s": total,
            "phases": phases,
        }


# ----------------------------------------------------------------------
# ambient hooks (the instrumented code's API)
# ----------------------------------------------------------------------

def active_profiler() -> PhaseProfiler | None:
    """The profiler the current context captures into (or ``None``)."""
    return _active.get()


@contextlib.contextmanager
def profiling(base_phase: str = "overhead") -> Iterator[PhaseProfiler]:
    """Capture a phase-attributed profile of the ``with`` block.

    Activates a fresh :class:`PhaseProfiler` as the ambient profiler so
    the permanent :func:`profile_phase` / :func:`switch_phase` hooks in
    the runtime, the PLB-HeC policy and the interior-point solver
    attribute their work.  Yields the profiler; call
    :meth:`PhaseProfiler.snapshot` after the block for the stats.
    """
    if _active.get() is not None:
        raise ConfigurationError("a profiler is already active in this context")
    prof = PhaseProfiler()
    token = _active.set(prof)
    prof.start(base_phase)
    try:
        yield prof
    finally:
        prof.stop()
        _active.reset(token)


@contextlib.contextmanager
def profile_phase(name: str) -> Iterator[None]:
    """Scope hook: attribute the block to ``name`` when profiling.

    A no-op (one contextvar read) when no profiler is active, so
    instrumented hot paths pay effectively nothing by default.
    """
    prof = _active.get()
    if prof is None:
        yield
        return
    with prof.phase(name):
        yield


def switch_phase(name: str) -> None:
    """Transition hook: replace the current phase when profiling.

    Used where phase changes are not lexically scoped (the simulated
    executor's dispatch loop crossing from probing into execution).
    No-op when no profiler is active.
    """
    prof = _active.get()
    if prof is not None:
        prof.switch(name)


# ----------------------------------------------------------------------
# plain-data stats: snapshot / merge / tables
# ----------------------------------------------------------------------

def snapshot(profiler: PhaseProfiler) -> dict[str, Any]:
    """Functional alias for :meth:`PhaseProfiler.snapshot`."""
    return profiler.snapshot()


def merge_profiles(into: dict[str, Any], other: Mapping[str, Any]) -> dict[str, Any]:
    """Merge one snapshot document into another, in place.

    Call counts, self/cumulative times, caller edges and per-phase wall
    clocks are summed — this is the multiprocess aggregation used by the
    sweep engine, so a ``REPRO_JOBS=N`` sweep's merged profile carries
    the same call counts as the serial run's.  ``into`` may be an empty
    dict (it is initialised to an empty snapshot).  Returns ``into``.
    """
    if not into:
        into.update(
            {"schema": PROFILE_SCHEMA, "wall_s": {}, "total_self_s": 0.0, "phases": {}}
        )
    for phase, wall in other.get("wall_s", {}).items():
        into["wall_s"][phase] = into["wall_s"].get(phase, 0.0) + float(wall)
    for phase, pdata in other.get("phases", {}).items():
        dest = into["phases"].setdefault(phase, {"self_s": 0.0, "functions": {}})
        dest["self_s"] += float(pdata.get("self_s", 0.0))
        for key, f in pdata.get("functions", {}).items():
            df = dest["functions"].get(key)
            if df is None:
                dest["functions"][key] = {
                    "name": f["name"],
                    "ncalls": int(f["ncalls"]),
                    "self_s": float(f["self_s"]),
                    "cum_s": float(f["cum_s"]),
                    "callers": dict(f.get("callers", {})),
                }
            else:
                df["ncalls"] += int(f["ncalls"])
                df["self_s"] += float(f["self_s"])
                df["cum_s"] += float(f["cum_s"])
                for ck, edge in f.get("callers", {}).items():
                    df["callers"][ck] = df["callers"].get(ck, 0.0) + float(edge)
    into["total_self_s"] = sum(
        p["self_s"] for p in into["phases"].values()
    )
    return into


def phase_breakdown(snap: Mapping[str, Any]) -> dict[str, dict[str, float]]:
    """Per-phase time attribution: ``{phase: {self_s, wall_s, share}}``.

    ``share`` is the phase's fraction of total profiled (self) time;
    the shares sum to 1.0 whenever anything was profiled — every sample
    belongs to exactly one named phase by construction.
    """
    total = float(snap.get("total_self_s", 0.0))
    out: dict[str, dict[str, float]] = {}
    for phase in PROFILE_PHASES:
        pdata = snap.get("phases", {}).get(phase)
        if pdata is None:
            continue
        self_s = float(pdata.get("self_s", 0.0))
        out[phase] = {
            "self_s": self_s,
            "wall_s": float(snap.get("wall_s", {}).get(phase, 0.0)),
            "share": self_s / total if total > 0 else 0.0,
        }
    return out


def hot_functions(snap: Mapping[str, Any], *, top: int = 10) -> list[dict[str, Any]]:
    """The top-N hot functions across phases, with phase attribution.

    Each row: ``{function, calls, self_s, cum_s, share, phase}`` where
    ``share`` is the function's fraction of total profiled self time and
    ``phase`` is the phase it spent most of that time in.
    """
    agg: dict[str, dict[str, Any]] = {}
    for phase, pdata in snap.get("phases", {}).items():
        for key, f in pdata.get("functions", {}).items():
            e = agg.get(key)
            if e is None:
                e = agg[key] = {
                    "function": f["name"],
                    "calls": 0,
                    "self_s": 0.0,
                    "cum_s": 0.0,
                    "by_phase": {},
                }
            e["calls"] += int(f["ncalls"])
            e["self_s"] += float(f["self_s"])
            e["cum_s"] += float(f["cum_s"])
            e["by_phase"][phase] = e["by_phase"].get(phase, 0.0) + float(f["self_s"])
    total = sum(e["self_s"] for e in agg.values())
    rows = []
    for e in sorted(agg.values(), key=lambda e: (-e["self_s"], e["function"])):
        by_phase = e.pop("by_phase")
        e["share"] = e["self_s"] / total if total > 0 else 0.0
        e["phase"] = max(sorted(by_phase), key=by_phase.get) if by_phase else ""
        rows.append(e)
    return rows[:top]


def hot_function_rows(snap: Mapping[str, Any], *, top: int = 10) -> list[list]:
    """:func:`hot_functions` as display rows: function, phase, calls,
    self ms, cum ms and share.  Shared by the CLI and the dashboard."""
    return [
        [
            h["function"],
            h["phase"],
            h["calls"],
            h["self_s"] * 1e3,
            h["cum_s"] * 1e3,
            f"{h['share'] * 100:.1f}%",
        ]
        for h in hot_functions(snap, top=top)
    ]


# ----------------------------------------------------------------------
# collapsed stacks (flamegraph.pl / speedscope format)
# ----------------------------------------------------------------------

def collapsed_stacks(
    snap: Mapping[str, Any],
    *,
    max_depth: int = 64,
    min_fraction: float = 1e-4,
) -> list[str]:
    """Collapsed-stack lines: ``phase;frame;frame <microseconds>``.

    cProfile records a caller/callee graph, not raw stacks, so stacks
    are reconstructed by walking the graph from its roots and splitting
    each function's self time across incoming paths proportionally to
    the callers' edge cumulative times (the ``flameprof`` approach).
    The root frame of every stack is the phase name, so a flamegraph of
    the output is phase-partitioned at its first level.  Lines are
    deterministic (sorted) and the value unit is integer microseconds —
    directly loadable by flamegraph.pl and https://speedscope.app.
    """
    lines: dict[str, float] = {}
    for phase in PROFILE_PHASES:
        pdata = snap.get("phases", {}).get(phase)
        if not pdata:
            continue
        funcs = pdata.get("functions", {})
        if not funcs:
            continue
        children: dict[str, list[tuple[str, float]]] = {}
        inbound: dict[str, float] = {}
        for key, f in funcs.items():
            known = {
                ck: float(edge)
                for ck, edge in f.get("callers", {}).items()
                if ck in funcs
            }
            inbound[key] = sum(known.values())
            for ck, edge in known.items():
                children.setdefault(ck, []).append((key, edge))
        roots = sorted(k for k in funcs if inbound[k] <= 0.0)
        if not roots:  # fully cyclic graph: degrade to a flat profile
            for key in sorted(funcs):
                f = funcs[key]
                if f["self_s"] > 0:
                    lines[f"{phase};{f['name']}"] = (
                        lines.get(f"{phase};{f['name']}", 0.0) + f["self_s"]
                    )
            continue
        cutoff = max(pdata.get("self_s", 0.0) * min_fraction, 1e-7)

        def walk(key: str, factor: float, on_path: frozenset, stack: str) -> None:
            f = funcs[key]
            self_s = f["self_s"] * factor
            if self_s > 0.0:
                lines[stack] = lines.get(stack, 0.0) + self_s
            if len(on_path) >= max_depth:
                return
            for child, edge in sorted(children.get(key, ())):
                if child in on_path:
                    continue  # recursion: charge to the first occurrence
                denom = inbound[child]
                if denom <= 0.0:
                    continue
                cf = factor * (edge / denom)
                if funcs[child]["cum_s"] * cf < cutoff:
                    continue
                walk(
                    child,
                    cf,
                    on_path | {child},
                    stack + ";" + funcs[child]["name"],
                )

        for root in roots:
            walk(root, 1.0, frozenset((root,)), f"{phase};{funcs[root]['name']}")

    out = []
    for stack in sorted(lines):
        value_us = int(round(lines[stack] * 1e6))
        if value_us > 0:
            out.append(f"{stack} {value_us}")
    return out


def write_collapsed(path, lines: Sequence[str]):
    """Write collapsed-stack lines to ``path`` (one stack per line)."""
    return write_text(path, "".join(line + "\n" for line in lines))


# ----------------------------------------------------------------------
# flamegraph SVG (self-contained, dark-mode aware)
# ----------------------------------------------------------------------

#: Phase palette: (light fill, dark fill) pairs chosen to match the
#: dashboard's series/status hues in both color schemes.
_FLAME_COLORS = {
    "probe": ("#eb6834", "#d95926"),
    "fit": ("#1baf7a", "#199e70"),
    "solve": ("#8a63d2", "#7a55c4"),
    "execute": ("#2a78d6", "#3987e5"),
    "overhead": ("#9a9892", "#6e6d68"),
    "other": ("#c3c2b7", "#52514e"),
}


class _FlameNode:
    """One frame of the flamegraph tree (internal)."""

    __slots__ = ("name", "self_us", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.self_us = 0
        self.children: dict[str, "_FlameNode"] = {}

    def child(self, name: str) -> "_FlameNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _FlameNode(name)
        return node

    def total(self) -> int:
        return self.self_us + sum(c.total() for c in self.children.values())


def _flame_tree(lines: Sequence[str]) -> _FlameNode:
    root = _FlameNode("all")
    for line in lines:
        stack, _, value = line.rpartition(" ")
        try:
            value_us = int(value)
        except ValueError:
            continue
        node = root
        for frame in stack.split(";"):
            node = node.child(frame)
        node.self_us += value_us
    return root


def render_flamegraph_svg(
    snap_or_lines: Mapping[str, Any] | Sequence[str],
    *,
    width: int = 1180,
    row_h: int = 17,
    min_px: float = 0.4,
    title: str = "phase-attributed CPU profile",
) -> str:
    """Render a flamegraph as one self-contained SVG string.

    Accepts either a snapshot document (collapsed internally) or
    pre-collapsed lines.  The output embeds its own ``<style>`` with
    separate light and dark palettes switched on
    ``prefers-color-scheme`` (no external requests of any kind), first
    levels are the profile phases in their dashboard hues, and every
    frame carries a ``<title>`` tooltip with exact time and share — the
    same conventions as the rest of :mod:`repro.obs.dashboard`.
    """
    if isinstance(snap_or_lines, Mapping):
        lines = collapsed_stacks(snap_or_lines)
    else:
        lines = list(snap_or_lines)
    root = _flame_tree(lines)
    total = root.total()

    frames: list[tuple[int, float, float, str, int, str]] = []
    max_depth = 0

    def layout(node: _FlameNode, depth: int, x: float, phase: str) -> None:
        nonlocal max_depth
        node_total = node.total()
        w = node_total / total * width if total else 0.0
        if w < min_px:
            return
        max_depth = max(max_depth, depth)
        frames.append((depth, x, w, node.name, node_total, phase))
        cx = x
        for name in sorted(node.children):
            child = node.children[name]
            child_phase = phase or (name if name in _FLAME_COLORS else "other")
            cw = child.total() / total * width if total else 0.0
            layout(child, depth + 1, cx, child_phase)
            cx += cw

    if total > 0:
        cx = 0.0
        for name in sorted(root.children):
            child = root.children[name]
            phase = name if name in _FLAME_COLORS else "other"
            layout(child, 0, cx, phase)
            cx += child.total() / total * width

    header_h = 34
    height = header_h + (max_depth + 1) * row_h + 8 if frames else header_h + row_h
    light = "".join(
        f".rf-{p}{{fill:{lc}}}" for p, (lc, _) in _FLAME_COLORS.items()
    )
    dark = "".join(
        f".rf-{p}{{fill:{dc}}}" for p, (_, dc) in _FLAME_COLORS.items()
    )
    style = (
        "svg.repro-flame{font-family:system-ui,-apple-system,'Segoe UI',sans-serif}"
        ".rf-bg{fill:#f9f9f7}.rf-title{fill:#0b0b0b;font-size:13px;font-weight:600}"
        ".rf-sub{fill:#52514e;font-size:11px}"
        ".rf-label{fill:#0b0b0b;font-size:10px;pointer-events:none}"
        "rect.rf-frame{stroke:#f9f9f7;stroke-width:0.6;rx:2}"
        + light
        + "@media (prefers-color-scheme:dark){"
        ".rf-bg{fill:#0d0d0d}.rf-title{fill:#ffffff}.rf-sub{fill:#c3c2b7}"
        ".rf-label{fill:#ffffff}rect.rf-frame{stroke:#0d0d0d}"
        + dark
        + "}"
    )
    parts = [
        f'<svg class="repro-flame" viewBox="0 0 {width} {height}" width="100%" '
        f'xmlns="http://www.w3.org/2000/svg" role="img">',
        f"<style>{style}</style>",
        f'<rect class="rf-bg" x="0" y="0" width="{width}" height="{height}"/>',
        f'<text class="rf-title" x="8" y="16">{escape(title)}</text>',
        f'<text class="rf-sub" x="8" y="29">{total / 1e6:.4f}s profiled '
        f"&#183; {len(frames)} frames &#183; phases colored "
        "probe/fit/solve/execute/overhead</text>",
    ]
    if not frames:
        parts.append(
            f'<text class="rf-sub" x="8" y="{header_h + 12}">(empty profile)</text>'
        )
    for depth, x, w, name, node_total, phase in frames:
        y = header_h + depth * row_h
        pct = node_total / total * 100 if total else 0.0
        tip = f"{escape(name)} &#8212; {node_total / 1e6:.4f}s ({pct:.2f}%)"
        parts.append(
            f'<g class="rf-{phase}"><rect class="rf-frame" x="{x:.2f}" y="{y}" '
            f'width="{max(w - 0.5, 0.5):.2f}" height="{row_h - 1}" '
            f'fill-opacity="{0.92 if depth % 2 == 0 else 0.78}">'
            f"<title>{tip}</title></rect>"
        )
        if w >= 40:
            shown = name if len(name) * 6 < w - 8 else name[: max(int((w - 8) / 6), 1)]
            parts.append(
                f'<text class="rf-label" x="{x + 3:.2f}" y="{y + row_h - 5}">'
                f"{escape(shown)}</text>"
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "".join(parts)


def write_flamegraph(path, snap_or_lines, **kwargs):
    """Render and write a flamegraph SVG; returns the written path."""
    return write_text(path, render_flamegraph_svg(snap_or_lines, **kwargs))
