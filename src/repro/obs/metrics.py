"""Zero-dependency metrics registry: counters and gauges.

The paper's entire evaluation (Sec. V) is instrumentation — probe
rounds, rebalance counts, solver iterations, idleness — and every later
performance or robustness change to this repo needs those signals
visible without attaching a debugger.  This module provides the
substrate: a :class:`MetricsRegistry` of named instruments with
optional labels, safe to update from multiple threads, whose
:meth:`~MetricsRegistry.snapshot` is a plain JSON-compatible dict that
crosses process boundaries.  One run's share comes from
:meth:`~MetricsRegistry.mark` and :meth:`~MetricsRegistry.delta_since`
(``repro run --metrics-out``), and costs what the run recorded, not
what the process has recorded so far.  Every series counts work or
records a virtual-time or model quantity, never host time (that is the
phase profiler's, :mod:`repro.obs.profiler`), so a run's delta is a
pure function of the run.

Design choices, deliberately boring:

* **No dependencies.**  Prometheus/OpenTelemetry clients are heavy and
  unavailable in the hermetic test environment; the snapshot dict is
  trivially convertible to either later.
* **One lock per registry.**  Instruments share their registry's lock;
  updates are a dict lookup plus a float add, so contention is
  negligible at this library's event rates (the DES hot path batches
  its counts and flushes once per run — see :mod:`repro.sim.engine`).
* **Bounded label cardinality.**  A typo'd label value must not grow
  the registry without bound: past ``max_label_sets`` distinct label
  combinations per metric name, updates fold into a single overflow
  series (labelled ``{"overflow": "true"}``) and a warning is logged
  once per metric.

Usage::

    from repro.obs.metrics import get_registry

    reg = get_registry()
    reg.inc("plbhec.rebalances")
    reg.set_gauge("plbhec.r2", 0.93, device="A.gpu0")
    reg.snapshot()["counters"]["plbhec.rebalances"]  # -> 1.0
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterator, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.util.logging import get_logger

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "reset_registry",
    "percentile",
    "snapshot_to_prometheus",
]

_log = get_logger("obs.metrics")

#: Snapshot key of a labelled series: ``name{k=v,k2=v2}`` (sorted keys).
_OVERFLOW_LABELS = {"overflow": "true"}

#: What :meth:`MetricsRegistry.mark` returns.
Mark = tuple[int, dict[str, float]]


def _series_key(name: str, labels: Mapping[str, str] | None) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _parse_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`_series_key`: ``name{k=v,...}`` -> ``(name, labels)``.

    A label value may contain ``=`` (the first one splits) but not
    ``,``, which the key format cannot carry.
    """
    name, brace, body = key.partition("{")
    if not brace:
        return key, {}
    pairs = (pair.partition("=") for pair in body[:-1].split(","))
    return name, {k: v for k, sep, v in pairs if sep}


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0.0:
            raise ConfigurationError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (last write wins).

    ``written`` is the registry's write clock at the last ``set`` or
    ``add`` (0: never written), so a run's delta can keep the gauges
    that run wrote (:meth:`MetricsRegistry.delta_since`).
    """

    __slots__ = ("_lock", "_clock", "value", "written")

    def __init__(self, lock: threading.RLock, clock: Iterator[int]) -> None:
        self._lock = lock
        self._clock = clock
        self.value = 0.0
        self.written = 0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self.value = float(value)
            self.written = next(self._clock)

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta`` (negative allowed)."""
        with self._lock:
            self.value += float(delta)
            self.written = next(self._clock)


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of the ascending list ``ordered``.

    Linear interpolation between closest ranks; 0.0 on an empty list.
    Every percentile in :mod:`repro.obs` (time-series windows, SLO
    aggregates) is this function.
    """
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    if not ordered:
        return 0.0
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class MetricsRegistry:
    """A named collection of counters and gauges.

    Instruments are created on first use (``counter("x")`` is
    get-or-create), so instrumented modules never need registration
    boilerplate and an un-exercised code path simply contributes no
    series.
    """

    def __init__(self, *, max_label_sets: int = 128) -> None:
        if max_label_sets < 1:
            raise ConfigurationError("max_label_sets must be >= 1")
        self._lock = threading.RLock()
        self.max_label_sets = max_label_sets
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._label_sets: dict[str, int] = {}  # metric name -> distinct series
        self._overflowed: set[str] = set()
        # ticks on every gauge write; a mark is one tick
        self._clock = itertools.count(1)

    # ------------------------------------------------------------------
    # instrument access
    # ------------------------------------------------------------------
    def _key(self, name: str, labels: Mapping[str, str] | None, table: dict) -> str:
        """Resolve the series key, folding runaway cardinality."""
        if not name:
            raise ConfigurationError("metric name must be non-empty")
        key = _series_key(name, labels)
        if labels and key not in table:
            seen = self._label_sets.get(name, 0)
            if seen >= self.max_label_sets:
                if name not in self._overflowed:
                    self._overflowed.add(name)
                    _log.warning(
                        "metric %r exceeded %d label sets; folding further "
                        "series into an overflow bucket",
                        name,
                        self.max_label_sets,
                    )
                return _series_key(name, _OVERFLOW_LABELS)
            self._label_sets[name] = seen + 1
        return key

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter for ``name`` + label set."""
        with self._lock:
            key = self._key(name, labels, self._counters)
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter(self._lock)
            return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge for ``name`` + label set."""
        with self._lock:
            key = self._key(name, labels, self._gauges)
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge(self._lock, self._clock)
            return inst

    # ------------------------------------------------------------------
    # convenience updates (the forms instrumented code actually calls)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Increment the named counter."""
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set the named gauge."""
        self.gauge(name, **labels).set(value)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-compatible point-in-time view of every series.

        Returns ``{"counters": {key: value}, "gauges": {key: value}}``.
        The result is a deep plain-data copy: safe to serialise, diff, or
        ship across processes.
        """
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
            }

    def mark(self) -> Mark:
        """Where a run's metrics start: what :meth:`delta_since` subtracts.

        The write-clock tick and the counter values.
        """
        with self._lock:
            return (
                next(self._clock),
                {k: c.value for k, c in self._counters.items()},
            )

    def delta_since(self, mark: Mark) -> dict:
        """The metrics of the run that began at ``mark``, shaped like a snapshot.

        Counters that moved, by how much, and gauges written since the
        mark (a level an earlier run left is not this run's; a rewrite to
        the old value is).  Runs sharing a registry must not overlap.
        """
        tick, counters_before = mark
        counters: dict[str, float] = {}
        with self._lock:
            for key, counter in self._counters.items():
                delta = counter.value - counters_before.get(key, 0.0)
                if delta != 0.0:
                    counters[key] = delta
            gauges = {
                k: g.value for k, g in self._gauges.items() if g.written > tick
            }
        return {"counters": counters, "gauges": gauges}

    def counter_value(self, name: str, **labels: str) -> float:
        """The named counter's value; 0.0, creating no series, if absent."""
        with self._lock:
            counter = self._counters.get(_series_key(name, labels))
            return 0.0 if counter is None else counter.value

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format.

        See :func:`snapshot_to_prometheus` for the mapping rules.
        """
        return snapshot_to_prometheus(self.snapshot())

    def reset(self) -> None:
        """Drop every series (used by tests and per-run isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._label_sets.clear()
            self._overflowed.clear()


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    """Sanitize a metric name to ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    out = []
    for i, ch in enumerate(name):
        if ch.isascii() and (ch.isalpha() or ch in "_:" or (ch.isdigit() and i > 0)):
            out.append(ch)
        else:
            out.append("_")
    return "".join(out) or "_"


def _prom_escape(value: str) -> str:
    """Escape a label value per the exposition-format rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_unescape(value: str) -> str:
    """Invert :func:`_prom_escape` (label values round-trip exactly)."""
    out = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
    return "".join(out)


def _prom_help(family: str, kind: str) -> str:
    """The ``# HELP`` line of one family.

    HELP text escapes only backslash and newline (the exposition format
    does not quote it); family names are already sanitized, so this is
    belt and braces.
    """
    text = f"repro {kind} metric {family}"
    text = text.replace("\\", "\\\\").replace("\n", "\\n")
    return f"# HELP {family} {text}"


def _prom_series(key: str) -> str:
    """Render one series reference: sanitized name and labels."""
    name, labels = _parse_series_key(key)
    rendered = _prom_name(name)
    if labels:
        body = ",".join(
            f'{_prom_name(k)}="{_prom_escape(v)}"' for k, v in labels.items()
        )
        rendered += "{" + body + "}"
    return rendered


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def snapshot_to_prometheus(snapshot: dict) -> str:
    """A registry snapshot in Prometheus text exposition format.

    Mapping rules: counters and gauges become ``counter``/``gauge``
    families.  Metric names are sanitized (dots become underscores);
    label values are escaped (and round-trip through
    :func:`_prom_unescape`).  Families are emitted sorted by name,
    counters first, each preceded by ``# HELP`` and ``# TYPE`` comments,
    and the output ends with a newline (as scrapers expect).  An empty
    snapshot yields the empty string — a valid (empty) exposition.
    """
    lines: list[str] = []

    def families(section: dict) -> dict[str, list[str]]:
        by_name: dict[str, list[str]] = {}
        for key in sorted(section):
            name, _ = _parse_series_key(key)
            by_name.setdefault(_prom_name(name), []).append(key)
        return by_name

    for section, kind in (("counters", "counter"), ("gauges", "gauge")):
        values = snapshot.get(section, {})
        for family, keys in sorted(families(values).items()):
            lines.append(_prom_help(family, kind))
            lines.append(f"# TYPE {family} {kind}")
            for key in keys:
                lines.append(f"{_prom_series(key)} {_prom_value(values[key])}")
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# process-default registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry instrumented modules write to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (returns the previous one)."""
    global _default_registry
    with _registry_lock:
        previous = _default_registry
        _default_registry = registry
        return previous


def reset_registry() -> None:
    """Clear the default registry (test isolation helper)."""
    _default_registry.reset()
