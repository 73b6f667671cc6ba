"""Structured event log: instants with run-id correlation.

The observability layer's second leg (next to the metrics registry and
the Chrome-trace exporter): every interesting moment — a run ending, a
scheduler decision, a rebalance, a sweep batch — can be emitted as a
*structured* record through the normal ``repro`` logging hierarchy.
With the default text formatter the records read as ordinary log lines;
with ``--log-format json`` (see
:func:`repro.util.logging.configure_logging`) each becomes one JSON
object per line, ready for ``jq``/ingestion.

Correlation: a run id set via :func:`push_run_id` (the
:class:`~repro.runtime.runtime.Runtime` does this for every run) is
attached to every event emitted underneath it, from any module, without
threading the id through call signatures — it lives in a
:class:`contextvars.ContextVar`, so it is safe under threads and is
inherited by the real executor's worker threads.

An event's ``ts`` is the host's wall clock and times nothing; virtual
time lives in :class:`~repro.sim.trace.ExecutionTrace` (exported by
:mod:`repro.obs.trace_export`), and host time is the phase profiler's
(:mod:`repro.obs.profiler`).
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import itertools
import logging
import time
from typing import Any, Iterator

from repro.util.logging import get_logger

__all__ = [
    "EventLog",
    "current_run_id",
    "push_run_id",
    "new_run_id",
]

_run_id_var: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_run_id", default=None
)
_run_counter = itertools.count(1)


def new_run_id(seed_material: str = "") -> str:
    """A short, human-scannable run id.

    Deterministic inputs (config hashes) pass ``seed_material``;
    otherwise the id is a process-local sequence number plus the time,
    unique enough for log correlation without any global coordination.
    """
    if seed_material:
        digest = hashlib.sha256(seed_material.encode("utf-8")).hexdigest()
        return f"run-{digest[:12]}"
    return f"run-{int(time.time()) % 100000:05d}-{next(_run_counter)}"


def current_run_id() -> str | None:
    """The run id events in this context correlate under (or None)."""
    return _run_id_var.get()


@contextlib.contextmanager
def push_run_id(run_id: str) -> Iterator[str]:
    """Set the ambient run id for the duration of the ``with`` block."""
    token = _run_id_var.set(run_id)
    try:
        yield run_id
    finally:
        _run_id_var.reset(token)


class EventLog:
    """Emit structured instant events through a ``repro`` logger.

    Parameters
    ----------
    name:
        Logger suffix the events are emitted under (``obs.events`` by
        default; instrumented modules pass their own so per-module
        level filtering keeps working).
    level:
        Logging level of emitted records (INFO by default).
    """

    def __init__(self, name: str = "obs.events", *, level: int = logging.INFO) -> None:
        self._log = get_logger(name)
        self._level = level

    def instant(self, name: str, **attrs: Any) -> None:
        """Emit a point-in-time event, tagged with the ambient run id."""
        payload = {"type": "instant", "name": name, "ts": time.time(), **attrs}
        run_id = _run_id_var.get()
        if run_id is not None:
            payload.setdefault("run_id", run_id)
        detail = " ".join(f"{k}={v}" for k, v in attrs.items())
        message = f"event {name}" + (f" {detail}" if detail else "")
        self._log.log(self._level, "%s", message, extra={"repro_event": payload})
