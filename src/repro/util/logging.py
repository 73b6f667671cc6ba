"""Library logging setup.

The library logs under the ``repro`` namespace and never configures the
root logger; applications opt in by attaching handlers.  ``get_logger``
adds a ``NullHandler`` to the package root once, following the standard
library-logging convention.

The CLI (and any embedding application) opts into console output via
:func:`configure_logging`, which supports two formats:

* ``"text"`` — conventional one-line records;
* ``"json"`` — one JSON object per line.  Structured events emitted by
  :class:`repro.obs.events.EventLog` attach their payload under
  ``extra={"repro_event": {...}}``; the JSON formatter merges that
  payload into the record, so instant events come out as
  machine-readable JSON-lines.

:func:`configure_from_env` honours the ``REPRO_LOG`` environment
variable (``REPRO_LOG=debug``, ``REPRO_LOG=json``,
``REPRO_LOG=info:json``), documented next to ``REPRO_JOBS`` and
``REPRO_CACHE`` in the README.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from typing import IO

from repro.errors import ConfigurationError

__all__ = [
    "get_logger",
    "configure_logging",
    "configure_from_env",
    "current_config",
    "JsonFormatter",
]

_ROOT_NAME = "repro"
_initialized = False
_configured_handler: logging.Handler | None = None
_current_config: tuple[str, str] | None = None

_LEVELS = {
    "critical": logging.CRITICAL,
    "error": logging.ERROR,
    "warning": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def get_logger(name: str) -> logging.Logger:
    """Return a logger under the ``repro`` hierarchy.

    Parameters
    ----------
    name:
        Either a dotted module name (``repro.sim.engine``) or a short
        suffix (``sim.engine``); both map to the same logger.
    """
    global _initialized
    if not _initialized:
        logging.getLogger(_ROOT_NAME).addHandler(logging.NullHandler())
        _initialized = True
    if not name.startswith(_ROOT_NAME):
        name = f"{_ROOT_NAME}.{name}"
    return logging.getLogger(name)


class JsonFormatter(logging.Formatter):
    """One JSON object per record (JSON-lines).

    Base fields: ``ts`` (epoch seconds), ``level``, ``logger``, ``msg``.
    A ``repro_event`` payload attached by
    :class:`~repro.obs.events.EventLog` is merged in (its keys win over
    nothing — base fields are never clobbered), giving structured
    instant events their machine-readable form.
    """

    def format(self, record: logging.LogRecord) -> str:
        doc = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        payload = getattr(record, "repro_event", None)
        if isinstance(payload, dict):
            for key, value in payload.items():
                if key not in doc:
                    doc[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            doc["exc"] = self.formatException(record.exc_info)
        return json.dumps(doc, default=str)


class _TextFormatter(logging.Formatter):
    """Conventional text records; appends a compact run-id suffix."""

    def __init__(self) -> None:
        super().__init__("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
        self.converter = time.localtime

    def format(self, record: logging.LogRecord) -> str:
        text = super().format(record)
        payload = getattr(record, "repro_event", None)
        if isinstance(payload, dict) and payload.get("run_id"):
            text += f" [{payload['run_id']}]"
        return text


def configure_logging(
    level: str = "info",
    fmt: str = "text",
    *,
    stream: IO[str] | None = None,
) -> logging.Handler:
    """Attach (or replace) the library's console handler.

    Parameters
    ----------
    level:
        ``critical``/``error``/``warning``/``info``/``debug``.
    fmt:
        ``"text"`` or ``"json"`` (JSON-lines).
    stream:
        Destination (default ``sys.stderr``).

    Idempotent: calling again replaces the previously configured
    handler instead of stacking duplicates, so ``--log-level`` on a CLI
    that already configured defaults just takes effect.
    """
    global _configured_handler, _current_config
    level_no = _LEVELS.get(level.strip().lower())
    if level_no is None:
        raise ConfigurationError(
            f"log level must be one of {sorted(_LEVELS)}, got {level!r}"
        )
    fmt = fmt.strip().lower()
    if fmt not in ("text", "json"):
        raise ConfigurationError(f"log format must be 'text' or 'json', got {fmt!r}")
    root = get_logger(_ROOT_NAME)
    if _configured_handler is not None:
        root.removeHandler(_configured_handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(JsonFormatter() if fmt == "json" else _TextFormatter())
    root.addHandler(handler)
    root.setLevel(level_no)
    _configured_handler = handler
    _current_config = (level.strip().lower(), fmt)
    return handler


def current_config() -> tuple[str, str] | None:
    """The active ``(level, fmt)`` console config, or None if unset.

    Process-pool workers start with the library's default NullHandler
    regardless of what the parent configured; the sweep engine passes
    this value into its worker initializer so worker-side records reach
    the console in the same format as the parent's (see
    ``repro.experiments.parallel._pool_worker_init``).
    """
    return _current_config


def configure_from_env(
    *,
    level: str | None = None,
    fmt: str | None = None,
) -> logging.Handler | None:
    """Configure from ``REPRO_LOG``, with explicit arguments winning.

    ``REPRO_LOG`` accepts ``<level>``, ``<format>`` or
    ``<level>:<format>`` (e.g. ``debug``, ``json``, ``info:json``).
    Returns the handler, or None when neither the environment nor the
    arguments request any logging setup.
    """
    env = os.environ.get("REPRO_LOG", "").strip().lower()
    env_level, env_fmt = None, None
    if env:
        for part in env.split(":"):
            part = part.strip()
            if not part:
                continue
            if part in _LEVELS:
                env_level = part
            elif part in ("text", "json"):
                env_fmt = part
            else:
                raise ConfigurationError(
                    f"REPRO_LOG part {part!r} is neither a level "
                    f"({sorted(_LEVELS)}) nor a format ('text', 'json')"
                )
    level = level or env_level
    fmt = fmt or env_fmt
    if level is None and fmt is None:
        return None
    return configure_logging(level or "info", fmt or "text")
