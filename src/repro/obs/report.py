"""Per-run telemetry manifest (:class:`RunReport`).

One run = one manifest: what configuration ran (and its content hash),
what the run did (makespan, rebalances, phase summary) and, for
``repro run --metrics-out``, what the instruments measured while it ran
(a metrics-registry delta).  The sweep engine stores the manifest
without metrics inside every payload and cache entry, so a cache-served
run carries the manifest a fresh one does.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.artifact import from_data, to_data

__all__ = ["RunReport", "config_hash"]

_SCHEMA = 1


def config_hash(config: dict) -> str:
    """SHA-256 over the canonical JSON of a run's configuration."""
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunReport:
    """The telemetry manifest of one completed run.

    Attributes
    ----------
    run_id:
        Correlation id shared with the structured event log.
    config:
        The run-determining inputs (app, size, machines, policy, seed,
        noise, overhead mode).
    config_hash:
        SHA-256 of the canonical JSON of ``config``.
    makespan / rebalances / solver_overhead_s:
        Headline outcomes.
    phase_summary:
        :meth:`~repro.sim.trace.ExecutionTrace.phase_summary` output.
    metrics:
        Metrics-registry delta over the run (``repro run --metrics-out``:
        its counters and gauges, a pure function of the run); empty in
        sweep payloads, whose runs take no delta.
    """

    run_id: str
    config: dict
    config_hash: str
    makespan: float
    rebalances: int
    solver_overhead_s: float
    phase_summary: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    schema: int = _SCHEMA

    @classmethod
    def build(
        cls,
        *,
        config: dict,
        makespan: float,
        rebalances: int,
        solver_overhead_s: float,
        phase_summary: dict | None = None,
        metrics: dict | None = None,
        run_id: str | None = None,
    ) -> "RunReport":
        """Assemble a report, deriving the hash and a default run id."""
        digest = config_hash(config)
        return cls(
            run_id=run_id or f"run-{digest[:12]}",
            config=dict(config),
            config_hash=digest,
            makespan=float(makespan),
            rebalances=int(rebalances),
            solver_overhead_s=float(solver_overhead_s),
            phase_summary=dict(phase_summary or {}),
            metrics=dict(metrics or {}),
        )

    def to_dict(self) -> dict:
        """JSON-compatible plain-data form."""
        return to_data(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Rebuild a report serialised by :meth:`to_dict`.

        Verifies the config hash: a manifest whose config no longer
        matches its recorded hash has been tampered with or corrupted.
        """
        try:
            report = from_data(cls, data)
        except KeyError as exc:
            raise ConfigurationError(f"run report missing key: {exc}") from exc
        if config_hash(report.config) != report.config_hash:
            raise ConfigurationError(
                "run report config hash mismatch (corrupted manifest?)"
            )
        return report
