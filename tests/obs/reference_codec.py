"""Reference JSON forms: one hand-written body per config class.

Each function below is the field-by-field ``to_dict``/``from_dict`` body
its class carried before :func:`repro.obs.artifact.to_data` and
:func:`~repro.obs.artifact.from_data` replaced them, kept verbatim except
that ``self``/``cls`` became an argument and calls between the bodies go
to the reference twins.  ``test_codec.py`` checks the codec writes the
same bytes.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.obs.report import _SCHEMA, RunReport, config_hash
from repro.runtime.faults import (
    DeviceFailure,
    Perturbation,
    TransferFault,
    TransientFailure,
)
from repro.service.arrivals import ArrivalSpec
from repro.service.server import ServiceConfig


def arrival_spec_to_dict(self: ArrivalSpec) -> dict:
    return {
        "rate": float(self.rate),
        "duration": float(self.duration),
        "pattern": self.pattern,
        "tenants": int(self.tenants),
        "templates": [[name, int(size)] for name, size in self.templates],
        "priority_levels": int(self.priority_levels),
    }


def arrival_spec_from_dict(data: dict) -> ArrivalSpec:
    return ArrivalSpec(
        rate=float(data.get("rate", 2.0)),
        duration=float(data.get("duration", 30.0)),
        pattern=str(data.get("pattern", "constant")),
        tenants=int(data.get("tenants", 2)),
        templates=tuple(
            (str(name), int(size))
            for name, size in data.get("templates", [["matmul", 1024]])
        ),
        priority_levels=int(data.get("priority_levels", 3)),
    )


def fault_to_dict(fault) -> dict:
    """Canonical JSON-safe form of any fault object."""
    if isinstance(fault, DeviceFailure):
        return {
            "type": "failure",
            "device_id": fault.device_id,
            "time": float(fault.time),
        }
    if isinstance(fault, Perturbation):
        return {
            "type": "perturbation",
            "device_id": fault.device_id,
            "start_time": float(fault.start_time),
            "factor": float(fault.factor),
        }
    if isinstance(fault, TransientFailure):
        return {
            "type": "transient",
            "device_id": fault.device_id,
            "time": float(fault.time),
            "downtime": float(fault.downtime),
        }
    if isinstance(fault, TransferFault):
        return {
            "type": "transfer",
            "device_id": fault.device_id,
            "time": float(fault.time),
            "duration": float(fault.duration),
            "max_retries": int(fault.max_retries),
            "timeout_factor": float(fault.timeout_factor),
            "backoff_factor": float(fault.backoff_factor),
            "backoff_cap_factor": float(fault.backoff_cap_factor),
            "jitter": float(fault.jitter),
        }
    raise ConfigurationError(f"unknown fault object {fault!r}")


def fault_from_dict(data: dict):
    """Inverse of :func:`fault_to_dict`."""
    kind = data.get("type")
    if kind == "failure":
        return DeviceFailure(data["device_id"], float(data["time"]))
    if kind == "perturbation":
        return Perturbation(
            data["device_id"],
            float(data["start_time"]),
            float(data["factor"]),
        )
    if kind == "transient":
        return TransientFailure(
            data["device_id"], float(data["time"]), float(data["downtime"])
        )
    if kind == "transfer":
        return TransferFault(
            data["device_id"],
            float(data["time"]),
            float(data["duration"]),
            max_retries=int(data.get("max_retries", 4)),
            timeout_factor=float(data.get("timeout_factor", 2.0)),
            backoff_factor=float(data.get("backoff_factor", 1.0)),
            backoff_cap_factor=float(data.get("backoff_cap_factor", 8.0)),
            # absent in schedules serialized before the knob existed
            jitter=float(data.get("jitter", 0.0)),
        )
    raise ConfigurationError(f"unknown fault type {kind!r}")


def service_config_to_dict(self: ServiceConfig) -> dict:
    return {
        "arrivals": arrival_spec_to_dict(self.arrivals),
        "machines": int(self.machines),
        "policy": self.policy,
        "queue_limit": int(self.queue_limit),
        "shed_policy": self.shed_policy,
        "max_active": int(self.max_active),
        "deadline_factor": float(self.deadline_factor),
        "retry_budget": int(self.retry_budget),
        "rebalance_interval": float(self.rebalance_interval),
        "sample_interval": float(self.sample_interval),
        "noise_sigma": float(self.noise_sigma),
        "seed": int(self.seed),
        "breaker_threshold": int(self.breaker_threshold),
        "breaker_cooldown": float(self.breaker_cooldown),
        "breaker_jitter": float(self.breaker_jitter),
        "faults": [fault_to_dict(f) for f in self.faults],
    }


def service_config_from_dict(
    data: dict, *, seed: int | None = None
) -> ServiceConfig:
    return ServiceConfig(
        arrivals=arrival_spec_from_dict(data.get("arrivals", {})),
        machines=int(data.get("machines", 2)),
        policy=str(data.get("policy", "plb-hec")),
        queue_limit=int(data.get("queue_limit", 16)),
        shed_policy=str(data.get("shed_policy", "reject")),
        max_active=int(data.get("max_active", 4)),
        deadline_factor=float(data.get("deadline_factor", 0.0)),
        retry_budget=int(data.get("retry_budget", 2)),
        rebalance_interval=float(data.get("rebalance_interval", 0.5)),
        sample_interval=float(data.get("sample_interval", 0.0)),
        noise_sigma=float(data.get("noise_sigma", 0.0)),
        seed=int(data["seed"] if seed is None else seed),
        breaker_threshold=int(data.get("breaker_threshold", 3)),
        breaker_cooldown=float(data.get("breaker_cooldown", 2.0)),
        breaker_jitter=float(data.get("breaker_jitter", 0.1)),
        faults=tuple(
            fault_from_dict(f) for f in data.get("faults", ())
        ),
    )


def chaos_config_to_dict(self) -> dict:
    return {
        "apps": list(self.apps),
        "sizes": list(self.sizes),
        "machines": self.machines,
        "policies": list(self.policies),
        "runs": self.runs,
        "seed": self.seed,
        "noise_sigma": self.noise_sigma,
        "max_faults": self.max_faults,
        "anomaly_tolerance": self.anomaly_tolerance,
    }


def serve_chaos_config_to_dict(self) -> dict:
    return {
        "policies": list(self.policies),
        "runs": int(self.runs),
        "seed": int(self.seed),
        "rate": float(self.rate),
        "duration": float(self.duration),
        "machines": int(self.machines),
        "queue_limit": int(self.queue_limit),
        "shed_policy": self.shed_policy,
        "max_active": int(self.max_active),
        "deadline_factor": float(self.deadline_factor),
        "retry_budget": int(self.retry_budget),
        "max_faults": int(self.max_faults),
    }


def run_report_to_dict(self: RunReport) -> dict:
    """JSON-compatible plain-data form."""
    return {
        "schema": self.schema,
        "run_id": self.run_id,
        "config": self.config,
        "config_hash": self.config_hash,
        "makespan": self.makespan,
        "rebalances": self.rebalances,
        "solver_overhead_s": self.solver_overhead_s,
        "phase_summary": self.phase_summary,
        "metrics": self.metrics,
    }


def run_report_from_dict(data: dict) -> RunReport:
    """Rebuild a report serialised by :meth:`to_dict`.

    Verifies the config hash: a manifest whose config no longer
    matches its recorded hash has been tampered with or corrupted.
    """
    try:
        report = RunReport(
            run_id=str(data["run_id"]),
            config=dict(data["config"]),
            config_hash=str(data["config_hash"]),
            makespan=float(data["makespan"]),
            rebalances=int(data["rebalances"]),
            solver_overhead_s=float(data["solver_overhead_s"]),
            phase_summary=dict(data.get("phase_summary", {})),
            metrics=dict(data.get("metrics", {})),
            schema=int(data.get("schema", _SCHEMA)),
        )
    except KeyError as exc:
        raise ConfigurationError(f"run report missing key: {exc}") from exc
    if config_hash(report.config) != report.config_hash:
        raise ConfigurationError(
            "run report config hash mismatch (corrupted manifest?)"
        )
    return report


def trace_to_dict(self) -> dict:
    """Serialise the trace to JSON-compatible plain data."""
    return {
        "worker_ids": list(self.worker_ids),
        "makespan": self.makespan,
        "records": [
            {
                "worker_id": r.worker_id,
                "units": r.units,
                "dispatch_time": r.dispatch_time,
                "transfer_time": r.transfer_time,
                "exec_time": r.exec_time,
                "start_time": r.start_time,
                "end_time": r.end_time,
                "phase": r.phase,
                "step": r.step,
                "start_unit": r.start_unit,
                "retries": r.retries,
                "retry_time": r.retry_time,
                "decision": r.decision,
            }
            for r in self.records
        ],
        "phase_marks": [list(m) for m in self.phase_marks],
        "rebalance_times": list(self.rebalance_times),
        "solver_overheads": list(self.solver_overheads),
        "solver_overhead_times": list(self.solver_overhead_times),
        "failures": [list(f) for f in self.failures],
        "recoveries": [list(r) for r in self.recoveries],
        "lost_blocks": [list(b) for b in self.lost_blocks],
    }
