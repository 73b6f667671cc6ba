"""Cache addresses of faulted and service runs are pinned.

A key is a hash of the run's inputs in their JSON form, fault dicts and
the service config's sweep JSON included, so any drift in those forms
would silently orphan every cached entry.  The literals were computed
before the config codec replaced the hand-written forms, and re-pinned
with each ``ALGORITHM_VERSION`` bump: under "7" the same inputs hash to
``089d45e0…`` and ``6519c21f…``, under "8" to ``1c819516…`` and
``d4a48477…``, under "9" to ``7ca3c8bf…`` and ``34b7754d…``; under "10"
they still hash to the keys ``test_version_10_keys_are_unchanged`` pins.
"""

from __future__ import annotations

import repro.experiments.parallel as parallel
from repro.cluster import paper_cluster
from repro.experiments.parallel import ResultCache, RunSpec, _factory_tag
from repro.runtime.faults import (
    DeviceFailure,
    Perturbation,
    TransferFault,
    TransientFailure,
)
from repro.service.arrivals import ArrivalSpec
from repro.service.server import ServiceConfig

#: every fault kind, ints in float fields included
FAULTS = (
    DeviceFailure("B.gpu0", 1),
    Perturbation("A.cpu0", 0.1, 2),
    TransientFailure("A.gpu0", 0.05, 0.1),
    TransferFault("B.cpu0", 0.2, 0.05, max_retries=3, jitter=0.25),
)

TAG = _factory_tag(paper_cluster)


def faulted_spec() -> RunSpec:
    return RunSpec(
        app_name="matmul",
        size=4096,
        num_machines=2,
        policy_name="plb-hec",
        run_seed=7,
        noise_sigma=0.005,
        fixed_overhead_s=0.002,
        faults=FAULTS,
        tolerate_errors=True,
    )


def service_spec() -> RunSpec:
    service = ServiceConfig(
        arrivals=ArrivalSpec(rate=3, duration=12, pattern="bursty"),
        machines=2,
        policy="greedy",
        queue_limit=8,
        shed_policy="drop-oldest",
        deadline_factor=30,
        retry_budget=4,
        faults=FAULTS,
    )
    return RunSpec(
        app_name="serve",
        size=0,
        num_machines=2,
        policy_name="greedy",
        run_seed=3,
        noise_sigma=0.0,
        tolerate_errors=True,
        service_json=service.to_sweep_json(),
    )


def test_faulted_run_key_is_pinned():
    assert ResultCache.key(faulted_spec(), TAG) == (
        "565307eb169defdb0628a49a4082749e8253d6a95f96f04e267028227e62e9a8"
    )


def test_service_run_key_is_pinned():
    assert ResultCache.key(service_spec(), TAG) == (
        "3fb03e8667b9084e4c56a0eb6c770812d99997d49a8703163690956b7bea0959"
    )


def test_version_10_keys_are_unchanged(monkeypatch):
    # only the version moved the pins: the inputs' JSON forms did not
    monkeypatch.setattr(parallel, "ALGORITHM_VERSION", "10")
    assert ResultCache.key(faulted_spec(), TAG) == (
        "fec033926e60b5ad3f1bfe03a10f6f88dff2db29c94fbf0e95bfffc8320c04fd"
    )
    assert ResultCache.key(service_spec(), TAG) == (
        "efdf0fa71e3ba2802dd1a79f8b4bd7efc20eed5efb3f9852d7a15cfe6e41fd7b"
    )
