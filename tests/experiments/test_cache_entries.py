"""A cache entry holds only what its key determines.

Two empty caches filled from the same points hold byte-identical
entries, and a key filled after a PLB-HeC run in the same process holds
what it holds when filled first: the host wall clock, the registry delta
and a profile describe one execution, so they never enter an entry.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.parallel import PointSpec, ResultCache, SweepStats, run_sweep
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.runtime.faults import TransientFailure
from repro.service import ServiceConfig
from repro.service.arrivals import ArrivalSpec

BATCH = PointSpec(
    "matmul", 2048, 2, ("greedy", "plb-hec"),
    replications=1, seed=3, fixed_overhead_s=0.01,
)
FAULTED = PointSpec(
    "matmul", 2048, 2, ("plb-hec",),
    replications=1, seed=3, fixed_overhead_s=0.01,
    faults=(TransientFailure("A.gpu0", 0.02, 0.03),),
)
SERVICE = PointSpec(
    "serve", 0, 2, ("plb-hec",), replications=1, seed=0,
    service_json=ServiceConfig(
        arrivals=ArrivalSpec(rate=3.0, duration=6.0), policy="plb-hec"
    ).to_sweep_json(),
)
GREEDY = PointSpec(
    "matmul", 1024, 1, ("greedy",), replications=1, seed=5, fixed_overhead_s=0.01
)


@pytest.fixture
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)


def fill(root, points) -> dict[str, bytes]:
    """Fill an empty cache at ``root`` from ``points``; its entries by key."""
    stats = SweepStats()
    run_sweep(points, jobs=1, cache=ResultCache(root), stats=stats)
    assert stats.cache_hits == 0
    return {path.stem: path.read_bytes() for path in root.rglob("*.json")}


def test_two_fills_write_identical_entries(tmp_path):
    points = [BATCH, FAULTED, SERVICE]
    first = fill(tmp_path / "a", points)
    second = fill(tmp_path / "b", points)
    assert len(first) == 4
    assert first == second
    entries = [json.loads(blob) for blob in first.values()]
    for entry in entries:
        assert not set(ResultCache.FRESH_ONLY) & entry.keys()
        assert entry["report"]["metrics"] == {}
    assert sum("resilience" in e for e in entries) == 1
    assert sum("serve" in e for e in entries) == 1


def test_entry_does_not_depend_on_earlier_runs(tmp_path, fresh_registry):
    first = fill(tmp_path / "first", [GREEDY])
    after = fill(tmp_path / "after", [BATCH, GREEDY])
    (key,) = first
    assert after[key] == first[key]

