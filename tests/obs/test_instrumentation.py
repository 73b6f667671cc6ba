"""Integration tests: the instrumented subsystems feed the registry."""

import pytest

from repro.obs.metrics import MetricsRegistry, set_registry
from repro.sim.engine import Engine


@pytest.fixture
def registry():
    """Swap in a fresh default registry for the duration of the test."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestEngineMetrics:
    def test_run_flushes_event_counts(self, registry):
        engine = Engine()
        engine.schedule_after(1.0, lambda: None)
        engine.schedule_after(2.0, lambda: None)
        doomed = engine.schedule_after(3.0, lambda: None)
        engine.cancel(doomed)
        engine.run()
        counters = registry.snapshot()["counters"]
        assert counters["sim.events_dispatched"] == 2.0
        assert counters["sim.events_scheduled"] == 3.0
        assert counters["sim.events_cancelled"] == 1.0
        assert registry.snapshot()["gauges"]["sim.queue_max_depth"] == 3.0

    def test_consecutive_runs_publish_deltas(self, registry):
        engine = Engine()
        engine.schedule_after(1.0, lambda: None)
        engine.run()
        engine.schedule_at(engine.now + 1.0, lambda: None)
        engine.run()
        # two runs, one event each: deltas add up, never double-count
        assert registry.snapshot()["counters"]["sim.events_dispatched"] == 2.0

    def test_reset_does_not_replay_history(self, registry):
        engine = Engine()
        engine.schedule_after(1.0, lambda: None)
        engine.run()
        engine.reset()
        engine.schedule_after(1.0, lambda: None)
        engine.run()
        assert registry.snapshot()["counters"]["sim.events_dispatched"] == 2.0


class TestEndToEndCounters:
    def test_ledger_restorations_are_each_solves_counter_delta(
        self, registry, monkeypatch
    ):
        import repro.core.plb_hec as plb_hec
        from repro import PLBHeC, Runtime, paper_cluster
        from repro.apps import MatMul
        from repro.solver import partition

        def restorations():
            return registry.snapshot()["counters"].get("ipm.restorations", 0.0)

        solve, deltas = plb_hec.solve_block_partition, []

        def counted(*args, **kwargs):
            # stand-in restorations, a different count for every solve
            before = restorations()
            registry.inc("ipm.restorations", len(deltas) + 1)
            try:
                return solve(*args, **kwargs)
            finally:
                deltas.append(restorations() - before)

        monkeypatch.setattr(partition, "_certify", lambda *args: None)
        monkeypatch.setattr(plb_hec, "solve_block_partition", counted)
        app = MatMul(n=16384)
        result = Runtime(paper_cluster(2), app.codelet(), seed=0).run(
            PLBHeC(), app.total_units, app.default_initial_block_size()
        )
        solved = [
            d.solver for d in result.ledger.decisions if d.trigger != "probe-round"
        ]
        assert len(solved) >= 2 and {s["method"] for s in solved} == {"ipm"}
        assert [s["restorations"] for s in solved] == deltas
        assert deltas[0] < deltas[1]

    def test_plb_hec_run_populates_registry(self, registry, small_cluster):
        from repro import PLBHeC, Runtime
        from repro.apps import MatMul

        app = MatMul(n=4096)
        result = Runtime(small_cluster, app.codelet(), seed=0).run(
            PLBHeC(), app.total_units, app.default_initial_block_size()
        )
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["plbhec.probe_rounds"] > 0
        assert counters["plbhec.fit_attempts"] > 0
        assert counters["plbhec.solves"] > 0
        assert counters["sim.events_dispatched"] > 0
        solved = [
            d.solver for d in result.ledger.decisions if d.trigger != "probe-round"
        ]
        assert len(solved) == counters["plbhec.solves"]
        assert {s["method"] for s in solved} == {"certified"}
        # reading the restoration counter around each solve creates none
        assert not [k for part in snap.values() for k in part if k.startswith("ipm.")]
        # per-device R2 gauges carry a device label
        r2_keys = [k for k in snap["gauges"] if k.startswith("plbhec.r2{device=")]
        assert len(r2_keys) == len(small_cluster.devices())
        for key in r2_keys:
            assert 0.0 <= snap["gauges"][key] <= 1.0

    def test_ipm_solve_reports_kkt_and_restorations(self, registry):
        import numpy as np

        from repro.solver.ipm import InteriorPointSolver
        from tests.solver.test_ipm import qp_simplex

        result = InteriorPointSolver().solve(
            qp_simplex(3, [1.0, 2.0, 4.0]), np.full(3, 1 / 3)
        )
        snap = registry.snapshot()
        assert snap["counters"]["ipm.solves"] == 1.0
        assert snap["counters"]["ipm.iterations"] == float(result.iterations)
        assert snap["counters"].get("ipm.restorations", 0.0) == float(
            result.restorations
        )
        assert snap["gauges"]["ipm.kkt_error"] == pytest.approx(
            result.kkt_error, abs=1e-12
        )
