"""Tests for repro.runtime.runtime (the facade)."""

import logging

import pytest

from repro.balancers import Greedy
from repro.errors import ConfigurationError
from repro.runtime import Runtime
from repro.apps import MatMul


class TestRuntime:
    def test_invalid_backend(self, small_cluster):
        app = MatMul(n=128)
        with pytest.raises(ConfigurationError, match="backend"):
            Runtime(small_cluster, app.codelet(), backend="quantum")

    def test_sim_run_result_fields(self, small_cluster):
        app = MatMul(n=256)
        rt = Runtime(small_cluster, app.codelet(), seed=1)
        res = rt.run(Greedy(num_pieces=8), app.total_units, 8)
        assert res.backend == "sim"
        assert res.policy_name == "greedy"
        assert res.total_units == 256
        assert res.makespan > 0
        assert res.results is None
        assert set(res.idle_fractions) == {
            d.device_id for d in small_cluster.devices()
        }

    def test_real_run_returns_results(self, small_cluster):
        app = MatMul(n=128)
        rt = Runtime(small_cluster, app.codelet(), backend="real")
        res = rt.run(Greedy(num_pieces=8), app.total_units, 8)
        assert res.backend == "real"
        assert res.results is not None
        assert app.verify(res.results)

    def test_default_initial_block_size(self, small_cluster):
        app = MatMul(n=512)
        rt = Runtime(small_cluster, app.codelet(), seed=1)
        res = rt.run(Greedy(), app.total_units)  # default ~1%
        assert res.total_units == 512

    def test_properties_delegate_to_trace(self, small_cluster):
        app = MatMul(n=256)
        rt = Runtime(small_cluster, app.codelet(), seed=1)
        res = rt.run(Greedy(num_pieces=8), app.total_units, 8)
        assert res.num_rebalances == res.trace.num_rebalances
        assert res.solver_overhead_s == res.trace.total_solver_overhead

    def test_run_emits_one_instant_with_its_makespan(self, small_cluster):
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger("repro.runtime")
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            app = MatMul(n=256)
            rt = Runtime(small_cluster, app.codelet(), seed=1)
            res = rt.run(Greedy(num_pieces=8), app.total_units, 8)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)
        (event,) = [
            r.repro_event for r in records
            if getattr(r, "repro_event", {}).get("name") == "runtime.run"
        ]
        assert event == {
            "type": "instant",
            "name": "runtime.run",
            "ts": event["ts"],
            "policy": "greedy",
            "backend": "sim",
            "total_units": 256,
            "makespan": res.makespan,
            "run_id": res.run_id,
        }

    def test_summary_readable(self, small_cluster):
        from repro import PLBHeC

        app = MatMul(n=2048)
        rt = Runtime(small_cluster, app.codelet(), seed=1)
        res = rt.run(PLBHeC(), app.total_units, 8)
        text = res.summary()
        assert "plb-hec" in text
        assert "units" in text
        assert "idleness" in text
        assert "probing" in text
