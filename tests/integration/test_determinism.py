"""Determinism and cross-backend integration tests."""

import pytest

from repro import Greedy, PLBHeC, Runtime, paper_cluster
from repro.apps import BlackScholes, MatMul


class TestDeterminism:
    def test_sim_run_reproducible(self, small_cluster):
        """Bit-identical reruns with fixed scheduler-overhead accounting."""
        app = MatMul(n=4096)
        spans = []
        traces = []
        for _ in range(2):
            rt = Runtime(small_cluster, app.codelet(), seed=17, noise_sigma=0.02)
            res = rt.run(
                PLBHeC(fixed_overhead_s=0.01),
                app.total_units,
                app.default_initial_block_size(),
            )
            spans.append(res.makespan)
            traces.append(
                [(r.worker_id, r.units, r.end_time) for r in res.trace.records]
            )
        assert spans[0] == spans[1]
        assert traces[0] == traces[1]

    def test_measured_overhead_near_reproducible(self, small_cluster):
        """The default (modeled) overhead reruns to the same virtual time."""
        app = MatMul(n=4096)
        spans = []
        for _ in range(2):
            rt = Runtime(small_cluster, app.codelet(), seed=17, noise_sigma=0.02)
            res = rt.run(PLBHeC(), app.total_units, app.default_initial_block_size())
            spans.append(res.makespan)
        assert spans[0] == spans[1]

    def test_seed_changes_results(self, small_cluster):
        app = MatMul(n=4096)
        spans = set()
        for seed in (1, 2):
            rt = Runtime(small_cluster, app.codelet(), seed=seed, noise_sigma=0.05)
            res = rt.run(Greedy(), app.total_units, 8)
            spans.add(res.makespan)
        assert len(spans) == 2

    def test_policies_do_not_share_state(self, small_cluster):
        """Reusing one policy object across runs must not leak state."""
        app = MatMul(n=2048)
        policy = PLBHeC(fixed_overhead_s=0.005)
        r1 = Runtime(small_cluster, app.codelet(), seed=1).run(
            policy, app.total_units, 8
        )
        r2 = Runtime(small_cluster, app.codelet(), seed=1).run(
            policy, app.total_units, 8
        )
        assert r1.makespan == pytest.approx(r2.makespan)


class TestRealBackendEndToEnd:
    def test_matmul_verified_under_plb(self, small_cluster):
        app = MatMul(n=256)
        rt = Runtime(
            small_cluster,
            app.codelet(),
            backend="real",
            speed_factors={"beta.cpu": 2.0},
        )
        res = rt.run(PLBHeC(num_steps=2), app.total_units, 16)
        assert app.verify(res.results)

    def test_blackscholes_verified_under_greedy(self, small_cluster):
        app = BlackScholes(400, lattice_steps=128)
        rt = Runtime(small_cluster, app.codelet(), backend="real")
        res = rt.run(Greedy(num_pieces=16), app.total_units, 16)
        assert app.verify(res.results)


class TestVirtualTimeScaling:
    def test_wall_time_much_smaller_than_virtual(self):
        """A paper-scale run must simulate in a fraction of its makespan."""
        app = MatMul(n=32768)
        rt = Runtime(paper_cluster(4), app.codelet(), seed=0)
        res = rt.run(Greedy(), app.total_units, app.default_initial_block_size())
        assert res.makespan > 10.0  # tens of virtual seconds
        assert res.wall_time_s < res.makespan / 10
