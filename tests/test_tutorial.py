"""The tutorial's code must actually work (docs/TUTORIAL.md)."""

import numpy as np
import pytest

from repro import PLBHeC, Runtime
from repro.apps import Application
from repro.cluster import KernelCharacteristics
from repro.runtime import SchedulingPolicy


class RayBatch(Application):
    """The tutorial's custom application, verbatim in structure."""

    name = "raybatch"

    def __init__(self, num_rays: int, *, bounces: int = 8, seed: int = 0):
        self.num_rays = num_rays
        self.bounces = bounces
        self.seed = seed

    @property
    def total_units(self) -> int:
        return self.num_rays

    def kernel_characteristics(self):
        return KernelCharacteristics(
            name=self.name,
            flops_per_unit=50_000.0 * self.bounces,
            bytes_in_per_unit=32.0,
            bytes_out_per_unit=12.0,
            gpu_efficiency=0.5,
            gpu_half_units=20_000.0,
            cpu_half_units=500.0,
            gpu_half_scaling="cores",
        )

    def cpu_kernel(self, start, count):
        rng = np.random.default_rng((self.seed, start))
        return rng.random((count, 3))

    def verify(self, results):
        return self.coverage_ok(results, self.total_units)

    def default_initial_block_size(self):
        return max(self.num_rays // 256, 1)


class ChunkedRoundRobin(SchedulingPolicy):
    """The tutorial's custom policy, verbatim in structure."""

    name = "chunked-rr"

    def __init__(self, fraction: float = 0.05):
        self.fraction = fraction

    def setup(self, ctx):
        super().setup(ctx)
        self.remaining = ctx.total_units

    def next_block(self, worker_id, now):
        return max(int(self.remaining * self.fraction), 1)

    def on_block_dispatched(self, worker_id, granted, now):
        self.remaining -= granted

    def on_task_finished(self, record, remaining, now):
        self.remaining = remaining


class TestTutorialApplication:
    def test_runs_under_plb_hec(self, small_cluster):
        app = RayBatch(100_000)
        result = Runtime(small_cluster, app.codelet(), seed=1).run(
            PLBHeC(), app.total_units, app.default_initial_block_size()
        )
        assert result.trace.total_units() == 100_000

    def test_real_backend_and_verify(self, small_cluster):
        app = RayBatch(2_000)
        result = Runtime(small_cluster, app.codelet(), backend="real").run(
            ChunkedRoundRobin(), app.total_units, 8
        )
        assert app.verify(result.results)


class TestTutorialSweeps:
    def test_sweep_snippet_runs(self):
        """The §5 run_sweep snippet, verbatim in structure."""
        from repro.experiments import PointSpec, SweepStats, run_sweep

        specs = [
            PointSpec("matmul", size, num_machines=2,
                      policies=("greedy", "plb-hec"), replications=1)
            for size in (1024, 2048)
        ]
        stats = SweepStats()
        points = run_sweep(specs, jobs=1, cache=None, stats=stats)
        assert stats.summary().startswith("jobs=1 cache_hits=0 wall=")
        assert [p.size for p in points] == [1024, 2048]
        for point in points:
            assert point.outcomes["plb-hec"].mean_makespan > 0


class TestTutorialObservability:
    def test_metrics_snippet_runs(self, small_cluster):
        """The §6 registry snippet, verbatim in structure."""
        from repro.obs import MetricsRegistry, get_registry
        from repro.obs.metrics import set_registry

        previous = set_registry(MetricsRegistry())
        try:
            app = RayBatch(100_000)
            result = Runtime(small_cluster, app.codelet(), seed=1).run(
                PLBHeC(), app.total_units, app.default_initial_block_size()
            )
            snap = get_registry().snapshot()
            assert snap["counters"]["plbhec.probe_rounds"] > 0
            assert snap["counters"]["plbhec.solves"] > 0
            assert any(k.startswith("plbhec.r2{device=") for k in snap["gauges"])
            methods = {d.solver["method"] for d in result.ledger.decisions}
            assert "certified" in methods
        finally:
            set_registry(previous)

    def test_trace_export_snippet_runs(self, small_cluster, tmp_path):
        """The §6 export snippet: library-level write + validate."""
        import json

        from repro.obs import write_chrome_trace
        from repro.obs.trace_export import validate_chrome_trace

        app = RayBatch(100_000)
        result = Runtime(small_cluster, app.codelet(), seed=1).run(
            PLBHeC(), app.total_units, app.default_initial_block_size()
        )
        path = write_chrome_trace(result.trace, tmp_path / "trace.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == []
        assert result.run_id.startswith("run-")


class TestTutorialPolicy:
    def test_completes_domain(self, small_cluster):
        app = RayBatch(50_000)
        result = Runtime(small_cluster, app.codelet(), seed=1).run(
            ChunkedRoundRobin(0.1), app.total_units, 8
        )
        assert result.trace.total_units() == 50_000

    def test_guided_blocks_shrink(self, small_cluster):
        app = RayBatch(50_000)
        result = Runtime(small_cluster, app.codelet(), seed=1).run(
            ChunkedRoundRobin(0.1), app.total_units, 8
        )
        sizes = [r.units for r in sorted(result.trace.records, key=lambda r: r.dispatch_time)]
        assert sizes[0] > sizes[-1]

    def test_custom_cluster_from_tutorial(self):
        from repro.cluster import CPUSpec, GPUArch, GPUSpec, Cluster
        from repro.cluster.machine import Machine
        from repro.cluster.network import NetworkSpec

        node = Machine(
            name="n0",
            cpu=CPUSpec(model="EPYC-lite", cores=16, clock_ghz=2.8, cache_mb=64.0),
            gpus=(
                GPUSpec(
                    model="mid-gpu", cores=3072, sms=24, clock_ghz=1.1,
                    mem_bandwidth_gbs=400.0, mem_gb=8.0, arch=GPUArch.MAXWELL,
                ),
            ),
        )
        cluster = Cluster(machines=(node,), network=NetworkSpec(bandwidth_gbs=2.5))
        app = RayBatch(20_000)
        result = Runtime(cluster, app.codelet(), seed=1).run(
            PLBHeC(), app.total_units, app.default_initial_block_size()
        )
        assert result.trace.total_units() == 20_000


class TestTutorialProfiling:
    def test_profiling_snippet_runs(self, small_cluster, tmp_path):
        """The §8 capture snippet, verbatim in structure."""
        from repro.obs import phase_breakdown, profiling, write_flamegraph

        app = RayBatch(100_000)
        runtime = Runtime(small_cluster, app.codelet(), seed=1)
        with profiling() as prof:
            runtime.run(
                PLBHeC(), app.total_units, app.default_initial_block_size()
            )
        snap = prof.snapshot()
        breakdown = phase_breakdown(snap)
        assert sum(d["share"] for d in breakdown.values()) == pytest.approx(1.0)
        assert breakdown["execute"]["self_s"] > 0.0
        path = write_flamegraph(tmp_path / "p.svg", snap)
        assert path.read_text().startswith("<svg")


class TestTutorialResilience:
    def test_transient_snippet_runs(self, small_cluster):
        """The §9 fault-model snippet, verbatim in structure."""
        from repro.runtime.faults import TransientFailure

        app = RayBatch(100_000)
        rt = Runtime(
            small_cluster, app.codelet(), seed=3,
            faults=(
                TransientFailure("alpha.gpu0", time=0.05, downtime=0.03),
            ),
        )
        result = rt.run(
            PLBHeC(), app.total_units, app.default_initial_block_size()
        )
        assert result.trace.total_units() >= app.total_units
        assert [d for _, d in result.trace.recoveries] == ["alpha.gpu0"]

    def test_chaos_snippet_runs(self):
        """The §9 campaign snippet, verbatim in structure."""
        from repro.resilience import ChaosConfig, run_campaign

        config = ChaosConfig(apps=("matmul",), sizes=(2048,),
                             policies=("plb-hec", "greedy"), runs=4, seed=0,
                             max_faults=1)
        scorecard = run_campaign(config, jobs=2)
        assert scorecard["all_invariants_ok"]
        assert 0.0 <= scorecard["policies"]["plb-hec"]["survival_rate"] <= 1.0


class TestTutorialExplain:
    def test_ledger_snippet_runs(self, small_cluster):
        """The §10 decision-ledger snippet, verbatim in structure."""
        from repro.apps import MatMul

        app = MatMul(n=4096)
        rt = Runtime(small_cluster, app.codelet(), seed=7, noise_sigma=0.02)
        result = rt.run(
            PLBHeC(fixed_overhead_s=0.01),
            app.total_units,
            app.default_initial_block_size(),
        )
        ledger = result.ledger
        data = ledger.to_dict()
        assert data["attribution"]["unattributed"] == 0  # 100% coverage
        assert {d.trigger for d in ledger.decisions} >= {
            "probe-round", "selection",
        }
        cal = ledger.device_calibration("alpha.gpu0")
        assert cal.count > 0
        # the tutorial formats these; they must be finite to format
        for value in (cal.mape, cal.bias, cal.drift):
            assert value == value  # not NaN


class TestTutorialTelemetry:
    """§11: the sampler/SLO snippets, verbatim in structure."""

    def _sampled_result(self, small_cluster):
        from repro.obs import ClusterSampler

        app = RayBatch(100_000)
        sampler = ClusterSampler()  # auto interval
        rt = Runtime(small_cluster, app.codelet(), seed=7, noise_sigma=0.02)
        result = rt.run(
            PLBHeC(fixed_overhead_s=0.01),
            app.total_units,
            app.default_initial_block_size(),
            sampler=sampler,
        )
        return sampler, result

    def test_sampler_snippet_runs(self, small_cluster):
        sampler, _ = self._sampled_result(small_cluster)
        store = sampler.store
        util = store.aggregate("device_util{device=alpha.gpu0}")
        assert util["count"] > 0
        assert 0.0 <= util["mean"] <= 1.0
        assert util["p95"] >= util["p50"] >= util["min"]
        assert store.values("fairness")[-1] > 0.0

    def test_slo_snippet_runs(self, small_cluster):
        from repro.obs import DEFAULT_SLO_SPEC, evaluate_slo

        sampler, result = self._sampled_result(small_cluster)
        report = evaluate_slo(
            DEFAULT_SLO_SPEC, sampler.store, run_id=result.run_id
        )
        assert report["ok"]
        for row in report["objectives"]:
            assert row["verdict"] in ("pass", "fail", "no-data")

    def test_spec_file_snippet_loads(self, tmp_path):
        import json

        from repro.obs import load_slo_spec

        doc = {
            "name": "ci",
            "objectives": [
                {"name": "device-idle",
                 "expr": "mean(device_idle_frac) < 0.9",
                 "severity": "warning"},
                {"name": "completion", "expr": "last(backlog_units) <= 0"},
                {"name": "goodput", "expr": "max(goodput_units_per_s) > 0",
                 "budget": 0.05, "window": 0.5},
            ],
        }
        path = tmp_path / "ci.slo.json"
        path.write_text(json.dumps(doc))
        spec = load_slo_spec(path)
        assert [o.name for o in spec.objectives] == [
            "device-idle", "completion", "goodput",
        ]
        assert spec.objectives[2].budget == 0.05

    def test_sweep_series_snippet_runs(self):
        from repro.experiments import PointSpec, SweepStats, run_sweep

        stats = SweepStats()
        run_sweep(
            [PointSpec("matmul", 2048, num_machines=2,
                       policies=("plb-hec",), replications=1,
                       fixed_overhead_s=0.01, sample_interval=0.0)],
            jobs=1, cache=None, stats=stats,
        )
        (payload,) = stats.payloads
        assert payload["series"]["samples"] > 0


class TestTutorialCritpath:
    """Section 12: critical path & makespan attribution (repro why)."""

    def _analysis(self, small_cluster):
        from repro.apps import MatMul
        from repro.obs import analyze_trace

        app = MatMul(n=4096)
        rt = Runtime(small_cluster, app.codelet(), seed=7, noise_sigma=0.02)
        result = rt.run(
            PLBHeC(fixed_overhead_s=0.01),
            app.total_units, app.default_initial_block_size(),
        )
        return analyze_trace(result.trace)

    def test_attribution_snippet_runs(self, small_cluster):
        from repro.obs import category_shares, validate_critpath

        analysis = self._analysis(small_cluster)
        assert validate_critpath(analysis) == []          # schema + invariants
        assert abs(sum(analysis["categories"].values())
                   - analysis["makespan"]) < 1e-9         # 100% attributed
        shares = category_shares(analysis)
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert analysis["bottleneck"]["device"] in {
            d.device_id for d in small_cluster.devices()
        }

    def test_bounds_snippet_runs(self, small_cluster):
        analysis = self._analysis(small_cluster)
        bounds = analysis["bounds"]
        assert bounds["perfect_balance"] <= analysis["makespan"] + 1e-9
        for name in ("zero_transfer", "zero_scheduler"):
            assert bounds[name] <= analysis["makespan"] + 1e-9
        assert set(bounds["device_speedup"]) <= {
            d.device_id for d in small_cluster.devices()
        }


class TestTutorialService:
    """Section 13: the serving-loop snippets, verbatim in structure."""

    def test_service_snippet_runs(self):
        from repro.service import ArrivalSpec, ClusterService, ServiceConfig

        config = ServiceConfig(
            arrivals=ArrivalSpec(rate=4.0, duration=12.0, pattern="bursty"),
            queue_limit=8,
            shed_policy="drop-oldest",
            deadline_factor=20.0,
            retry_budget=2,
            seed=7,
        )
        card = ClusterService(config).run()
        assert card["invariant_errors"] == []
        jobs = card["jobs"]
        terminal = (jobs["completed"] + jobs["rejected"] + jobs["shed"]
                    + jobs["timeout"] + jobs["failed"])
        assert terminal == jobs["submitted"] > 0
        assert card["latency_s"]["p99"] is not None
        assert card["goodput"]["jobs_per_s"] > 0

    def test_scorecard_validates_and_is_deterministic(self):
        import json

        from repro.service import (
            ArrivalSpec,
            ClusterService,
            ServiceConfig,
            validate_scorecard,
        )

        def episode():
            config = ServiceConfig(
                arrivals=ArrivalSpec(rate=3.0, duration=8.0),
                seed=13,
            )
            return ClusterService(config).run()

        one, two = episode(), episode()
        assert validate_scorecard(one) == []
        assert (json.dumps(one, sort_keys=True)
                == json.dumps(two, sort_keys=True))

    def test_serve_slo_gate_matches_the_committed_spec(self):
        from repro.obs import evaluate_slo, load_slo_spec
        from repro.service import ArrivalSpec, ClusterService, ServiceConfig

        service = ClusterService(ServiceConfig(
            arrivals=ArrivalSpec(rate=2.0, duration=10.0), seed=0,
        ))
        service.run()
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        spec = load_slo_spec(repo / "benchmarks" / "serve.slo.json")
        report = evaluate_slo(spec, service.store, run_id="tutorial-serve")
        assert report["ok"], report
