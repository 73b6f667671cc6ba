"""Tests for repro.experiments.parallel (sweep engine + result cache)."""

import json

import pytest

from repro.cluster import paper_cluster
from repro.errors import ConfigurationError
from repro.experiments.parallel import (
    PointSpec,
    ResultCache,
    RunSpec,
    SweepStats,
    _factory_tag,
    resolve_jobs,
    run_point,
    run_sweep,
)
from repro.experiments.wallclock import points_equal

#: A small grid point with PLB-HeC's charge pinned, covering a
#: no-overhead policy, HDSS and PLB-HeC.
SMALL = PointSpec(
    app_name="matmul",
    size=2048,
    num_machines=2,
    policies=("greedy", "hdss", "plb-hec"),
    replications=2,
    seed=3,
    fixed_overhead_s=0.01,
)


def assert_points_identical(a, b):
    assert points_equal(a, b), "sweep aggregates differ"


class TestSpecs:
    def test_expand_order_is_policy_major(self):
        specs = SMALL.expand()
        assert [s.policy_name for s in specs] == [
            "greedy", "greedy", "hdss", "hdss", "plb-hec", "plb-hec",
        ]
        assert [s.run_seed for s in specs] == [3000, 3001] * 3

    def test_replication_validation(self):
        with pytest.raises(ConfigurationError):
            PointSpec("matmul", 128, 1, ("greedy",), replications=0)

    def test_empty_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            PointSpec("matmul", 128, 1, (), replications=1)


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) >= 1

    def test_bad_values_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)


class TestFactoryTag:
    def test_module_level_factory_tagged(self):
        assert _factory_tag(paper_cluster) == "repro.cluster.presets.paper_cluster"

    def test_lambda_untaggable(self):
        assert _factory_tag(lambda n: paper_cluster(n)) is None

    def test_closure_untaggable(self):
        def make():
            def factory(n):
                return paper_cluster(n)

            return factory

        assert _factory_tag(make()) is None


class TestParallelDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self, monkeypatch):
        """REPRO_JOBS=1 and REPRO_JOBS=4 must aggregate identically."""
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial_stats = SweepStats()
        serial = run_sweep([SMALL], cache=None, stats=serial_stats)
        monkeypatch.setenv("REPRO_JOBS", "4")
        parallel_stats = SweepStats()
        parallel = run_sweep([SMALL], cache=None, stats=parallel_stats)
        assert serial_stats.jobs == 1
        assert parallel_stats.jobs == 4
        assert not parallel_stats.fell_back_serial
        assert_points_identical(serial, parallel)

    def test_matches_legacy_run_policies_seeding(self):
        """The engine reproduces the historical serial loop's results."""
        from repro.experiments.runner import run_policies

        legacy = run_policies(
            "matmul",
            2048,
            2,
            policies=("greedy", "hdss"),
            replications=2,
            seed=3,
            jobs=1,
        )
        engine = run_point(
            PointSpec(
                "matmul", 2048, 2, ("greedy", "hdss"), replications=2, seed=3
            ),
            jobs=1,
            cache=None,
        )
        assert_points_identical([legacy], [engine])

    def test_unpicklable_factory_falls_back_to_serial(self):
        spec = PointSpec(
            "matmul",
            1024,
            1,
            ("greedy",),
            replications=1,
            cluster_factory=lambda n: paper_cluster(n),
        )
        stats = SweepStats()
        points = run_sweep([spec], jobs=4, cache=None, stats=stats)
        assert stats.fell_back_serial
        assert points[0].outcomes["greedy"].makespans[0] > 0


class TestResultCache:
    def test_cold_then_warm_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold_stats = SweepStats()
        cold = run_sweep([SMALL], jobs=1, cache=cache, stats=cold_stats)
        assert cold_stats.cache_hits == 0
        assert cold_stats.executed == 6
        warm_stats = SweepStats()
        warm = run_sweep([SMALL], jobs=1, cache=cache, stats=warm_stats)
        assert warm_stats.cache_hits == 6
        assert warm_stats.executed == 0
        assert_points_identical(cold, warm)

    def test_key_depends_on_every_input(self):
        base = RunSpec("matmul", 2048, 2, "greedy", 3000, 0.005, 0.01)
        keys = {ResultCache.key(base, "tag")}
        for variant in (
            RunSpec("grn", 2048, 2, "greedy", 3000, 0.005, 0.01),
            RunSpec("matmul", 4096, 2, "greedy", 3000, 0.005, 0.01),
            RunSpec("matmul", 2048, 4, "greedy", 3000, 0.005, 0.01),
            RunSpec("matmul", 2048, 2, "hdss", 3000, 0.005, 0.01),
            RunSpec("matmul", 2048, 2, "greedy", 3001, 0.005, 0.01),
            RunSpec("matmul", 2048, 2, "greedy", 3000, 0.01, 0.01),
            RunSpec("matmul", 2048, 2, "greedy", 3000, 0.005, None),
        ):
            keys.add(ResultCache.key(variant, "tag"))
        keys.add(ResultCache.key(base, "other-tag"))
        assert len(keys) == 9

    def test_seed_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep([SMALL], jobs=1, cache=cache)
        other = PointSpec(
            "matmul",
            2048,
            2,
            ("greedy", "hdss", "plb-hec"),
            replications=2,
            seed=4,
            fixed_overhead_s=0.01,
        )
        stats = SweepStats()
        run_sweep([other], jobs=1, cache=cache, stats=stats)
        assert stats.cache_hits == 0

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = PointSpec("matmul", 1024, 1, ("greedy",), replications=1)
        run_sweep([spec], jobs=1, cache=cache)
        (entry,) = list(tmp_path.rglob("*.json"))
        entry.write_text("{ torn")
        stats = SweepStats()
        points = run_sweep([spec], jobs=1, cache=cache, stats=stats)
        assert stats.cache_hits == 0
        assert stats.executed == 1
        assert points[0].outcomes["greedy"].makespans[0] > 0
        # the recomputed payload was re-stored and is valid JSON again
        assert json.loads(entry.read_text())["makespan"] > 0

    @pytest.mark.parametrize(
        "blob", [b"{}", b"[]", b'"x"', b"null", b'{"makespan": 1.0}', b"\xff"]
    )
    def test_entry_that_is_no_payload_is_recomputed(self, tmp_path, caplog, blob):
        import logging

        cache = ResultCache(tmp_path)
        spec = PointSpec("matmul", 1024, 1, ("greedy",), replications=1)
        run_sweep([spec], jobs=1, cache=cache)
        (entry,) = list(tmp_path.rglob("*.json"))
        good = entry.read_bytes()
        entry.write_bytes(blob)
        stats = SweepStats()
        with caplog.at_level(logging.WARNING, logger="repro.experiments.parallel"):
            run_sweep([spec], jobs=1, cache=cache, stats=stats)
        assert stats.cache_hits == 0
        assert stats.executed == 1
        assert "dropping unreadable cache entry" in caplog.text
        # overwritten with what the first fill wrote
        assert entry.read_bytes() == good

    def test_unwritable_cache_root_degrades_to_warning(self, tmp_path):
        # REPRO_CACHE pointing at a regular file must not crash the
        # sweep (nor discard its computed results).
        not_a_dir = tmp_path / "cachefile"
        not_a_dir.write_text("occupied")
        cache = ResultCache(not_a_dir)
        spec = PointSpec("matmul", 1024, 1, ("greedy",), replications=1)
        stats = SweepStats()
        points = run_sweep([spec], jobs=1, cache=cache, stats=stats)
        assert stats.executed == 1
        assert points[0].outcomes["greedy"].makespans[0] > 0
        assert not_a_dir.read_text() == "occupied"

    def test_unstable_factory_is_never_cached(self, tmp_path):
        spec = PointSpec(
            "matmul",
            1024,
            1,
            ("greedy",),
            replications=1,
            cluster_factory=lambda n: paper_cluster(n),
        )
        cache = ResultCache(tmp_path)
        run_sweep([spec], jobs=1, cache=cache)
        assert list(tmp_path.rglob("*.json")) == []

    def test_from_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert ResultCache.from_env() is None
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert ResultCache.from_env() is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert ResultCache.from_env().root.name == ".repro_cache"
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "deep"))
        assert ResultCache.from_env().root == tmp_path / "deep"


class TestTelemetry:
    @pytest.mark.parametrize("policy", ["greedy", "plb-hec"])
    def test_a_run_summarises_only_its_own_samples(self, policy, monkeypatch):
        """A run's metrics cost what it recorded: no whole-registry
        snapshot and no summary of a process-wide reservoir."""
        from repro.experiments.parallel import _execute_run
        from repro.obs.metrics import Histogram, MetricsRegistry

        def refuse(*args, **kwargs):
            raise AssertionError("a run summarised the whole registry")

        monkeypatch.setattr(MetricsRegistry, "snapshot", refuse)
        monkeypatch.setattr(Histogram, "summary", refuse)
        monkeypatch.setattr(Histogram, "percentile", refuse)
        spec = RunSpec("matmul", 4096, 2, policy, 3000, 0.005, 0.01)
        assert _execute_run(spec, paper_cluster)["makespan"] > 0

    def test_payload_carries_report(self):
        from repro.experiments.parallel import _execute_run
        from repro.obs.report import RunReport

        spec = RunSpec("matmul", 1024, 1, "plb-hec", 3000, 0.005, 0.01)
        payload = _execute_run(spec, paper_cluster)
        report = RunReport.from_dict(payload["report"])  # hash verifies
        assert report.config["app"] == "matmul"
        assert report.makespan == payload["makespan"]
        assert report.metrics == {}
        assert "probe" in report.phase_summary

    @pytest.mark.parametrize("policy", ["greedy", "plb-hec"])
    def test_an_unprofiled_fresh_payload_is_its_cache_entry(self, policy):
        """No registry delta and no wall clock: what a fresh run returns
        is what the cache stores and replays."""
        from repro.experiments.parallel import _execute_run

        for spec in (
            RunSpec("matmul", 1024, 1, policy, 3000, 0.005, 0.01),
            RunSpec(
                "matmul", 1024, 1, policy, 3000, 0.005, 0.01,
                service_json=json.dumps({"arrivals": {"duration": 2.0}}),
            ),
        ):
            payload = _execute_run(spec, paper_cluster)
            assert payload == ResultCache.entry(payload)

    def test_sweep_counters_cold_then_warm(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry, set_registry

        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            cache = ResultCache(tmp_path)
            run_sweep([SMALL], jobs=1, cache=cache)
            cold = registry.snapshot()["counters"]
            assert cold["sweep.jobs"] == 6.0
            assert cold["sweep.cache_hits"] == 0.0
            assert cold["sweep.cache_misses"] == 6.0

            registry.reset()
            run_sweep([SMALL], jobs=1, cache=cache)
            warm = registry.snapshot()["counters"]
            # the acceptance check: a fully warm sweep is all cache hits
            assert warm["sweep.cache_hits"] == warm["sweep.jobs"] == 6.0
            assert warm.get("sweep.cache_misses", 0.0) == 0.0
        finally:
            set_registry(previous)

    def test_stats_payloads_equal_cold_and_warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold_stats = SweepStats()
        run_sweep([SMALL], jobs=1, cache=cache, stats=cold_stats)
        warm_stats = SweepStats()
        run_sweep([SMALL], jobs=1, cache=cache, stats=warm_stats)
        assert len(cold_stats.payloads) == 6
        # cache replay serves byte-identical payloads
        assert warm_stats.payloads == cold_stats.payloads


class TestBatching:
    def test_multi_point_sweep_preserves_order(self):
        points = [
            PointSpec("matmul", 1024, 1, ("greedy",), replications=1),
            PointSpec("matmul", 2048, 2, ("greedy",), replications=1),
        ]
        results = run_sweep(points, jobs=1, cache=None)
        assert [(p.size, p.num_machines) for p in results] == [(1024, 1), (2048, 2)]
        for point in results:
            assert point.outcomes["greedy"].makespans[0] > 0


class TestWorkerLogPropagation:
    def test_initializer_applies_parent_config(self):
        import logging

        from repro.experiments.parallel import _pool_worker_init
        from repro.util.logging import current_config, get_logger

        before = current_config()
        try:
            _pool_worker_init(("debug", "json"))
            assert current_config() == ("debug", "json")
            assert get_logger("repro").level == logging.DEBUG
        finally:
            if before is not None:
                _pool_worker_init(before)

    def test_initializer_noop_without_config(self):
        from repro.experiments.parallel import _pool_worker_init

        _pool_worker_init(None)  # must not raise or attach handlers

    def test_pool_uses_initializer(self, monkeypatch):
        # The executor must be constructed with the propagation hook.
        import repro.experiments.parallel as par

        captured = {}

        class FakePool:
            def __init__(self, max_workers=None, initializer=None, initargs=()):
                captured["initializer"] = initializer
                captured["initargs"] = initargs
                raise par.BrokenProcessPool()  # force serial fallback

        monkeypatch.setattr(par, "ProcessPoolExecutor", FakePool)
        stats = par.SweepStats()
        point = PointSpec("matmul", 1024, 1, ("greedy",), replications=1)
        par.run_sweep([point], jobs=2, cache=None, stats=stats)
        assert captured["initializer"] is par._pool_worker_init
        assert stats.fell_back_serial


class TestRunIdTagging:
    def test_payload_run_id_is_deterministic(self):
        from repro.experiments.parallel import RunSpec, _execute_run
        from repro.cluster import paper_cluster
        from repro.obs.report import config_hash

        spec = RunSpec("matmul", 1024, 1, "greedy", 0, 0.005)
        payload = _execute_run(spec, paper_cluster)
        expected = config_hash(payload["report"]["config"])[:12]
        assert payload["report"]["run_id"] == f"run-{expected}"


class TestNoHistory:
    def test_repro_history_sweep_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_HISTORY", "1")
        point = PointSpec("matmul", 1024, 1, ("greedy",), replications=1)
        run_sweep([point], jobs=1, cache=None)
        assert list(tmp_path.iterdir()) == []


def profile_calls(profile, fragment):
    """Total recorded calls of functions whose name contains ``fragment``."""
    return sum(
        f["ncalls"]
        for pdata in profile.get("phases", {}).values()
        for f in pdata.get("functions", {}).values()
        if fragment in f["name"]
    )


class TestProfiledSweeps:
    """Satellite: multiprocess profile aggregation + cache interplay."""

    #: Deterministic entry points whose call counts must not depend on
    #: worker count (unlike e.g. lru_cache internals, which run once per
    #: process and so differ between 1 and N workers by design).
    CURATED = (
        "repro.solver.partition._certify",
        "repro.solver.partition.solve_block_partition",
        "repro.modeling.least_squares.solve",
        "repro.runtime.sim_executor",
    )

    def test_jobs2_merge_matches_serial_call_counts(self, monkeypatch):
        """A REPRO_JOBS=2 sweep merges worker profiles into the same
        deterministic call counts as the serial run."""
        monkeypatch.setenv("REPRO_JOBS", "2")
        ser_stats = SweepStats()
        serial = run_sweep(
            [SMALL], jobs=1, cache=None, stats=ser_stats, profile=True
        )
        par_stats = SweepStats()
        parallel = run_sweep(
            [SMALL], jobs=2, cache=None, stats=par_stats, profile=True
        )
        assert not par_stats.fell_back_serial
        assert_points_identical(serial, parallel)
        assert ser_stats.profile and par_stats.profile
        for fragment in self.CURATED:
            ser_calls = profile_calls(ser_stats.profile, fragment)
            par_calls = profile_calls(par_stats.profile, fragment)
            assert ser_calls > 0, fragment
            assert ser_calls == par_calls, fragment

    def test_profiled_sweep_attributes_named_phases(self):
        stats = SweepStats()
        run_sweep([SMALL], jobs=1, cache=None, stats=stats, profile=True)
        from repro.obs.profiler import PROFILE_PHASES, phase_breakdown

        breakdown = phase_breakdown(stats.profile)
        assert set(breakdown) <= set(PROFILE_PHASES)
        assert sum(p["share"] for p in breakdown.values()) == pytest.approx(1.0)
        # The sim spends real time in all of probe/fit/solve/execute.
        for phase in ("probe", "fit", "solve", "execute"):
            assert breakdown[phase]["self_s"] > 0.0, phase

    def test_profiled_sweep_bypasses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = SweepStats()
        run_sweep([SMALL], jobs=1, cache=cache, stats=stats, profile=True)
        # Nothing stored or served: a cache hit carries no profile to
        # merge, so a profiled sweep executes every run.
        assert list(tmp_path.rglob("*.json")) == []
        assert stats.cache_hits == 0
        # A warm unprofiled sweep afterwards sees a cold cache.
        warm_stats = SweepStats()
        run_sweep([SMALL], jobs=1, cache=cache, stats=warm_stats)
        assert warm_stats.cache_hits == 0
        assert warm_stats.executed == 6

    def test_repro_profile_env_resolution(self, monkeypatch):
        from repro.experiments.parallel import resolve_profile

        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert resolve_profile(None) is False
        assert resolve_profile(True) is True
        assert resolve_profile(False) is False
        for value in ("1", "on", "true", "YES"):
            monkeypatch.setenv("REPRO_PROFILE", value)
            assert resolve_profile(None) is True
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert resolve_profile(None) is False
        # Explicit argument always wins over the environment.
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert resolve_profile(False) is False

    def test_profiled_aggregates_match_unprofiled(self):
        """Profiling must observe, not perturb: virtual-time results are
        identical with and without the tracer."""
        plain = run_sweep([SMALL], jobs=1, cache=None)
        profiled = run_sweep([SMALL], jobs=1, cache=None, profile=True)
        assert_points_identical(plain, profiled)


class TestSeriesPayloads:
    """Sampled runs carry telemetry series in payloads (schema v5)."""

    SAMPLED = PointSpec(
        app_name="matmul",
        size=2048,
        num_machines=2,
        policies=("greedy", "plb-hec"),
        replications=2,
        seed=3,
        fixed_overhead_s=0.01,
        sample_interval=0.0,  # auto
    )

    def series(self, stats):
        return [p.get("series") for p in stats.payloads]

    def test_sampled_payloads_carry_series(self):
        from repro.obs.timeseries import store_from_payload

        stats = SweepStats()
        run_sweep([self.SAMPLED], jobs=1, cache=None, stats=stats)
        for payload in stats.payloads:
            series = payload["series"]
            assert series["interval"] > 0.0  # auto resolved
            assert series["samples"] > 0
            store = store_from_payload(series["store"])
            assert store.values("completed_units")[-1] > 0

    def test_unsampled_payloads_have_no_series(self):
        stats = SweepStats()
        run_sweep([SMALL], jobs=1, cache=None, stats=stats)
        assert all("series" not in p for p in stats.payloads)

    def test_parallel_sweep_series_match_serial(self, monkeypatch):
        """Satellite: REPRO_JOBS=2 merges series identical to serial."""
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = SweepStats()
        run_sweep([self.SAMPLED], cache=None, stats=serial)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = SweepStats()
        run_sweep([self.SAMPLED], cache=None, stats=parallel)
        assert not parallel.fell_back_serial
        a, b = self.series(serial), self.series(parallel)
        assert a and None not in a
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_warm_cache_replays_series(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = SweepStats()
        run_sweep([self.SAMPLED], jobs=1, cache=cache, stats=cold)
        warm = SweepStats()
        run_sweep([self.SAMPLED], jobs=1, cache=cache, stats=warm)
        assert warm.cache_hits == 4
        assert json.dumps(self.series(cold), sort_keys=True) == json.dumps(
            self.series(warm), sort_keys=True
        )

    def test_cache_key_isolates_sampling(self):
        base = RunSpec("matmul", 2048, 2, "greedy", 3000, 0.005, 0.01)
        sampled = RunSpec(
            "matmul", 2048, 2, "greedy", 3000, 0.005, 0.01,
            sample_interval=0.5,
        )
        auto = RunSpec(
            "matmul", 2048, 2, "greedy", 3000, 0.005, 0.01,
            sample_interval=0.0,
        )
        keys = {
            ResultCache.key(base, "tag"),
            ResultCache.key(sampled, "tag"),
            ResultCache.key(auto, "tag"),
        }
        assert len(keys) == 3


class TestLedgerPayloads:
    """The decision ledger's summary rides in sweep payloads."""

    def ledgers(self, stats):
        return [
            (p["report"]["config"]["policy"], p["ledger"])
            for p in stats.payloads
            if "ledger" in p
        ]

    def test_only_ledger_keeping_policies_carry_one(self):
        stats = SweepStats()
        run_sweep([SMALL], jobs=1, cache=None, stats=stats)
        policies = {name for name, _ in self.ledgers(stats)}
        assert policies == {"plb-hec"}

    def test_payload_carries_the_summary_not_the_records(self, monkeypatch):
        from repro.obs.ledger import DecisionLedger

        live = []
        summary = DecisionLedger.summary

        def spy(ledger):
            live.append(ledger)
            return summary(ledger)

        monkeypatch.setattr(DecisionLedger, "summary", spy)
        stats = SweepStats()
        run_sweep([SMALL], jobs=1, cache=None, stats=stats)
        ledgers = [ledger for _, ledger in self.ledgers(stats)]
        assert ledgers and len(ledgers) == len(live)
        for ledger, run in zip(ledgers, live):
            assert "decisions" not in ledger
            assert ledger["decision_count"] == len(run.decisions) > 0

    def test_serial_and_parallel_ledgers_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = SweepStats()
        run_sweep([SMALL], cache=None, stats=serial)
        monkeypatch.setenv("REPRO_JOBS", "4")
        parallel = SweepStats()
        run_sweep([SMALL], cache=None, stats=parallel)
        a, b = self.ledgers(serial), self.ledgers(parallel)
        assert a and json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )

    def test_warm_cache_replays_byte_identical_ledgers(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = SweepStats()
        run_sweep([SMALL], jobs=1, cache=cache, stats=cold)
        warm = SweepStats()
        run_sweep([SMALL], jobs=1, cache=cache, stats=warm)
        assert warm.cache_hits == 6
        assert json.dumps(self.ledgers(cold), sort_keys=True) == json.dumps(
            self.ledgers(warm), sort_keys=True
        )

    def test_ledger_attribution_is_complete(self):
        stats = SweepStats()
        run_sweep([SMALL], jobs=1, cache=None, stats=stats)
        for _, ledger in self.ledgers(stats):
            attribution = ledger["attribution"]
            assert attribution["attributed"] > 0
            assert attribution["unattributed"] == 0


class TestCritpathPayload:
    def test_payload_carries_exact_attribution(self):
        import math

        from repro.experiments.parallel import _execute_run
        from repro.obs.critpath import CATEGORIES, CRITPATH_SCHEMA

        spec = RunSpec("matmul", 1024, 1, "plb-hec", 3000, 0.005, 0.01)
        critpath = _execute_run(spec, paper_cluster)["critpath"]
        assert critpath["schema"] == CRITPATH_SCHEMA
        assert set(critpath["categories"]) == set(CATEGORIES)
        total = math.fsum(critpath["categories"].values())
        assert abs(total - critpath["makespan"]) < 1e-9
        for name in ("zero_transfer", "zero_scheduler", "perfect_balance"):
            assert critpath["bounds"][name] <= critpath["makespan"] + 1e-9

    def test_serial_parallel_byte_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "-")
        serial_stats = SweepStats()
        run_sweep([SMALL], jobs=1, cache=None, stats=serial_stats)
        parallel_stats = SweepStats()
        run_sweep([SMALL], jobs=4, cache=None, stats=parallel_stats)
        serial = [json.dumps(p["critpath"], sort_keys=True)
                  for p in serial_stats.payloads]
        parallel = [json.dumps(p["critpath"], sort_keys=True)
                    for p in parallel_stats.payloads]
        assert serial == parallel

    def test_warm_cache_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold_stats = SweepStats()
        run_sweep([SMALL], jobs=1, cache=cache, stats=cold_stats)
        warm_stats = SweepStats()
        run_sweep([SMALL], jobs=1, cache=cache, stats=warm_stats)
        assert warm_stats.cache_hits == warm_stats.total_runs
        cold = [json.dumps(p["critpath"], sort_keys=True)
                for p in cold_stats.payloads]
        warm = [json.dumps(p["critpath"], sort_keys=True)
                for p in warm_stats.payloads]
        assert cold == warm

    def test_cache_version_bumped_for_critpath(self):
        from repro.experiments.parallel import ALGORITHM_VERSION

        # stale pre-attribution cache entries must never replay
        assert int(ALGORITHM_VERSION) >= 6
