"""Tests for repro.obs.history (the append-only JSONL store)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.history import (
    DEFAULT_HISTORY_DIR,
    HISTORY_SCHEMA,
    HistoryStore,
    chaos_entry,
    fingerprint_hash,
    git_rev,
    host_fingerprint,
    run_entry,
    validate_entry,
)


def make_run_report(makespan=1.25, config_hash="f" * 64):
    return {
        "run_id": "run-abc",
        "config": {"app": "matmul", "size": 4096, "policy": "plb-hec"},
        "config_hash": config_hash,
        "makespan": makespan,
        "solver_overhead_s": 0.01,
        "rebalances": 2,
    }


def make_scorecard(seed=0, survived=7):
    return {
        "config": {
            "apps": ["matmul"], "sizes": [2048], "machines": 2,
            "policies": ["plb-hec", "greedy"], "runs": 8, "seed": seed,
            "noise_sigma": 0.005, "max_faults": 2, "anomaly_tolerance": 0.25,
        },
        "runs": [],
        "policies": {
            "plb-hec": {
                "runs": 4, "survived": 4, "survival_rate": 1.0,
                "mean_degradation": 1.1, "max_degradation": 1.3,
                "mean_recovery_lag": 0.002, "violations": 0,
            },
        },
        "total_runs": 8,
        "survived_runs": survived,
        "total_violations": 0,
        "all_invariants_ok": True,
    }


class TestFingerprint:
    def test_fingerprint_has_required_fields(self):
        fp = host_fingerprint()
        assert set(fp) == {"platform", "python", "cpu_count"}

    def test_hash_is_stable_and_short(self):
        fp = {"platform": "x", "python": "3.12", "cpu_count": 4}
        assert fingerprint_hash(fp) == fingerprint_hash(dict(fp))
        assert len(fingerprint_hash(fp)) == 12

    def test_hash_distinguishes_hosts(self):
        a = {"platform": "x", "python": "3.12", "cpu_count": 4}
        b = {"platform": "x", "python": "3.12", "cpu_count": 8}
        assert fingerprint_hash(a) != fingerprint_hash(b)

    def test_git_rev_in_repo_or_none(self):
        rev = git_rev()
        assert rev is None or (isinstance(rev, str) and rev)

    def test_git_rev_outside_repo(self, tmp_path):
        assert git_rev(cwd=tmp_path) is None


class TestValidateEntry:
    def test_schema_version_is_four(self):
        # 2: profiled flag (bench kind, since retired), 3: chaos kind,
        # 4: calibration kind
        assert HISTORY_SCHEMA == 4

    def test_valid_run_entry(self):
        entry = run_entry(make_run_report())
        assert validate_entry(entry) == []

    def test_missing_keys_reported(self):
        problems = validate_entry({"kind": "run"})
        assert any("config_hash" in p for p in problems)

    def test_unknown_kind(self):
        entry = run_entry(make_run_report())
        entry["kind"] = "mystery"
        assert any("unknown kind" in p for p in validate_entry(entry))
        entry["kind"] = "bench"  # retired: kind alone says what an entry is
        assert any("unknown kind" in p for p in validate_entry(entry))

    def test_run_entry_needs_makespan(self):
        entry = run_entry(make_run_report())
        del entry["samples"]["makespan"]
        entry["samples"] = {}
        assert validate_entry(entry)


class TestEntryBuilders:
    def test_run_entry_carries_schema_and_host(self):
        entry = run_entry(make_run_report())
        assert entry["schema"] == HISTORY_SCHEMA
        assert entry["kind"] == "run"
        assert entry["host"] == host_fingerprint()
        assert entry["host_hash"] == fingerprint_hash(entry["host"])

    def test_run_entry_samples(self):
        entry = run_entry(make_run_report(), wall_s=0.8)
        assert entry["kind"] == "run"
        assert entry["samples"]["makespan"] == 1.25
        assert entry["samples"]["wall_s"] == 0.8

    def test_chaos_entry_summarises_scorecard(self):
        entry = chaos_entry(make_scorecard())
        assert validate_entry(entry) == []
        assert entry["kind"] == "chaos"
        assert "chaos" not in entry  # kind is the one marker
        assert entry["summary"]["survival_rate"] == 7 / 8
        assert entry["summary"]["all_invariants_ok"] is True
        assert entry["summary"]["policies"]["plb-hec"]["violations"] == 0

    def test_chaos_config_hash_covers_seed(self):
        a = chaos_entry(make_scorecard(seed=0))
        b = chaos_entry(make_scorecard(seed=1))
        assert a["config_hash"] != b["config_hash"]

    def test_chaos_entry_needs_summary(self):
        entry = chaos_entry(make_scorecard())
        del entry["summary"]["survival_rate"]
        assert any("survival_rate" in p for p in validate_entry(entry))


class TestHistoryStore:
    def test_directory_root_uses_default_file(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        assert store.path == tmp_path / "hist" / "history.jsonl"

    def test_jsonl_root_used_verbatim(self, tmp_path):
        store = HistoryStore(tmp_path / "baseline.jsonl")
        assert store.path == tmp_path / "baseline.jsonl"

    def test_append_and_read_back(self, tmp_path):
        store = HistoryStore(tmp_path)
        stored = store.append(run_entry(make_run_report()))
        assert stored["schema"] == HISTORY_SCHEMA
        entries = store.entries()
        assert len(entries) == 1
        assert entries[0]["samples"]["makespan"] == 1.25

    def test_append_is_append_only(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(run_entry(make_run_report()))
        store.append(run_entry(make_run_report()))
        assert len(store.path.read_text().splitlines()) == 2

    def test_append_rejects_malformed(self, tmp_path):
        store = HistoryStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.append({"kind": "run", "config_hash": "x", "samples": {}})

    def test_entries_filter_by_kind_and_config(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(run_entry(make_run_report(config_hash="a" * 64)))
        store.append(run_entry(make_run_report(config_hash="b" * 64)))
        store.append(chaos_entry(make_scorecard()))
        assert len(store.entries(kind="run")) == 2
        assert len(store.entries(kind="chaos")) == 1
        assert len(store.entries(config_hash="a" * 64)) == 1

    def test_entries_filter_by_host(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(run_entry(make_run_report()))
        other = run_entry(make_run_report())
        other["host"] = {"platform": "other", "python": "3.11", "cpu_count": 2}
        other["host_hash"] = fingerprint_hash(other["host"])
        store.append(other)
        assert len(store.entries(host_hash=fingerprint_hash())) == 1
        assert len(store.entries(host_hash=other["host_hash"])) == 1

    def test_entries_last_n(self, tmp_path):
        store = HistoryStore(tmp_path)
        for i in range(5):
            store.append(run_entry(make_run_report(makespan=float(i + 1))))

        def makespans(last):
            return [e["samples"]["makespan"] for e in store.entries(last=last)]

        assert makespans(2) == [4.0, 5.0]
        assert makespans(1) == [5.0]
        assert makespans(0) == []
        assert makespans(9) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert makespans(None) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_entries_negative_last_rejected(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(run_entry(make_run_report()))
        with pytest.raises(ConfigurationError, match="last"):
            store.entries(last=-1)

    def test_corrupt_lines_skipped(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(run_entry(make_run_report()))
        with store.path.open("a") as fh:
            fh.write("{not json\n")
            fh.write(json.dumps([1, 2, 3]) + "\n")
        store.append(run_entry(make_run_report()))
        assert len(store.entries()) == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert HistoryStore(tmp_path / "nowhere").entries() == []


class TestFromEnv:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_HISTORY", raising=False)
        assert HistoryStore.from_env() is None

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", ""])
    def test_explicit_off(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_HISTORY", value)
        assert HistoryStore.from_env() is None

    def test_on_uses_default_dir(self, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY", "1")
        store = HistoryStore.from_env()
        assert str(store.root) == DEFAULT_HISTORY_DIR

    def test_path_value(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_HISTORY", str(tmp_path / "h"))
        store = HistoryStore.from_env()
        assert store.root == tmp_path / "h"


def make_ledger_dict(mape=0.05):
    return {
        "schema": 1,
        "run_id": "run-led",
        "decisions": [
            {"id": "d0000", "trigger": "selection"},
            {"id": "d0001", "trigger": "rebalance"},
        ],
        "calibration": {
            "A.gpu0": {
                "device": "A.gpu0", "blocks": 9, "skipped": 2,
                "mape": mape, "bias": -0.01, "drift": 0.02,
                "series": [0.01, -0.03],
            },
        },
        "attribution": {"attributed": 11, "unattributed": 0},
        "triggers": {"selection": 1, "rebalance": 1},
        "fallback_stages": ["last-good"],
    }


class TestCalibrationEntries:
    def test_builder_summarises_ledger(self):
        from repro.obs.history import calibration_entry

        entry = calibration_entry(make_run_report(), make_ledger_dict())
        assert validate_entry(entry) == []
        assert entry["kind"] == "calibration"
        assert "calibration" not in entry  # kind is the one marker
        assert entry["schema"] == HISTORY_SCHEMA
        assert entry["devices"]["A.gpu0"]["mape"] == 0.05
        assert entry["devices"]["A.gpu0"]["blocks"] == 9
        assert entry["summary"]["decisions"] == 2
        assert entry["summary"]["attributed"] == 11
        assert entry["summary"]["fallback_stages"] == {"last-good": 1}

    def test_config_hash_matches_run_entry(self):
        """Same config ⇒ same hash as the run entry: the kinds join."""
        from repro.obs.history import calibration_entry

        cal = calibration_entry(make_run_report(), make_ledger_dict())
        run = run_entry(make_run_report(), wall_s=1.0)
        assert cal["config_hash"] == run["config_hash"]

    def test_validate_requires_device_mape(self):
        from repro.obs.history import calibration_entry

        entry = calibration_entry(make_run_report(), make_ledger_dict())
        del entry["devices"]["A.gpu0"]["mape"]
        assert any("mape" in p for p in validate_entry(entry))

    def test_validate_rejects_empty_devices(self):
        from repro.obs.history import calibration_entry

        entry = calibration_entry(make_run_report(), make_ledger_dict())
        entry["devices"] = {}
        assert validate_entry(entry)

    def test_fallback_stages_counted_from_list(self):
        from repro.obs.history import calibration_entry

        ledger = make_ledger_dict()
        ledger["fallback_stages"] = ["last-good", "last-good", "fair-share"]
        entry = calibration_entry(make_run_report(), ledger)
        assert entry["summary"]["fallback_stages"] == {
            "last-good": 2, "fair-share": 1,
        }
