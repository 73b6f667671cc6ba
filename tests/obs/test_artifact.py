"""The artifact contract: atomic writes, checked reads, one shape checker."""

from __future__ import annotations

import json
import math
import os
import stat
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PLBHeC, Runtime
from repro.apps import MatMul
from repro.cli import main
from repro.cluster import paper_cluster
from repro.errors import ConfigurationError
from repro.experiments.parallel import ResultCache
from repro.obs.artifact import check, read_json, write_json, write_text
from repro.obs.critpath import analyze_trace, validate_critpath, write_critpath
from repro.obs.history import chaos_entry, validate_entry
from repro.obs.ledger import read_explain, validate_explain, write_explain
from repro.obs.slo import (
    DEFAULT_SLO_SPEC,
    evaluate_slo,
    validate_slo_report,
    write_slo_report,
)
from repro.obs.timeseries import (
    ClusterSampler,
    TimeSeriesStore,
    read_series,
    validate_series,
    write_series,
)
from repro.obs.trace_export import (
    trace_to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.resilience.campaign import SCORECARD_SPEC
from repro.service import ArrivalSpec, ClusterService, ServiceConfig
from repro.service.scorecard import validate_scorecard, write_scorecard

validate_chaos_scorecard = partial(check, spec=SCORECARD_SPEC)

#: every document validator, by the artifact it checks
VALIDATORS = {
    "critpath": validate_critpath,
    "history": validate_entry,
    "explain": validate_explain,
    "slo": validate_slo_report,
    "trace": validate_chrome_trace,
    "scorecard": validate_scorecard,
    "chaos": validate_chaos_scorecard,
}


@pytest.fixture(scope="module")
def docs():
    """One real document of every artifact kind the program writes."""
    cluster = paper_cluster(2)
    app = MatMul(n=2048)
    sampler = ClusterSampler(0.0)
    result = Runtime(cluster, app.codelet(), seed=3, noise_sigma=0.02).run(
        PLBHeC(fixed_overhead_s=0.002),
        app.total_units,
        app.default_initial_block_size(),
        sampler=sampler,
    )
    service = ClusterService(
        ServiceConfig(arrivals=ArrivalSpec(rate=2.0, duration=3.0), seed=1)
    )
    card = service.run()
    chaos = {
        "config": {"runs": 2},
        "runs": [],
        "policies": {"plb-hec": {"runs": 2, "survived": 2, "violations": 0}},
        "total_runs": 2,
        "survived_runs": 2,
        "total_violations": 0,
        "all_invariants_ok": True,
    }
    return {
        "critpath": analyze_trace(result.trace),
        "ledger": result.ledger.to_dict(),
        "store": sampler.store,
        "slo": evaluate_slo(DEFAULT_SLO_SPEC, sampler.store, run_id="r"),
        "trace": trace_to_chrome(result.trace, run_id="r"),
        "scorecard": card,
        "chaos": chaos,
        "history": chaos_entry(chaos),
    }


# ----------------------------------------------------------------------
# the checker never raises
# ----------------------------------------------------------------------
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(doc=JSON)
def test_validators_return_problem_lists_for_any_json(doc):
    for name, validate in VALIDATORS.items():
        problems = validate(doc)
        assert isinstance(problems, list), name
        assert all(isinstance(p, str) for p in problems), name
    assert isinstance(validate_explain([doc, doc]), list)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.text(max_size=40), max_size=6))
def test_validate_series_returns_problems_for_any_text(lines):
    problems = validate_series(lines)
    assert isinstance(problems, list)
    assert all(isinstance(p, str) for p in problems)


def _paths(doc, prefix=()):
    """Every (path, value) inside a nested document."""
    yield prefix, doc
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_validators_survive_one_corrupted_field(docs, data):
    """Replacing any one value of a valid document with any JSON value
    never makes a validator raise."""
    kind = data.draw(st.sampled_from(sorted(VALIDATORS)))
    if kind == "explain":
        doc = _explain_lines(_plain(docs["ledger"]))
    else:
        doc = _plain(docs[kind])
    assert VALIDATORS[kind](doc) == []
    path = data.draw(st.sampled_from([p for p, _ in _paths(doc) if p]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(JSON)
    problems = VALIDATORS[kind](doc)
    assert isinstance(problems, list)
    assert all(isinstance(p, str) for p in problems)


def _explain_lines(ledger):
    """The parsed lines of the ledger's ``explain.jsonl``."""
    header = {"type": "header", "schema": ledger["schema"],
              "decisions": len(ledger["decisions"])}
    decisions = [{"type": "decision", **d} for d in ledger["decisions"]]
    calibration = {"type": "calibration", "devices": ledger["calibration"]}
    return [header, *decisions, calibration]


# ----------------------------------------------------------------------
# defects the contract fixes
# ----------------------------------------------------------------------
def test_validators_take_none():
    for validate in VALIDATORS.values():
        assert validate(None)


def test_nan_critpath_is_rejected(docs):
    doc = _plain(docs["critpath"])
    doc["makespan"] = math.nan
    doc["categories"] = dict.fromkeys(doc["categories"], math.nan)
    for name in ("zero_transfer", "zero_scheduler", "perfect_balance"):
        doc["bounds"][name] = math.nan
    assert validate_critpath(doc)


def test_a_bool_is_never_a_number(docs):
    report = _plain(docs["slo"])
    report["objectives"][0]["measured"] = True
    assert any("measured" in p for p in validate_slo_report(report))
    trace = _plain(docs["trace"])
    timed = next(i for i, e in enumerate(trace["traceEvents"]) if e["ph"] == "X")
    trace["traceEvents"][timed]["ts"] = True
    assert any(".ts" in p for p in validate_chrome_trace(trace))
    card = _plain(docs["scorecard"])
    card["jobs"]["failed"] = False
    assert any("jobs.failed" in p for p in validate_scorecard(card))


# ----------------------------------------------------------------------
# round trips and byte formats
# ----------------------------------------------------------------------
def _plain(doc):
    """``doc`` as JSON gives it back (tuples become lists)."""
    return json.loads(json.dumps(doc))


def test_every_artifact_round_trips(docs, tmp_path):
    critpath = write_critpath(tmp_path / "critpath.json", docs["critpath"])
    assert read_json(critpath, validate=validate_critpath) == _plain(docs["critpath"])
    slo = write_slo_report(tmp_path / "slo.json", docs["slo"])
    assert read_json(slo, validate=validate_slo_report) == _plain(docs["slo"])
    trace = write_chrome_trace(docs["trace"], tmp_path / "trace.json")
    assert read_json(trace, validate=validate_chrome_trace) == _plain(docs["trace"])
    card = write_scorecard(tmp_path / "card.json", docs["scorecard"])
    assert read_json(card, validate=validate_scorecard) == _plain(docs["scorecard"])
    chaos = write_json(tmp_path / "chaos.json", docs["chaos"])
    assert read_json(chaos, validate=validate_chaos_scorecard) == docs["chaos"]
    write_series(tmp_path / "series.jsonl", docs["store"], run_id="r")
    header, store = read_series(tmp_path / "series.jsonl")
    assert header["samples"] == len(docs["store"])
    assert store.to_payload() == docs["store"].to_payload()
    write_explain(docs["ledger"], str(tmp_path / "explain.jsonl"))
    explain = read_explain(str(tmp_path / "explain.jsonl"))
    assert [d["id"] for d in explain["decisions"]] == [
        d["id"] for d in docs["ledger"]["decisions"]
    ]
    assert explain["calibration"]["devices"] == docs["ledger"]["calibration"]
    cache = ResultCache(tmp_path / "cache")
    # a service run's entry: the outcome columns every entry holds, and
    # the episode's scorecard
    card = docs["scorecard"]
    entry = {"makespan": card["duration_s"], "idle_fractions": {},
             "distribution": {}, "overhead": 0.0,
             "rebalances": card["balancer"]["rebalances"], "serve": card}
    cache.store("ab" * 32, entry)
    assert cache.load("ab" * 32) == _plain(entry)
    assert not list(tmp_path.rglob("*.tmp"))


FIXED = {"b": [1, 2.5, None], "a": {"z": True, "y": "é"}}


@pytest.mark.parametrize(
    "style, expected",
    [
        (
            "pretty",
            '{\n  "a": {\n    "y": "\\u00e9",\n    "z": true\n  },\n'
            '  "b": [\n    1,\n    2.5,\n    null\n  ]\n}\n',
        ),
        ("compact", '{"a": {"y": "\\u00e9", "z": true}, "b": [1, 2.5, null]}'),
        (
            "jsonl",
            '{"a": {"y": "\\u00e9", "z": true}, "b": [1, 2.5, null]}\n'
            '{"a": {"y": "\\u00e9", "z": true}, "b": [1, 2.5, null]}\n',
        ),
    ],
)
def test_styles_keep_their_bytes(tmp_path, style, expected):
    doc = [FIXED, FIXED] if style == "jsonl" else FIXED
    path = write_json(tmp_path / "doc.json", doc, style)
    assert path.read_bytes() == expected.encode("utf-8")


# ----------------------------------------------------------------------
# checked reads
# ----------------------------------------------------------------------
MALFORMED = {
    "non-JSON": "{not json",
    "number": "42",
    "list": "[1, 2]",
}


def _write_lines(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
    return path


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_read_explain_refuses_malformed_files(tmp_path, case):
    path = tmp_path / "explain.jsonl"
    path.write_text(MALFORMED[case] + "\n")
    with pytest.raises(ConfigurationError):
        read_explain(str(path))


def test_read_explain_refuses_wrong_schema(docs, tmp_path):
    lines = _explain_lines(docs["ledger"])
    lines[0]["schema"] = 99
    with pytest.raises(ConfigurationError, match="schema"):
        read_explain(str(_write_lines(tmp_path / "e.jsonl", lines)))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_read_series_refuses_malformed_files(tmp_path, case):
    path = tmp_path / "series.jsonl"
    path.write_text(MALFORMED[case] + "\n")
    with pytest.raises(ConfigurationError):
        read_series(path)


def test_read_series_refuses_wrong_schema(tmp_path):
    path = tmp_path / "series.jsonl"
    _write_lines(path, [{"kind": "header", "schema": 99, "series": []}])
    with pytest.raises(ConfigurationError, match="schema"):
        read_series(path)


def test_read_series_accepts_any_label_name(tmp_path):
    store = TimeSeriesStore()
    store.record("x", 0.0, 1.0, t="a", name="b", value="c")
    write_series(tmp_path / "s.jsonl", store)
    _, clone = read_series(tmp_path / "s.jsonl")
    assert clone.to_payload() == store.to_payload()


@pytest.fixture
def series_file(tmp_path):
    store = TimeSeriesStore()
    store.record("device_util", 0.1, 0.5, device="a")
    return write_series(tmp_path / "series.jsonl", store, run_id="r")


TOP_REPORTS = {
    **MALFORMED,
    "objectives is a number": '{"schema": 1, "ok": true, "objectives": 3, '
    '"violations": 0}',
    "wrong schema": '{"schema": 99, "ok": true, "objectives": [], "violations": 0}',
}


@pytest.mark.parametrize("case", sorted(TOP_REPORTS))
def test_top_refuses_malformed_slo_report(series_file, tmp_path, case):
    report = tmp_path / "slo_report.json"
    report.write_text(TOP_REPORTS[case])
    with pytest.raises(ConfigurationError):
        main(["top", "--once", "--series", str(series_file),
              "--slo-report", str(report)])


DASHBOARD_SCORECARDS = {
    **MALFORMED,
    "wrong field type": '{"total_runs": "8", "survived_runs": 8, '
    '"total_violations": 0, "all_invariants_ok": true, "policies": {}}',
}


@pytest.mark.parametrize("case", sorted(DASHBOARD_SCORECARDS))
def test_dashboard_refuses_malformed_scorecard(tmp_path, case):
    card = tmp_path / "chaos_scorecard.json"
    card.write_text(DASHBOARD_SCORECARDS[case])
    with pytest.raises(ConfigurationError):
        main(["dashboard", "--scorecard", str(card),
              "--out", str(tmp_path / "d.html")])
    assert not (tmp_path / "d.html").exists()


def test_unreadable_file_is_a_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        read_json(tmp_path / "absent.json")
    (tmp_path / "latin1.json").write_bytes(b'"\xff"')
    with pytest.raises(ConfigurationError, match="cannot read"):
        read_json(tmp_path / "latin1.json")


# ----------------------------------------------------------------------
# the writer
# ----------------------------------------------------------------------
def test_writer_creates_parents_and_leaves_no_temp(tmp_path):
    path = write_text(tmp_path / "a" / "b" / "c.txt", "hello")
    assert path.read_text() == "hello"
    assert [p.name for p in path.parent.iterdir()] == ["c.txt"]


def test_writer_writes_through_a_special_file(tmp_path):
    # a FIFO stands in for /dev/null: the writer must write through it,
    # not replace it with a regular file (never point this at /dev)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_text(fifo, "through\n")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(reader, 64) == b"through\n"
    finally:
        os.close(reader)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_refused_or_unserialisable_write_leaves_target_unchanged(docs, tmp_path):
    target = tmp_path / "critpath.json"
    target.write_text("previous")
    bad = _plain(docs["critpath"])
    bad["categories"]["compute"] += 1.0
    with pytest.raises(ConfigurationError, match="refusing to write"):
        write_critpath(target, bad)
    with pytest.raises(TypeError):
        write_json(target, {"x": object()})
    with pytest.raises(UnicodeEncodeError):
        write_text(target, "torn \udcff")
    assert target.read_text() == "previous"
    assert [p.name for p in tmp_path.iterdir()] == ["critpath.json"]


def test_writers_never_take_another_writers_temp_file(docs, tmp_path):
    """A temp file of a concurrent writer (any fixed name) survives."""
    target = tmp_path / "critpath.json"
    for name in ("critpath.json.tmp", f"critpath.json.tmp{os.getpid()}"):
        (tmp_path / name).write_text("another writer")
    write_critpath(target, docs["critpath"])
    write_json(target, docs["critpath"], "compact")
    for name in ("critpath.json.tmp", f"critpath.json.tmp{os.getpid()}"):
        assert (tmp_path / name).read_text() == "another writer"


def test_concurrent_writers_of_one_path_never_collide(docs, tmp_path):
    """Threads rewriting one report leave one whole report, no temp file."""
    target = tmp_path / "slo_report.json"
    reports = [dict(docs["slo"], run_id=f"writer-{i}") for i in range(4)]
    errors = []

    def hammer(report):
        try:
            for _ in range(25):
                write_slo_report(target, report)
        except Exception as exc:  # collected: a thread must not die silently
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(r,)) for r in reports]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    final = read_json(target, validate=validate_slo_report)
    assert final in [_plain(r) for r in reports]
    assert [p.name for p in tmp_path.iterdir()] == ["slo_report.json"]


#: A child process whose writer hits a 64-byte file-size limit midway,
#: as on a full disk.
_FULL_DISK = r"""
import resource, signal, sys
from pathlib import Path
from repro.experiments.parallel import ResultCache
from repro.obs import dashboard, ledger, profiler, timeseries
from repro.service.scorecard import write_scorecard

writer, target = sys.argv[1], Path(sys.argv[2])
doc = {"pad": "x" * 400}
store = timeseries.TimeSeriesStore()
for i in range(20):
    store.record("x", float(i), 1.0)
explain = {"schema": 1, "run_id": "r" * 200, "decisions": [], "attribution": {},
           "triggers": {}, "fallback_stages": [], "calibration": {}}
writes = {
    "collapsed": lambda: profiler.write_collapsed(target, ["probe;f 1"] * 40),
    "flamegraph": lambda: profiler.write_flamegraph(target, ["probe;f 100"]),
    "scorecard": lambda: write_scorecard(target, doc),
    "dashboard": lambda: dashboard.write_dashboard(
        target, dashboard.DashboardData()
    ),
    "cache": lambda: ResultCache(target.parents[1]).store(target.stem, doc),
    "series": lambda: timeseries.write_series(target, store),
    "explain": lambda: ledger.write_explain(explain, str(target)),
}
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64))
try:
    writes[writer]()
except OSError as exc:
    print("failed:", exc)
"""


@pytest.mark.parametrize(
    "writer",
    ["collapsed", "flamegraph", "scorecard", "dashboard", "cache", "series",
     "explain"],
)
def test_a_failed_write_never_tears_the_target(tmp_path, writer):
    key = "ab" * 32
    target = ResultCache(tmp_path)._path(key)
    target.parent.mkdir(parents=True)
    target.write_text("previous")
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).parents[2] / "src"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", _FULL_DISK, writer, str(target)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # a write that got through would have replaced the old content
    assert target.read_text() == "previous"
    assert [p.name for p in target.parent.iterdir()] == [target.name]
