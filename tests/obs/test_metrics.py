"""Tests for repro.obs.metrics (registry, snapshots, cardinality)."""

import json
import re
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    MetricsRegistry,
    _parse_series_key,
    _series_key,
    get_registry,
    percentile,
    reset_registry,
    set_registry,
)


def _text(forbidden):
    return st.text(
        st.characters(blacklist_characters=forbidden, blacklist_categories=("Cs",)),
        min_size=1,
        max_size=6,
    )


class TestSeriesKey:
    def test_round_trip_with_unsorted_labels_and_equals_in_a_value(self):
        labels = {"zone": "eu=1", "device": "A.gpu0", "a": "x=y=z"}
        key = _series_key("util", labels)
        assert key == "util{a=x=y=z,device=A.gpu0,zone=eu=1}"
        assert _parse_series_key(key) == ("util", labels)
        assert _parse_series_key("plain") == ("plain", {})

    @given(
        name=_text("{"),
        labels=st.dictionaries(_text(",="), _text(","), max_size=4),
    )
    def test_round_trip(self, name, labels):
        """Any name without ``{`` and any labels without ``,`` survive."""
        parsed_name, parsed = _parse_series_key(_series_key(name, labels))
        assert parsed_name == name
        assert parsed == labels


class TestCounter:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.inc("x", 2.5)
        assert reg.snapshot()["counters"]["x"] == 3.5

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.inc("x", -1.0)

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x") is not reg.counter("x", device="a")


class TestGauge:
    def test_set_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", -4.0)
        assert reg.snapshot()["gauges"]["g"] == -4.0

    def test_add_shifts(self):
        reg = MetricsRegistry()
        reg.gauge("g").add(2.0)
        reg.gauge("g").add(-0.5)
        assert reg.snapshot()["gauges"]["g"] == 1.5


class TestHistogram:
    def test_percentiles_interpolate(self):
        reg = MetricsRegistry()
        for v in range(1, 101):  # 1..100
            reg.observe("h", float(v))
        h = reg.histogram("h")
        assert h.percentile(0.0) == 1.0
        assert h.percentile(100.0) == 100.0
        assert h.percentile(50.0) == pytest.approx(50.5)
        assert h.percentile(90.0) == pytest.approx(90.1)

    def test_percentile_out_of_range(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.histogram("h").percentile(101.0)

    def test_empty_summary(self):
        reg = MetricsRegistry()
        assert reg.histogram("h").summary() == {"count": 0, "sum": 0.0}

    def test_reservoir_bounded_but_totals_exact(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.max_samples = 10
        for v in range(1000):
            h.observe(float(v))
        summ = h.summary()
        assert summ["count"] == 1000
        assert summ["sum"] == sum(range(1000))
        assert summ["min"] == 0.0 and summ["max"] == 999.0
        # percentiles reflect only the retained (most recent) window
        assert h.percentile(0.0) >= 990.0


class TestLabelCardinality:
    def test_labelled_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.inc("x", device="a")
        reg.inc("x", device="b", host="h")
        counters = reg.snapshot()["counters"]
        assert counters["x{device=a}"] == 1.0
        assert counters["x{device=b,host=h}"] == 1.0

    def test_overflow_folds_into_single_series(self):
        reg = MetricsRegistry(max_label_sets=3)
        for i in range(10):
            reg.inc("x", device=f"d{i}")
        counters = reg.snapshot()["counters"]
        assert counters["x{overflow=true}"] == 7.0
        # the first three distinct series survived untouched
        assert sum(1 for k in counters if k.startswith("x{device=")) == 3

    def test_overflow_is_per_metric_name(self):
        reg = MetricsRegistry(max_label_sets=1)
        reg.inc("a", k="1")
        reg.inc("b", k="1")
        counters = reg.snapshot()["counters"]
        assert "a{k=1}" in counters and "b{k=1}" in counters

    def test_empty_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.inc("")


class TestSnapshot:
    def test_snapshot_is_json_compatible(self):
        reg = MetricsRegistry()
        reg.inc("c", device="a")
        reg.set_gauge("g", 0.5)
        reg.observe("h", 1.0)
        json.dumps(reg.snapshot())  # must not raise

    def test_snapshot_under_concurrency(self):
        reg = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                reg.inc("c")
                reg.observe("h", float(i % 7))
                i += 1

        def reader():
            try:
                while not stop.is_set():
                    snap = reg.snapshot()
                    # a snapshot is internally consistent plain data
                    json.dumps(snap)
                    assert snap["counters"].get("c", 0.0) >= 0.0
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        stop.wait(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        snap = reg.snapshot()
        assert snap["counters"]["c"] == reg.counter("c").value
        assert snap["histograms"]["h"]["count"] == reg.histogram("h").count

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def reference_percentile(samples, q):
    """The percentile rule as ``Histogram.percentile`` first wrote it."""
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class TestPercentile:
    @given(
        samples=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            max_size=40,
        ),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_matches_the_reference_rule(self, samples, q):
        expected = reference_percentile(samples, q)
        assert percentile(sorted(samples), q) == expected
        h = MetricsRegistry().histogram("h")
        for v in samples:
            h.observe(v)
        assert h.percentile(q) == expected

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], -0.5)


class TestDiffMerge:
    def test_diff_isolates_one_run(self):
        reg = MetricsRegistry()
        reg.inc("c", 5)
        reg.observe("h", 1.0)
        mark = reg.mark()
        reg.inc("c", 2)
        reg.set_gauge("g", 9.0)
        reg.observe("h", 3.0)
        delta = reg.delta_since(mark)
        assert delta["counters"] == {"c": 2.0}
        assert delta["gauges"]["g"] == 9.0
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == 3.0
        # statistics of the run's sample, not of the process's two
        assert delta["histograms"]["h"]["min"] == 3.0
        assert delta["histograms"]["h"]["p50"] == 3.0

    def test_delta_since_keeps_the_gauges_written_since_the_mark(self):
        reg = MetricsRegistry()
        reg.inc("c", 5)
        reg.set_gauge("earlier", 1.0)
        reg.set_gauge("same", 4.0)
        reg.set_gauge("shifted", 2.0)
        handle = reg.gauge("handle", device="A.gpu0")
        mark = reg.mark()
        reg.inc("c", 2)
        reg.set_gauge("same", 4.0)  # rewritten to its old value
        reg.gauge("shifted").add(0.0)
        handle.set(3.0)
        reg.set_gauge("new", 7.0)
        delta = reg.delta_since(mark)
        assert delta["counters"] == {"c": 2.0}
        assert delta["gauges"] == {
            "same": 4.0,
            "shifted": 2.0,
            "handle{device=A.gpu0}": 3.0,
            "new": 7.0,
        }

    def test_diff_drops_unchanged_series(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe("h", 1.0)
        reg.histogram("idle")
        delta = reg.delta_since(reg.mark())
        assert delta == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_first_run_in_a_fresh_registry_equals_its_snapshot(self):
        reg = MetricsRegistry()
        mark = reg.mark()
        reg.inc("c", 3)
        reg.set_gauge("g", 2.0, device="A.gpu0")
        for v in (0.1, 0.7, 0.2, 0.3):
            reg.observe("h", v)
        assert reg.delta_since(mark) == reg.snapshot()

    def test_run_statistics_ignore_earlier_samples(self):
        reg = MetricsRegistry()
        for v in range(8192):  # a full reservoir before the run
            reg.observe("h", 100.0 + v)
        mark = reg.mark()
        for v in (3.0, 1.0, 2.0):
            reg.observe("h", v)
        summ = reg.delta_since(mark)["histograms"]["h"]
        run = [3.0, 1.0, 2.0]
        assert summ["count"] == 3
        assert summ["sum"] == 6.0
        assert summ["min"] == 1.0 and summ["max"] == 3.0
        assert summ["mean"] == 2.0
        for stat, q in (("p50", 50.0), ("p90", 90.0), ("p99", 99.0)):
            assert summ[stat] == reference_percentile(run, q)

    def test_a_run_past_the_reservoir_keeps_exact_totals(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.max_samples = 10
        for _ in range(5):
            h.observe(-1.0)
        mark = reg.mark()
        for v in range(25):
            h.observe(float(v))
        summ = reg.delta_since(mark)["histograms"]["h"]
        assert summ["count"] == 25
        assert summ["sum"] == float(sum(range(25)))
        assert summ["mean"] == summ["sum"] / 25
        # min, max and percentiles cover the retained tail: 15..24
        assert summ["min"] == 15.0 and summ["max"] == 24.0
        assert summ["p50"] == reference_percentile(range(15, 25), 50.0)


class TestDefaultRegistry:
    def test_set_and_restore(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
            get_registry().inc("only.mine")
            assert "only.mine" not in previous.snapshot()["counters"]
        finally:
            set_registry(previous)

    def test_reset_registry_clears_default(self):
        previous = set_registry(MetricsRegistry())
        try:
            get_registry().inc("tmp")
            reset_registry()
            assert get_registry().snapshot()["counters"] == {}
        finally:
            set_registry(previous)


class TestPrometheusExport:
    def test_counter_and_gauge_families(self):
        reg = MetricsRegistry()
        reg.inc("sweep.runs", 3)
        reg.set_gauge("plbhec.block_size", 42.0, device="A.gpu0")
        text = reg.to_prometheus()
        assert "# TYPE sweep_runs counter\nsweep_runs 3.0\n" in text
        assert "# TYPE plbhec_block_size gauge" in text
        assert 'plbhec_block_size{device="A.gpu0"} 42.0' in text

    def test_histogram_becomes_summary_with_quantiles(self):
        reg = MetricsRegistry()
        for v in range(1, 101):
            reg.observe("solve.ms", float(v))
        text = reg.to_prometheus()
        assert "# TYPE solve_ms summary" in text
        assert 'solve_ms{quantile="0.5"}' in text
        assert 'solve_ms{quantile="0.9"}' in text
        assert 'solve_ms{quantile="0.99"}' in text
        assert "solve_ms_sum 5050.0" in text
        assert "solve_ms_count 100.0" in text

    def test_names_sanitized_labels_escaped(self):
        reg = MetricsRegistry()
        reg.set_gauge("weird-name.1", 1.0, path='a"b\\c')
        text = reg.to_prometheus()
        assert "weird_name_1" in text
        assert 'path="a\\"b\\\\c"' in text

    def test_snapshot_function_matches_method(self):
        from repro.obs.metrics import snapshot_to_prometheus

        reg = MetricsRegistry()
        reg.inc("x")
        assert snapshot_to_prometheus(reg.snapshot()) == reg.to_prometheus()

    def test_empty_registry_is_empty_string(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_newline_and_backslash_labels_round_trip(self):
        from repro.obs.metrics import _prom_escape, _prom_unescape

        for raw in ('a\nb', 'back\\slash', 'quo"te', '\\n literal', 'mix\\"\n'):
            escaped = _prom_escape(raw)
            assert "\n" not in escaped  # stays on one exposition line
            assert _prom_unescape(escaped) == raw

    def test_escaped_labels_render_on_one_line(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0, path="a\nb\\c")
        text = reg.to_prometheus()
        (sample,) = [
            l for l in text.splitlines() if not l.startswith("#")
        ]
        assert 'path="a\\nb\\\\c"' in sample

    def test_help_line_per_family(self):
        reg = MetricsRegistry()
        reg.inc("c", 1)
        reg.set_gauge("g", 2.0)
        reg.observe("h", 3.0)
        lines = reg.to_prometheus().splitlines()
        assert "# HELP c repro counter metric c" in lines
        assert "# HELP g repro gauge metric g" in lines
        assert "# HELP h repro summary metric h" in lines
        # exactly one HELP immediately preceding each TYPE
        for i, line in enumerate(lines):
            if line.startswith("# TYPE "):
                family = line.split()[2]
                assert lines[i - 1].startswith(f"# HELP {family} ")

    def test_output_parses_line_by_line(self):
        """Every non-comment line is `series value` with a float value."""
        reg = MetricsRegistry()
        reg.inc("a.b", 2)
        reg.set_gauge("c", 1.5, k="v")
        reg.observe("h", 1.0)
        text = reg.to_prometheus()
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith(("# TYPE ", "# HELP "))
                continue
            series, value = line.rsplit(" ", 1)
            float(value)
            assert re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})?$", series)
