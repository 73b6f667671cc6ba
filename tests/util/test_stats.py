"""Tests for repro.util.stats."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    RunningStats,
    left_sum,
    mean_std,
    relative_error,
    summarize,
)

#: Python 3.11's sum() gives 1e16; a compensated sum (3.12's) 1.0000000000000002e16
LOSSY = [1e16, 1.0, 1.0]


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_single_value(self):
        s = RunningStats()
        s.add(5.0)
        assert s.mean == 5.0
        assert s.std == 0.0
        assert s.minimum == 5.0
        assert s.maximum == 5.0

    def test_matches_numpy(self):
        values = [1.0, 2.5, -3.0, 7.25, 0.125]
        s = RunningStats()
        s.extend(values)
        assert s.mean == pytest.approx(np.mean(values))
        assert s.std == pytest.approx(np.std(values, ddof=1))
        assert s.minimum == min(values)
        assert s.maximum == max(values)

    def test_merge_equals_combined_stream(self):
        a_vals = [1.0, 2.0, 3.0]
        b_vals = [10.0, -1.0]
        a, b = RunningStats(), RunningStats()
        a.extend(a_vals)
        b.extend(b_vals)
        merged = a.merge(b)
        direct = RunningStats()
        direct.extend(a_vals + b_vals)
        assert merged.count == direct.count
        assert merged.mean == pytest.approx(direct.mean)
        assert merged.variance == pytest.approx(direct.variance)

    def test_merge_with_empty(self):
        a = RunningStats()
        a.extend([1.0, 2.0])
        merged = a.merge(RunningStats())
        assert merged.mean == pytest.approx(1.5)
        merged2 = RunningStats().merge(a)
        assert merged2.mean == pytest.approx(1.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_welford_stability_property(self, values):
        s = RunningStats()
        s.extend(values)
        assert s.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(
            np.var(values, ddof=1), rel=1e-8, abs=1e-6
        )


class TestMeanStd:
    def test_empty_is_nan(self):
        m, s = mean_std([])
        assert math.isnan(m) and math.isnan(s)

    def test_single_value(self):
        assert mean_std([4.0]) == (4.0, 0.0)

    def test_two_values(self):
        m, s = mean_std([1.0, 3.0])
        assert m == 2.0
        assert s == pytest.approx(math.sqrt(2.0))


class TestLeftSum:
    def test_rounds_after_every_addition(self):
        assert left_sum(LOSSY) == 1e16
        assert left_sum(iter(LOSSY)) == 1e16

    def test_empty_input_totals_to_integer_zero(self):
        total = left_sum([])
        assert total == 0 and type(total) is int

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
    def test_adds_left_to_right_from_zero(self, values):
        total = 0
        for v in values:
            total += v
        assert left_sum(values) == total


class TestRelativeError:
    def test_basic(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)

    def test_zero_reference_zero_measured(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_zero_reference_nonzero_measured(self):
        assert relative_error(1.0, 0.0) == math.inf

    def test_negative_values(self):
        assert relative_error(-9.0, -10.0) == pytest.approx(0.1)


class TestSummarize:
    def test_groups(self):
        out = summarize({"a": [1.0, 2.0, 3.0], "b": []})
        assert out["a"]["mean"] == 2.0
        assert out["a"]["n"] == 3
        assert out["b"]["n"] == 0
        assert math.isnan(out["b"]["mean"])

    def test_single_sample_std_zero(self):
        out = summarize({"a": [5.0]})
        assert out["a"]["std"] == 0.0
