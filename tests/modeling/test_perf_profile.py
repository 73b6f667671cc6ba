"""Tests for repro.modeling.perf_profile."""

import numpy as np
import pytest

from repro.errors import FitError
from repro.modeling.basis import CONSTANT, LINEAR
from repro.modeling.perf_profile import DeviceModel, PerfProfile, ProfilePoint


def linear_profile(slope=0.01, intercept=0.5, xfer_slope=1e-5, sizes=(8, 16, 64, 256, 1024)):
    prof = PerfProfile("dev")
    for u in sizes:
        prof.add(u, intercept + slope * u, xfer_slope * u)
    return prof


class TestProfilePoint:
    def test_nonpositive_units_rejected(self):
        # NaN and infinity too: `nan <= 0` is False, so only an explicit
        # finiteness check keeps them out of every later fit
        for units in (0, -3.0, float("nan"), float("inf")):
            with pytest.raises(FitError):
                ProfilePoint(units=units, exec_s=1.0, transfer_s=0.0)
            with pytest.raises(FitError):
                PerfProfile("d").add(units, 1.0, 0.0)

    def test_negative_time_rejected(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(FitError):
                ProfilePoint(units=1, exec_s=bad, transfer_s=0.0)
            with pytest.raises(FitError):
                ProfilePoint(units=1, exec_s=1.0, transfer_s=bad)
            with pytest.raises(FitError):
                PerfProfile("d").add(100, bad, 0.0)


class TestPerfProfile:
    def test_add_and_len(self):
        prof = linear_profile()
        assert len(prof) == 5

    def test_observed_sizes_sorted_unique(self):
        prof = PerfProfile("d")
        for u in (16, 8, 16):
            prof.add(u, 1.0, 0.0)
        assert list(prof.observed_sizes()) == [8.0, 16.0]

    def test_fit_requires_two_points(self):
        prof = PerfProfile("d")
        prof.add(8, 1.0, 0.1)
        with pytest.raises(FitError, match=">= 2"):
            prof.fit()

    def test_fit_returns_model(self):
        model = linear_profile().fit()
        assert isinstance(model, DeviceModel)
        assert model.device_id == "dev"
        assert model.r2 > 0.999

    def test_clear(self):
        prof = linear_profile()
        prof.clear()
        assert len(prof) == 0

    def test_per_size_dedupe_keeps_range(self):
        prof = PerfProfile("d", max_points=32)
        # probe diversity first
        for u in (8, 64, 512):
            prof.add(u, 0.01 * u, 0.0)
        # then hundreds of identical-size steady-state tasks
        for _ in range(500):
            prof.add(100, 1.0, 0.0)
        sizes = prof.observed_sizes()
        assert 8.0 in sizes and 512.0 in sizes
        same = sum(1 for p in prof.points if p.units == 100)
        assert same <= PerfProfile.PER_SIZE_LIMIT

    def test_window_evicts_most_populous_size(self):
        prof = PerfProfile("d", max_points=6)
        for u in (8, 16, 32, 64):
            prof.add(u, 0.01 * u, 0.0)
        for i in range(4):
            prof.add(128, 1.28, 0.0)
        # window size respected and all distinct sizes retained
        assert len(prof) <= 6
        assert set(prof.observed_sizes()) >= {8.0, 16.0, 32.0, 64.0}

    def test_recency_decay_validation(self):
        prof = linear_profile()
        with pytest.raises(FitError):
            prof.fit(recency_decay=0.0)
        with pytest.raises(FitError):
            prof.fit(recency_decay=1.5)

    def test_recency_decay_tracks_regime_change(self):
        prof = PerfProfile("d")
        # old regime: fast
        for u in (100, 200, 400):
            prof.add(u, 0.001 * u, 0.0)
        # new regime: 4x slower, same sizes
        for u in (100, 200, 400):
            prof.add(u, 0.004 * u, 0.0)
        fresh = prof.fit(recency_decay=0.3)
        stale = prof.fit(recency_decay=1.0)
        assert float(fresh.E(400)) > float(stale.E(400))

    def test_max_points_validation(self):
        with pytest.raises(FitError):
            PerfProfile("d", max_points=1)


class TestDeviceModel:
    @pytest.fixture
    def model(self):
        return linear_profile().fit()

    def test_E_is_F_plus_G(self, model):
        x = 100.0
        assert float(model.E(x)) == pytest.approx(
            float(model.F(x)) + float(model.G(x)), rel=1e-9
        )

    def test_E_floored_positive(self, model):
        assert float(model.E(0.0)) > 0.0

    def test_dE_matches_finite_difference(self, model):
        h = 1e-4
        numeric = (float(model.E(100 + h)) - float(model.E(100 - h))) / (2 * h)
        assert float(model.dE(100.0)) == pytest.approx(numeric, rel=1e-4)

    def test_rate(self, model):
        assert model.rate(100.0) == pytest.approx(100.0 / float(model.E(100.0)))

    def test_invert_roundtrip(self, model):
        target = float(model.E(300.0))
        x = model.invert(target, 1024.0)
        assert x == pytest.approx(300.0, rel=1e-3)

    def test_invert_whole_range_fits(self, model):
        big_time = float(model.E(1024.0)) * 2
        assert model.invert(big_time, 1024.0) == 1024.0

    def test_invert_nothing_fits(self, model):
        assert model.invert(1e-12, 1024.0) == 0.0

    def test_invert_nonpositive_inputs(self, model):
        assert model.invert(0.0, 100.0) == 0.0
        assert model.invert(1.0, 0.0) == 0.0

    def test_x_max(self, model):
        assert model.x_max == 1024.0

    def test_describe(self, model):
        text = model.describe()
        assert "dev" in text and "G[x]" in text


class TestFitMemo:
    """``fit()`` keeps its model until the retained points change."""

    def test_no_new_point_returns_same_model(self):
        prof = linear_profile()
        assert prof.fit() is prof.fit()

    def test_different_point_misses(self):
        prof = linear_profile()
        first = prof.fit()
        prof.add(512, 0.5 + 0.01 * 512, 1e-5 * 512)
        second = prof.fit()
        assert second is not first
        assert second.exec_fit.n_points == first.exec_fit.n_points + 1

    def test_clear_misses(self):
        prof = linear_profile()
        first = prof.fit()
        points = prof.points
        prof.clear()
        for p in points:
            prof.add(p.units, p.exec_s, p.transfer_s, round_index=p.round_index)
        assert prof.points == points
        assert prof.fit() is not first

    def test_identical_replacement_hits(self):
        prof = PerfProfile("d")
        prof.add(8, 0.1, 0.0)
        for _ in range(PerfProfile.PER_SIZE_LIMIT):
            prof.add(64, 0.6, 0.001)
        first = prof.fit()
        # the size is full: this add replaces its oldest point with an equal one
        prof.add(64, 0.6, 0.001)
        assert len(prof) == 1 + PerfProfile.PER_SIZE_LIMIT
        assert prof.fit() is first
        # a different time at the same size changes the contents
        prof.add(64, 0.7, 0.001)
        assert prof.fit() is not first

    def test_changed_decay_or_candidates_misses(self):
        prof = linear_profile()
        first = prof.fit()
        assert prof.fit(recency_decay=0.5) is not first
        decayed = prof.fit(recency_decay=0.5)
        assert prof.fit(recency_decay=0.5) is decayed
        narrow = [(CONSTANT, LINEAR)]
        custom = prof.fit(candidates=narrow)
        assert custom is not decayed
        assert custom.exec_fit.names == ("1", "x")
        assert prof.fit(candidates=narrow) is custom
        assert prof.fit() is not custom

    def test_fit_error_is_not_kept(self, monkeypatch):
        import repro.modeling.perf_profile as perf_profile

        prof = linear_profile()
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            raise FitError("no candidate")

        monkeypatch.setattr(perf_profile, "select_model", failing)
        for _ in range(2):
            with pytest.raises(FitError):
                prof.fit()
        assert len(calls) == 2
        monkeypatch.undo()
        assert isinstance(prof.fit(), DeviceModel)

    def test_too_few_points_raises_every_time(self):
        prof = PerfProfile("d")
        prof.add(8, 1.0, 0.1)
        for _ in range(2):
            with pytest.raises(FitError):
                prof.fit()


def _retained_by_scanning(adds, max_points):
    """The retention rule as a full scan of the retained points per add."""
    points = []
    for units, exec_s in adds:
        same_size = [i for i, p in enumerate(points) if p[0] == units]
        if len(same_size) >= PerfProfile.PER_SIZE_LIMIT:
            del points[same_size[0]]
        points.append((units, exec_s))
        while len(points) > max_points:
            counts = {}
            for p in points:
                counts[p[0]] = counts.get(p[0], 0) + 1
            crowded = max(counts, key=lambda u: counts[u])
            del points[next(i for i, p in enumerate(points) if p[0] == crowded)]
    return points


class TestRetention:
    """``add`` keeps per-size counts instead of scanning every point; what
    it retains is the full scan's, point for point."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_full_scan(self, seed):
        rng = np.random.default_rng(seed)
        max_points = int(rng.integers(2, 40))
        n_sizes = int(rng.integers(1, 12))
        sizes = rng.choice([8, 16, 24, 64, 100, 128, 256, 512, 1000, 4096, 65536], n_sizes)
        # ints and floats of one size are one size
        adds = [
            (int(s) if rng.random() < 0.5 else float(s), float(i))
            for i, s in enumerate(rng.choice(sizes, int(rng.integers(1, 300))))
        ]
        prof = PerfProfile("d", max_points=max_points)
        for step in range(len(adds)):
            prof.add(adds[step][0], adds[step][1], 0.0)
            expected = _retained_by_scanning(adds[: step + 1], max_points)
            assert [(p.units, p.exec_s) for p in prof.points] == expected

    def test_both_evictions_are_exercised(self):
        prof = PerfProfile("d", max_points=12)
        for i in range(3 * PerfProfile.PER_SIZE_LIMIT):
            prof.add(64, float(i), 0.0)
        assert len(prof) == PerfProfile.PER_SIZE_LIMIT
        assert [p.exec_s for p in prof.points][0] == 2 * PerfProfile.PER_SIZE_LIMIT
        for size in (8, 16, 32, 128, 256):
            prof.add(size, 1.0, 0.0)
        # the window dropped the crowded size's oldest points first
        assert len(prof) == 12
        assert sum(p.units == 64 for p in prof.points) == 12 - 5

    def test_clear_resets_the_counts(self):
        prof = PerfProfile("d", max_points=4)
        for i in range(PerfProfile.PER_SIZE_LIMIT):
            prof.add(64, float(i), 0.0)
        prof.clear()
        for size in (8, 16, 32):
            prof.add(size, 1.0, 0.0)
        prof.add(64, 1.0, 0.0)
        prof.add(64, 2.0, 0.0)
        # 64 is now the one crowded size: the window drops its older point
        assert [p.units for p in prof.points] == [8, 16, 32, 64]
        assert prof.points[-1].exec_s == 2.0
