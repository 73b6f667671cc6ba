"""``select_model`` and ``fit_basis_model`` agree bit for bit with the
per-candidate reference in ``reference_select.py``, on generated
profiles and on the calls real service and batch runs make, with the
kept sanity grids cold and warm."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import PLBHeC, Runtime, paper_cluster
from repro.apps import MatMul
from repro.errors import FitError
from repro.modeling import least_squares, perf_profile
from repro.modeling.basis import (
    ALL_BASIS,
    CANDIDATE_MODELS,
    CONSTANT,
    LINEAR,
    SQUARE,
    BasisFunction,
)
from repro.modeling.least_squares import FitResult, fit_basis_model
from repro.modeling.model_select import (
    _GRIDS,
    _ROWS,
    _is_sane,
    _shared_grid,
    select_model,
)
from repro.service.arrivals import ArrivalSpec
from repro.service.server import ClusterService, ServiceConfig
from tests.modeling import reference_select as ref

#: the basis the NNLS fallback fits over
NNLS_NAMES = ("1", "x", "x^2", "x^3", "sqrt x")


@dataclass(frozen=True)
class Case:
    x: tuple[float, ...]
    y: tuple[float, ...]
    weights: tuple[float, ...] | None = None
    x_scale: float | None = None
    require_sane: bool = True
    candidates: Sequence[Sequence[BasisFunction]] = CANDIDATE_MODELS

    def kwargs(self) -> dict:
        return {
            "candidates": self.candidates,
            "weights": self.weights,
            "x_scale": self.x_scale,
            "require_sane": self.require_sane,
        }


def outcome(fn, *args, **kwargs) -> FitResult | type[FitError]:
    try:
        return fn(*args, **kwargs)
    except FitError:
        return FitError


def assert_bit_identical(new, old) -> None:
    if old is FitError or new is FitError:
        assert new is old
        return
    assert new.basis == old.basis
    assert new.n_points == old.n_points
    for name in ("x_scale", "x_max", "r2", "rel_rmse"):
        assert float(getattr(new, name)).hex() == float(getattr(old, name)).hex(), name
    assert np.array_equal(new.coefficients, old.coefficients)
    assert new.coefficients.tobytes() == old.coefficients.tobytes()


def cold_and_warm(fn, *args, **kwargs) -> list:
    """``fn``'s outcome with no sanity grid kept, then again with the
    grid of the same ``(x_max, x_scale)`` kept from that first call."""
    _shared_grid.cache_clear()
    return [outcome(fn, *args, **kwargs) for _ in range(2)]


def check(case: Case) -> FitResult | type[FitError]:
    old = outcome(ref.reference_select_model, case.x, case.y, **case.kwargs())
    cold, warm = cold_and_warm(select_model, case.x, case.y, **case.kwargs())
    assert_bit_identical(cold, old)
    assert_bit_identical(warm, old)
    return cold


# strategies -----------------------------------------------------------

basis_subsets = st.lists(
    st.sampled_from(ALL_BASIS), min_size=0, max_size=len(ALL_BASIS)
).map(tuple)

#: ladders that mix widths, one-basis candidates (whose column norm is
#: their own, not the shared one) and candidates listing a basis twice
mixed_ladders = st.tuples(
    st.lists(st.sampled_from(CANDIDATE_MODELS), max_size=4),
    st.lists(st.sampled_from(ALL_BASIS).map(lambda b: (b,)), min_size=1, max_size=3),
    st.lists(
        st.tuples(st.sampled_from(ALL_BASIS), basis_subsets).map(
            lambda pair: (pair[0], *pair[1], pair[0])
        ),
        min_size=1,
        max_size=3,
    ),
).flatmap(lambda parts: st.permutations([c for part in parts for c in part]))

candidate_lists = st.one_of(
    st.just(CANDIDATE_MODELS),
    st.lists(st.sampled_from(CANDIDATE_MODELS), min_size=1, max_size=6),
    st.lists(basis_subsets, min_size=1, max_size=6),
    mixed_ladders,
)


@st.composite
def cases(draw) -> Case:
    # the shapes service traffic reaches: up to 133 points over 88
    # distinct sizes, a size repeated up to 8 times, in arrival order
    n_sizes = draw(st.integers(1, 100))
    pool = draw(
        st.lists(
            st.integers(1, 100_000), min_size=n_sizes, max_size=n_sizes, unique=True
        )
    )
    repeats = draw(st.lists(st.integers(1, 8), min_size=n_sizes, max_size=n_sizes))
    sizes = [size for size, k in zip(pool, repeats) for _ in range(k)][:160]
    x = np.array(draw(st.permutations(sizes)), dtype=float)
    n = x.size
    shape = draw(st.sampled_from(("affine", "convex", "concave", "flat", "noise")))
    u = x / x.max()
    base = draw(st.floats(1e-4, 10.0))
    if shape == "affine":
        y = base * (0.1 + u)
    elif shape == "convex":
        y = base * u**2
    elif shape == "concave":
        y = base * (0.05 + np.sqrt(u))
    else:
        y = np.full(n, base)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = draw(st.sampled_from((0.0, 0.01, 0.2)))
    if shape == "noise":
        y = y * rng.uniform(0.0, 2.0, n)
    elif sigma > 0.0:
        y = y * np.exp(rng.normal(0.0, sigma, n))
    weighting = draw(st.sampled_from(("none", "recency", "random")))
    weights = None
    if weighting == "recency":
        decay = draw(st.floats(0.05, 1.0))
        weights = tuple(decay ** np.arange(n - 1, -1, -1, dtype=float))
    elif weighting == "random":
        weights = tuple(rng.uniform(0.0, 1.0, n))
    x_scale = None
    if draw(st.booleans()):
        x_scale = float(x.max()) * draw(st.floats(0.25, 4.0))
    return Case(
        x=tuple(x),
        y=tuple(y),
        weights=weights,
        x_scale=x_scale,
        require_sane=draw(st.booleans()),
        candidates=draw(candidate_lists),
    )


FLAT = Case(x=(64.0, 128.0, 256.0, 512.0, 1024.0), y=(0.25,) * 5)
CONVEX = Case(x=(100.0, 200.0, 400.0, 800.0), y=(10.0, 40.0, 160.0, 640.0))
AFFINE = Case(
    x=(64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0),
    y=(0.564, 0.628, 0.756, 1.012, 1.524, 2.548, 4.596),
)
#: e^u and u e^u overflow at u = x: those candidates are refused
OVERFLOW = Case(
    x=(1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0),
    y=(1.0, 2.0, 3.0, 4.5, 5.0, 7.0),
    x_scale=1.0,
)


class TestSelectModelIdentity:
    @given(cases())
    @example(FLAT)
    @example(CONVEX)
    @example(AFFINE)
    @example(OVERFLOW)
    @example(
        Case(
            CONVEX.x + (1600.0, 3200.0),
            CONVEX.y + (2560.0, 10240.0),
            candidates=((LINEAR,), (CONSTANT, LINEAR, LINEAR), *CANDIDATE_MODELS),
        )
    )
    @example(Case(x=(10.0, 20.0), y=(1.0, 2.0)))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, case):
        with np.errstate(all="ignore"):
            check(case)

    def test_convex_data_takes_the_nnls_fallback(self):
        for case in (CONVEX, Case(CONVEX.x, CONVEX.y, weights=(0.1, 0.3, 0.6, 1.0))):
            assert check(case).names == NNLS_NAMES

    def test_flat_data(self):
        fit = check(FLAT)
        assert fit.r2 == 1.0 and fit.rel_rmse < 1e-12

    def test_two_points_interpolate(self):
        fit = check(Case(x=(10.0, 20.0), y=(1.0, 2.0)))
        assert fit.n_points == 2 and len(fit.basis) == 2

    @pytest.mark.parametrize(
        "x, y, weights",
        [
            ((), (), None),
            ((8.0,), (1.0,), None),
            ((0.0, 8.0, 16.0), (1.0, 2.0, 3.0), None),
            ((-8.0, 8.0, 16.0), (1.0, 2.0, 3.0), None),
            ((8.0, float("inf"), 16.0), (1.0, 2.0, 3.0), None),
            ((8.0, float("nan"), 16.0), (1.0, 2.0, 3.0), None),
            ((8.0, 16.0, 32.0), (1.0, float("nan"), 3.0), None),
            ((8.0, 16.0, 32.0), (1.0, 2.0), None),
            ((8.0, 16.0, 32.0), (1.0, 2.0, 3.0), (1.0, -1.0, 1.0)),
            ((8.0, 16.0, 32.0), (1.0, 2.0, 3.0), (1.0, 1.0)),
            ((8.0, 16.0, 32.0), (1.0, 2.0, 3.0), (1.0, float("nan"), 1.0)),
            ((8.0, 16.0, 32.0), (1.0, 2.0, 3.0), (1.0, float("inf"), 1.0)),
        ],
    )
    def test_bad_inputs_raise_in_both(self, x, y, weights):
        with pytest.raises(FitError):
            select_model(x, y, weights=weights)
        with pytest.raises(FitError):
            ref.reference_select_model(x, y, weights=weights)


def solved_widths(monkeypatch) -> list[int]:
    """The width of every candidate ``FitData.solve`` solves from now on."""
    widths = []
    real = least_squares.FitData.solve

    def counting(self, basis):
        widths.append(len(basis))
        return real(self, basis)

    monkeypatch.setattr(least_squares.FitData, "solve", counting)
    return widths


class TestCertificate:
    """The ladder stops once its answer can no longer change, and the
    answer is the full ladder's.  ``check`` selects twice (cold and warm
    grid), with the same solves each time."""

    def test_an_affine_profile_stops_after_the_width_2_class(self, monkeypatch):
        widths = solved_widths(monkeypatch)
        fit = check(AFFINE)
        assert fit.names == ("1", "x")
        assert widths == [2, 2, 2] * 2

    def test_a_convex_profile_runs_the_full_ladder(self, monkeypatch):
        widths = solved_widths(monkeypatch)
        assert check(CONVEX).names == NNLS_NAMES
        ladder = [len(c) for c in CANDIDATE_MODELS if len(c) < len(CONVEX.x)]
        assert widths == sorted(ladder) * 2

    def test_no_certificate_without_the_sanity_rule(self, monkeypatch):
        widths = solved_widths(monkeypatch)
        check(Case(AFFINE.x, AFFINE.y, require_sane=False))
        # all but the 9-term one, cold and warm
        assert len(widths) == 2 * (len(CANDIDATE_MODELS) - 1)


def recorded_selections(monkeypatch, run) -> list[tuple[np.ndarray, np.ndarray, dict]]:
    """The ``select_model`` calls ``PerfProfile.fit`` makes during ``run()``."""
    calls = []
    real = perf_profile.select_model

    def recording(x, y, **kwargs):
        calls.append((np.array(x), np.array(y), kwargs))
        return real(x, y, **kwargs)

    monkeypatch.setattr(perf_profile, "select_model", recording)
    run()
    return calls


def assert_replays_bit_identical(calls) -> None:
    """Each call matches the reference when replayed in order, finding
    the grids earlier calls left kept as in the run, and again with no
    grid kept and with its own kept."""
    old = [outcome(ref.reference_select_model, x, y, **kw) for x, y, kw in calls]
    for (x, y, kwargs), expected in zip(calls, old):
        assert_bit_identical(outcome(select_model, x, y, **kwargs), expected)
    for (x, y, kwargs), expected in zip(calls, old):
        for new in cold_and_warm(select_model, x, y, **kwargs):
            assert_bit_identical(new, expected)


class TestRecordedSelections:
    """Every selection a real run makes matches the reference."""

    def test_overloaded_service_episode(self, monkeypatch):
        # perfbench's serve-overload episode: every tick refits, unweighted
        config = ServiceConfig(
            arrivals=ArrivalSpec(rate=8.5, duration=15.0),
            machines=2,
            queue_limit=8,
            shed_policy="priority-shed",
            deadline_factor=30.0,
            seed=1,
        )
        calls = recorded_selections(monkeypatch, ClusterService(config).run)
        assert sum(x.size >= 20 for x, _, _ in calls) >= 20
        assert all(kwargs["weights"] is None for _, _, kwargs in calls)
        # successive selections of a profile mostly share (x_max, x_scale)
        grids = {(x.max(), kwargs.get("x_scale")) for x, _, kwargs in calls}
        assert len(grids) < 0.5 * len(calls)
        assert_replays_bit_identical(calls)
        widths = solved_widths(monkeypatch)
        ladders = stopped = 0
        for x, y, kwargs in calls:
            del widths[:]
            select_model(x, y, **kwargs)
            if x.size >= 4:  # a ladder with candidates wider than 2
                ladders += 1
                stopped += max(widths) == 2
        # the certificate stops 34 of these 72 ladders after the width-2
        # class (and 345 of the 571 on a perfbench serve-overload cycle)
        assert stopped >= 0.45 * ladders > 0

    def test_plb_hec_batch_run(self, monkeypatch):
        app = MatMul(n=16384)
        runtime = Runtime(paper_cluster(4), app.codelet(), seed=3)
        calls = recorded_selections(
            monkeypatch,
            lambda: runtime.run(
                PLBHeC(fixed_overhead_s=0.002),
                app.total_units,
                app.default_initial_block_size(),
            ),
        )
        assert len(calls) >= 10
        # PLB-HeC weights its profiles by recency
        assert all(kwargs["weights"] is not None for _, _, kwargs in calls)
        assert_replays_bit_identical(calls)


class TestFitBasisModelIdentity:
    @given(cases(), basis_subsets.filter(len))
    @settings(max_examples=100, deadline=None)
    def test_fit_and_sanity_match_reference(self, case, basis):
        with np.errstate(all="ignore"):
            args = (case.x, case.y, basis)
            kwargs = {"weights": case.weights, "x_scale": case.x_scale}
            new = outcome(fit_basis_model, *args, **kwargs)
            old = outcome(ref.reference_fit_basis_model, *args, **kwargs)
            assert_bit_identical(new, old)
            if new is not FitError:
                sane = ref._is_sane(old)
                assert cold_and_warm(_is_sane, new) == [sane, sane]


def custom_basis(k: int) -> BasisFunction:
    """A new basis object: rising for even ``k``; for odd ``k`` one that
    turns down inside the checked range, so no fit on it is sane."""
    if k % 2 == 0:
        return BasisFunction(
            f"rise{k}", lambda u: 1.0 * u, lambda u: np.ones_like(u),
            lambda u: np.zeros_like(u),
        )
    return BasisFunction(
        f"hump{k}", lambda u: u - 0.3 * u * u, lambda u: 1.0 - 0.6 * u,
        lambda u: np.full_like(u, -0.6),
    )


class TestKeptGrids:
    def test_a_new_basis_never_reads_a_dropped_basis_row(self):
        """Bases created and dropped at one (x_max, x_scale) each get
        their own grid row: CPython hands a dropped object's address,
        and so its ``id()``, to the next object of its size."""
        x = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0)
        y = tuple(0.5 + v / 100.0 for v in x)
        _shared_grid.cache_clear()
        names = set()
        for k in range(40):
            candidates = [(CONSTANT, custom_basis(k))]
            new = outcome(select_model, x, y, candidates=candidates)
            old = outcome(ref.reference_select_model, x, y, candidates=candidates)
            assert_bit_identical(new, old)
            names.add(new.names)
            del candidates, new, old
        # the rising bases are chosen, the humps fall back to NNLS
        assert NNLS_NAMES in names and ("1", "rise0") in names
        assert _shared_grid.cache_info().currsize == 1

    def test_grids_of_one_x_max_are_kept_apart(self):
        """A kept grid serves only its own x_scale and slack."""
        _shared_grid.cache_clear()
        for scale in (None, 150.0, 600.0, 2400.0, None):
            new = outcome(select_model, CONVEX.x, CONVEX.y, x_scale=scale)
            old = outcome(ref.reference_select_model, CONVEX.x, CONVEX.y, x_scale=scale)
            assert_bit_identical(new, old)
        x = np.array(AFFINE.x)
        # rises to x = 12,500: sane over 2 x_max, not over 4 x_max
        fit = fit_basis_model(x, 1.0 + x - 4e-5 * x**2, (CONSTANT, LINEAR, SQUARE))
        verdicts = {}
        for slack in (4.0, 2.0, 4.0, 1.0):
            sane = ref._is_sane(fit, extrapolation_slack=slack)
            assert _is_sane(fit, extrapolation_slack=slack) == sane
            verdicts[slack] = sane
        assert verdicts == {4.0: False, 2.0: True, 1.0: True}

    def test_kept_grids_and_their_rows_stay_bounded(self):
        _shared_grid.cache_clear()
        for k in range(_GRIDS + 20):
            x = [v * (1.0 + k / 64) for v in AFFINE.x]
            select_model(x, AFFINE.y)
        assert _shared_grid.cache_info().currsize == _GRIDS
        grid = _shared_grid(600.0, 600.0)
        for k in range(3 * _ROWS):
            grid.accepts([((custom_basis(k),), np.ones(1))])
            assert len(grid._rows) <= _ROWS
