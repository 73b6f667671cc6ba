"""``select_model`` and ``fit_basis_model`` agree bit for bit with the
per-candidate reference in ``reference_select.py``, on generated
profiles and on the calls real service and batch runs make."""

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
from repro.modeling import perf_profile
from repro.modeling.basis import ALL_BASIS, CANDIDATE_MODELS, BasisFunction
from repro.modeling.least_squares import FitResult, fit_basis_model
from repro.modeling.model_select import _is_sane, select_model
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


def check(case: Case) -> FitResult | type[FitError]:
    new = outcome(select_model, case.x, case.y, **case.kwargs())
    old = outcome(ref.reference_select_model, case.x, case.y, **case.kwargs())
    assert_bit_identical(new, old)
    return new


# strategies -----------------------------------------------------------

basis_subsets = st.lists(
    st.sampled_from(ALL_BASIS), min_size=0, max_size=len(ALL_BASIS)
).map(tuple)

candidate_lists = st.one_of(
    st.just(CANDIDATE_MODELS),
    st.lists(st.sampled_from(CANDIDATE_MODELS), min_size=1, max_size=6),
    st.lists(basis_subsets, min_size=1, max_size=6),
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


class TestSelectModelIdentity:
    @given(cases())
    @example(FLAT)
    @example(CONVEX)
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
        # the reference scales an infinite weight's column by inf / inf
        with np.errstate(invalid="ignore"), pytest.raises(FitError):
            ref.reference_select_model(x, y, weights=weights)


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
    for x, y, kwargs in calls:
        assert_bit_identical(
            outcome(select_model, x, y, **kwargs),
            outcome(ref.reference_select_model, x, y, **kwargs),
        )


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
        assert_replays_bit_identical(calls)

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
                assert _is_sane(new) == ref._is_sane(old)
