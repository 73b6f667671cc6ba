"""The solve stage agrees bit for bit with ``reference_solve.py``: model
evaluation at one block size, the interior-point iteration, waterfilling
and the whole ``solve_block_partition`` chain, with the kept waterfill
tables cold and warm."""

from __future__ import annotations

import math
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.modeling.basis import CANDIDATE_MODELS, CONSTANT, EXP, LINEAR, LOG, X_EXP
from repro.modeling.least_squares import FitResult
from repro.modeling.perf_profile import DeviceModel
from repro.modeling.transfer import LinearTransferFit
from repro.solver.ipm import IPMOptions, IPMResult, InteriorPointSolver
from repro.solver.partition import _trust_caps, solve_block_partition
from repro.solver.problem import build_partition_nlp, initial_partition_point
from repro.solver import reduction
from repro.solver.reduction import waterfill_partition
from tests.solver import reference_solve as ref

# overflow and NaN inputs are the point; both sides warn alike
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def canon(value):
    """A comparable form that tells every float bit pattern apart."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):  # np.float64 included
        return ("float", type(value).__name__, value.hex())
    if isinstance(value, dict):
        return {k: canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    return value


def outcome(fn, *args, **kwargs):
    """The call's value, or the type of the exception it raised."""
    try:
        return canon(fn(*args, **kwargs))
    except Exception as exc:  # the comparison is of behaviour, errors included
        return ("raised", type(exc))


def make_model(i, basis, coefficients, x_max, slope, intercept) -> DeviceModel:
    fit = FitResult(
        basis=tuple(basis),
        coefficients=np.asarray(coefficients, dtype=float),
        x_scale=float(x_max),
        r2=1.0,
        n_points=len(basis) + 1,
        x_max=float(x_max),
    )
    transfer = LinearTransferFit(slope=slope, intercept=intercept, r2=1.0, n_points=2)
    return DeviceModel(f"d{i}", fit, transfer)


# ----------------------------------------------------------------------
# scalar evaluation
# ----------------------------------------------------------------------
EDGE_SIZES = (0.0, -0.0, -1.0, -1e5, 1e-300, 1e5, 1e300, -1e300, math.inf, -math.inf, math.nan)

sizes = st.one_of(
    st.sampled_from(EDGE_SIZES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e6, max_value=1e6),
)
ints = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, 1, -1, 10**400, -(10**400)]),
)
coefficients = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3), st.sampled_from([0.0, 1e308, -1e308])
)
scales = st.one_of(
    st.floats(min_value=1e-3, max_value=1e6), st.sampled_from([1e-300, 1.0, 1e200])
)


def evaluations(model: DeviceModel, x) -> list:
    fit, transfer, old = model.exec_fit, model.transfer_fit, ref.ReferenceDeviceModel(model)
    pairs = [
        (fit.predict, ref.predict, fit),
        (fit.derivative, ref.derivative, fit),
        (fit.second_derivative, ref.second_derivative, fit),
        (transfer.predict, ref.transfer_predict, transfer),
        (model.E, old.E, None),
        (model.dE, old.dE, None),
        (model.d2E, old.d2E, None),
        (model.rate, old.rate, None),
    ]
    out = []
    for new, reference, first in pairs:
        args = (x,) if first is None else (first, x)
        out.append((new.__qualname__, outcome(new, x), outcome(reference, *args)))
    return out


def assert_same_evaluations(model: DeviceModel, x) -> None:
    for name, new, old in evaluations(model, x):
        assert new == old, (name, x)


@pytest.mark.parametrize("basis", CANDIDATE_MODELS, ids=lambda b: "+".join(f.name for f in b))
@pytest.mark.parametrize("x", EDGE_SIZES + (3, -7, 10**400), ids=lambda x: repr(x)[:12])
def test_every_candidate_at_edge_sizes(basis, x):
    coefs = [0.5 * (-1) ** i * (i + 1) for i in range(len(basis))]
    model = make_model(0, basis, coefs, 4096.0, 1e-6, 1e-4)
    assert_same_evaluations(model, x)
    if isinstance(x, float):
        assert_same_evaluations(model, np.float64(x))


@given(
    basis=st.sampled_from(CANDIDATE_MODELS),
    coefs=st.lists(coefficients, min_size=9, max_size=9),
    x_scale=scales,
    slope=st.floats(min_value=0.0, max_value=1e3),
    intercept=st.floats(min_value=0.0, max_value=1e3),
    x=sizes,
    n=ints,
)
@settings(max_examples=300, deadline=None)
@example(  # e^800 overflows to inf
    basis=(CONSTANT, EXP), coefs=[1.0] * 9, x_scale=1.0, slope=1.0, intercept=0.0,
    x=800.0, n=800,
)
def test_scalar_evaluation_identical(basis, coefs, x_scale, slope, intercept, x, n):
    model = make_model(0, basis, coefs[: len(basis)], x_scale, slope, intercept)
    for value in (x, np.float64(x), n):
        assert_same_evaluations(model, value)


@given(
    basis=st.sampled_from(CANDIDATE_MODELS),
    xs=st.lists(sizes, min_size=0, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_array_evaluation_identical(basis, xs):
    model = make_model(0, basis, [1.5] * len(basis), 1000.0, 1e-5, 1e-3)
    for value in (np.array(xs, dtype=float), xs, np.array(xs[0] if xs else 1.0)):
        for name, new, old in evaluations(model, value):
            if name.endswith("rate"):
                continue  # defined for one block size only
            assert new == old, (name, value)


# ----------------------------------------------------------------------
# partition problems
# ----------------------------------------------------------------------
@st.composite
def partition_models(draw, min_devices=2, max_devices=16):
    """Device models from random candidates and coefficients: mostly
    increasing curves, some flat or non-monotone ones."""
    n = draw(st.integers(min_devices, max_devices))
    models = []
    for i in range(n):
        basis = draw(st.sampled_from(CANDIDATE_MODELS + ((CONSTANT,),)))
        speed = draw(st.floats(min_value=1e-2, max_value=10.0))
        coefs = draw(
            st.lists(
                st.floats(min_value=-0.5, max_value=5.0),
                min_size=len(basis),
                max_size=len(basis),
            )
        )
        coefs[0] = abs(coefs[0]) * 1e-2 + 1e-3  # the dispatch cost
        x_max = draw(st.floats(min_value=16.0, max_value=1e5))
        slope = draw(st.floats(min_value=0.0, max_value=1e-5))
        models.append(
            make_model(i, basis, [c * speed for c in coefs], x_max, slope, 1e-4)
        )
    return models


def quantum(models, share: float) -> float:
    return share * sum(m.x_max for m in models)


def nan_model(i: int) -> DeviceModel:
    """exp terms that overflow to inf - inf on the upper part of the grid."""
    return make_model(i, (EXP, X_EXP), [1e308, -1e308], 100.0, 0.0, 0.0)


IPM_FIELDS = [f.name for f in fields(IPMResult)]


def ipm_outcome(solver_cls, models, q, caps, opts):
    def run():
        nlp = build_partition_nlp(models, q, upper_units=caps)
        z0 = initial_partition_point(models, q, upper_units=caps)
        result = solver_cls(opts).solve(nlp, z0)
        return [z0] + [getattr(result, name) for name in IPM_FIELDS]

    return outcome(run)


def check_ipm(models, share, capped, opts):
    q = quantum(models, share)
    caps = _trust_caps(models, q) if capped else None
    old_models = [ref.ReferenceDeviceModel(m) for m in models]
    new = ipm_outcome(InteriorPointSolver, models, q, caps, opts)
    old = ipm_outcome(ref.ReferenceInteriorPointSolver, old_models, q, caps, opts)
    assert new == old
    return new


ipm_options = st.builds(
    IPMOptions,
    tol=st.just(1e-8),
    max_iter=st.sampled_from([1, 2, 5, 150]),
    max_backtracks=st.sampled_from([1, 2, 40]),
    barrier_strategy=st.sampled_from(["monotone", "adaptive", "probing"]),
)


@given(
    models=partition_models(),
    share=st.floats(min_value=0.1, max_value=2.0),
    capped=st.booleans(),
    opts=ipm_options,
)
@settings(max_examples=80, deadline=None)
def test_ipm_identical(models, share, capped, opts):
    check_ipm(models, share, capped, opts)


def _index(name: str) -> int:
    return IPM_FIELDS.index(name) + 1  # after z0


def ladder(basis, n: int) -> list[DeviceModel]:
    """``n`` devices of one basis, each slower and with alternating signs."""
    return [
        make_model(
            i, basis,
            [1e-3] + [0.3 * (i + 1) * (-1) ** (j * i) for j in range(1, len(basis))],
            1000.0 * (i + 1), 1e-6, 1e-4,
        )
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "strategy, basis, share, n, status",
    [
        ("monotone", CANDIDATE_MODELS[0], 1.5, 8, "restoration_failed"),
        ("adaptive", CANDIDATE_MODELS[1], 0.1, 4, "max_iterations"),
        ("probing", CANDIDATE_MODELS[0], 0.5, 8, "restoration_failed"),
    ],
    ids=["monotone", "adaptive", "probing"],
)
def test_ipm_identical_through_restoration_and_iteration_limit(
    strategy, basis, share, n, status
):
    """Deterministic cases that reach the paths hypothesis may miss."""
    models = ladder(CANDIDATE_MODELS[0], 4)
    converged = check_ipm(models, 0.5, True, IPMOptions(barrier_strategy=strategy))
    assert converged[_index("status")] == "optimal"
    limited = check_ipm(
        models, 0.5, False, IPMOptions(barrier_strategy=strategy, max_iter=3)
    )
    assert limited[_index("status")] == "max_iterations"
    restored = check_ipm(
        ladder(basis, n), share, True,
        IPMOptions(barrier_strategy=strategy, max_backtracks=1, max_iter=40),
    )
    assert restored[_index("restorations")] > 0
    assert restored[_index("status")] == status


def test_ipm_identical_when_a_model_goes_non_finite():
    models = [nan_model(0)] + [
        make_model(i, (CONSTANT, LINEAR), [1e-3, 0.3], 100.0, 0.0, 1e-4)
        for i in range(1, 3)
    ]
    for share in (0.05, 1.0):
        check_ipm(models, share, True, IPMOptions(barrier_strategy="adaptive"))


# ----------------------------------------------------------------------
# waterfilling and the whole chain
# ----------------------------------------------------------------------
def cold_and_warm(run) -> list:
    """``run()`` with no waterfill table kept, then again with the tables
    of the same model objects kept from that first call."""
    reduction._table.cache_clear()
    return [run() for _ in range(2)]


def check_waterfill(models, share, capped):
    q = quantum(models, share)
    caps = _trust_caps(models, q) if capped else None
    old_models = [ref.ReferenceDeviceModel(m) for m in models]
    old = outcome(ref.waterfill_partition, old_models, q, caps=caps)
    new = cold_and_warm(lambda: outcome(waterfill_partition, models, q, caps=caps))
    assert new == [old, old]
    return old


@given(
    models=partition_models(min_devices=1),
    share=st.floats(min_value=0.01, max_value=3.0),
    capped=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_waterfill_identical(models, share, capped):
    check_waterfill(models, share, capped)


def test_kept_tables_stay_bounded_and_release_their_models():
    reduction._table.cache_clear()
    models = ladder(CANDIDATE_MODELS[0], 20)
    alive = [weakref.ref(m) for m in models]
    waterfill_partition(models, quantum(models, 0.5))
    kept = reduction._table.cache_info().maxsize
    assert reduction._table.cache_info().currsize == kept == 16
    del models
    # the 4 evicted tables held the only other references to their models
    assert [m() is not None for m in alive] == [False] * 4 + [True] * kept
    reduction._table.cache_clear()
    assert all(m() is None for m in alive)


def test_waterfill_identical_on_flat_non_monotone_and_nan_tables():
    flat = make_model(0, (CONSTANT,), [0.5], 1000.0, 0.0, 0.0)
    hump = make_model(1, CANDIDATE_MODELS[1], [0.2, 1.0, -0.6], 1000.0, 0.0, 0.0)
    falling = make_model(2, (CONSTANT, LOG), [0.5, -0.1], 1000.0, 0.0, 0.0)
    steady = make_model(3, (CONSTANT, LINEAR), [1e-3, 0.4], 1000.0, 1e-6, 1e-4)
    for models in (
        [flat, steady],
        [flat, flat],
        [falling, steady, hump],
        [nan_model(4), steady],
        [steady, nan_model(4)],
        [nan_model(4), nan_model(5)],
    ):
        for share in (0.01, 0.5, 2.0):
            for capped in (False, True):
                check_waterfill(models, share, capped)


def partition_outcome(models, q, opts, *, reference: bool = False):
    def run():
        if not reference:
            result = solve_block_partition(models, q, ipm_options=opts)
        else:
            with ref.reference_partition():
                result = solve_block_partition(
                    [ref.ReferenceDeviceModel(m) for m in models], q, ipm_options=opts
                )
        return [
            result.units,
            result.predicted_time,
            result.method,
            result.converged,
            result.iterations,
            result.kkt_error,
            result.device_ids,
        ]

    return outcome(run)


def check_partition(models, share, opts=None):
    q = quantum(models, share)
    old = partition_outcome(models, q, opts, reference=True)
    assert cold_and_warm(lambda: partition_outcome(models, q, opts)) == [old, old]
    return old[2] if isinstance(old, list) else old  # the method, or the error


@given(
    models=partition_models(min_devices=1),
    share=st.floats(min_value=0.01, max_value=3.0),
    opts=st.one_of(st.none(), ipm_options),
)
@settings(max_examples=60, deadline=None)
def test_solve_block_partition_identical(models, share, opts):
    check_partition(models, share, opts)


def test_solve_block_partition_identical_on_every_method():
    steady = make_model(0, CANDIDATE_MODELS[0], [1e-3, 0.4], 1000.0, 1e-6, 1e-4)
    flat = make_model(1, (CONSTANT,), [0.5], 1000.0, 0.0, 0.0)
    small = make_model(2, CANDIDATE_MODELS[0], [1e-3, 0.4], 100.0, 1e-6, 1e-4)
    assert check_partition(ladder(CANDIDATE_MODELS[1], 5), 0.8) == "certified"
    assert check_partition(ladder(CANDIDATE_MODELS[2], 5), 0.8) == "ipm"
    assert check_partition([flat, steady], 0.2) == "waterfill"
    assert check_partition([flat, steady], 0.8) == "proportional"
    assert check_partition([nan_model(3), small, small], 0.8) == (
        "raised", ConfigurationError
    )
