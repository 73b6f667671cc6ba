"""The certificate stage of :func:`solve_block_partition`.

A ``"certified"`` answer is the waterfill point Newton-polished on the
exact device models.  It must meet the equal-time NLP's first-order
conditions to the interior-point tolerance (the test the interior-point
solver itself stops on) and agree with what that solver finds on the
same free set.  Every point the certificate refuses is answered by the
interior-point path exactly as if the certificate did not exist.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.modeling.basis import (
    CANDIDATE_MODELS, CONSTANT, CUBE, EXP, LINEAR, LOG, SQRT, SQUARE, X_EXP,
)
from repro.modeling.perf_profile import _TIME_FLOOR
from repro.solver import partition
from repro.solver.ipm import IPMOptions, InteriorPointSolver
from repro.solver.partition import _certify, _trust_caps, solve_block_partition
from repro.solver.problem import build_partition_nlp, initial_partition_point
from repro.solver.reduction import waterfill_partition
from tests.solver.test_solve_identity import canon, make_model

#: The chain's default interior-point options (and so its tolerance).
OPTS = IPMOptions(tol=1e-8, max_iter=150, barrier_strategy="adaptive")
TOL = OPTS.tol

#: Terms that are increasing on x > 0.
INCREASING = (LINEAR, SQUARE, CUBE, SQRT, EXP, X_EXP)


@st.composite
def increasing_models(draw, min_devices=2, max_devices=8):
    """Strictly increasing positive profiles: a positive intercept plus
    positive coefficients on increasing terms, and an affine transfer."""
    n = draw(st.integers(min_devices, max_devices))
    models = []
    for i in range(n):
        terms = draw(st.lists(st.sampled_from(INCREASING), min_size=1, max_size=3))
        coefs = draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=5.0),
                min_size=len(terms),
                max_size=len(terms),
            )
        )
        speed = draw(st.floats(min_value=1e-2, max_value=10.0))
        intercept = draw(st.floats(min_value=1e-4, max_value=1e-1))
        x_max = draw(st.floats(min_value=16.0, max_value=1e5))
        slope = draw(st.floats(min_value=0.0, max_value=1e-5))
        models.append(
            make_model(
                i, (CONSTANT, *terms), [intercept, *(c * speed for c in coefs)],
                x_max, slope, 1e-4,
            )
        )
    return models


def quantum(models, share: float) -> float:
    """A quantum of ``share`` times the devices' summed profiled range;
    the trust caps (4x that range) then hold it without relaxation."""
    return share * sum(m.x_max for m in models)


def free_set(models, q):
    """The free devices, free quantum and caps, as the chain derives them."""
    caps = _trust_caps(models, q)
    units, _ = waterfill_partition(models, q, caps=caps)
    pinned = units >= caps * (1.0 - 1e-9)
    dropped = units <= 1e-9 * q
    free = [i for i in range(len(models)) if not pinned[i] and not dropped[i]]
    return free, q - float(units[pinned].sum()), caps


def ipm_on_free_set(models, q):
    """The chain's interior-point solve of the free set (``None`` when
    it raises) and the free-set NLP."""
    free, q_free, caps = free_set(models, q)
    sub = [models[i] for i in free]
    nlp = build_partition_nlp(sub, q_free, upper_units=caps[free])
    z0 = initial_partition_point(sub, q_free, upper_units=caps[free])
    try:
        return InteriorPointSolver(OPTS).solve_with_retry(nlp, z0), nlp
    except SolverError:
        return None, nlp


def kkt_error_at(sub_models, q_free, caps, units, t):
    """``InteriorPointSolver._kkt_error`` of the free-set NLP at the
    certificate's primal-dual point (zero slacks, zero bound multipliers
    on the fractions, ``lam_g`` proportional to ``1/E'_g``)."""
    n = len(sub_models)
    nlp = build_partition_nlp(sub_models, q_free, upper_units=caps)
    z = np.concatenate([units / q_free, np.zeros(n), [t]])
    inv = 1.0 / np.array([m.dE(u) for m, u in zip(sub_models, units)])
    lam_g = inv / inv.sum()
    assert np.all(lam_g > 0.0)
    lam = np.concatenate([lam_g, [-q_free / inv.sum()]])
    z_lo = np.concatenate([np.zeros(n), lam_g, [0.0]])
    z_up = np.zeros(nlp.n)
    return InteriorPointSolver(OPTS)._kkt_error(
        nlp, z, lam, z_lo, z_up, nlp.gradient(z), nlp.constraints(z),
        nlp.jacobian(z), 0.0,
    )


# the interior-point iterates may overflow the exp terms; the solver copes
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(
    models=increasing_models(),
    share=st.floats(min_value=0.05, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_certified_answers_meet_the_ipm_test(models, share):
    q = quantum(models, share)
    result = solve_block_partition(models, q)
    assume(result.method == "certified")
    assert abs(result.units.sum() - q) <= 1e-9 * q
    assert result.converged and result.kkt_error <= TOL
    free, q_free, caps = free_set(models, q)
    sub = [models[i] for i in free]
    units, t = result.units[free], result.predicted_time
    for m, u in zip(sub, units):
        assert abs(m.E(u) - t) <= TOL
    assert kkt_error_at(sub, q_free, caps[free], units, t) <= TOL
    # The interior-point solve the chain used to run on this free set.
    # Its stopping test admits a slack s_g with s_g * lam_g <= tol, that
    # is about tol * sum(1/E'_h) units away from the exact point: on
    # flat curves and a small quantum that exceeds 1e-5 of the quantum.
    ipm, _ = ipm_on_free_set(models, q)
    if ipm is not None and ipm.converged:
        slack_units = TOL * sum(1.0 / m.dE(u) for m, u in zip(sub, units))
        gap = np.abs(ipm.x[: len(sub)] * q_free - units).max()
        assert gap <= 1e-5 * q + 10.0 * slack_units


def test_clean_models_certify_within_two_steps():
    models = [
        make_model(i, (CONSTANT, LINEAR, SQUARE), [1e-3, 0.4 * (i + 1), 0.1],
                   1000.0, 1e-6, 1e-4)
        for i in range(4)
    ]
    result = solve_block_partition(models, 2000.0)
    assert result.method == "certified"
    assert result.iterations <= 2
    assert result.kkt_error <= TOL


def test_single_device_is_certified():
    model = make_model(0, (CONSTANT, LINEAR), [1e-3, 0.4], 1000.0, 1e-6, 1e-4)
    result = solve_block_partition([model], 300.0)
    assert result.method == "certified"
    assert result.units.tolist() == [300.0]
    assert result.predicted_time == model.E(300.0)
    assert (result.iterations, result.kkt_error) == (0, 0.0)


# ----------------------------------------------------------------------
# refusals
# ----------------------------------------------------------------------
STEADY = make_model(0, (CONSTANT, LINEAR), [1e-3, 0.4], 1000.0, 1e-6, 1e-4)
SLOWER = make_model(1, (CONSTANT, LINEAR), [1e-3, 0.8], 1000.0, 1e-6, 1e-4)


def equal_time_point(models, q):
    """The waterfill split of ``models`` and its finish time."""
    caps = _trust_caps(models, q)
    units, t = waterfill_partition(models, q, caps=caps)
    return units, t, caps


def test_certify_accepts_the_affine_split():
    units, t, caps = equal_time_point([STEADY, SLOWER], 600.0)
    certified = _certify([STEADY, SLOWER], units, t, 600.0, caps, TOL)
    assert certified is not None
    assert certified[2] <= 1


def test_certify_refuses_a_time_on_the_floor():
    # E(x) = -0.4 + 0.4 x/1000 sits on the floor up to x = 1000
    floored = make_model(2, (CONSTANT, LINEAR), [-0.4, 0.4], 1000.0, 0.0, 0.0)
    units = np.array([300.0, 300.0])
    assert floored.E(300.0) == _TIME_FLOOR
    assert _certify(
        [floored, floored], units, _TIME_FLOOR, 600.0, np.full(2, 4000.0), TOL
    ) is None


def test_certify_refuses_a_non_increasing_model():
    falling = make_model(2, (CONSTANT, LINEAR), [1.0, -0.4], 1000.0, 0.0, 0.0)
    units = np.array([300.0, 300.0])
    assert falling.dE(300.0) < 0.0
    assert _certify(
        [STEADY, falling], units, 0.5, 600.0, np.full(2, 4000.0), TOL
    ) is None


def test_certify_refuses_a_step_out_of_the_box():
    # Newton from below on a convex curve overshoots the answer
    cubic = make_model(2, (CONSTANT, CUBE), [1e-3, 1.0], 1000.0, 0.0, 0.0)
    loose = np.full(2, 4000.0)
    units, t, _ = equal_time_point([cubic, STEADY], 600.0)
    start = np.array([units[0] / 2, 600.0 - units[0] / 2])
    polished = _certify([cubic, STEADY], start, t, 600.0, loose, TOL)
    assert polished is not None and np.allclose(polished[0], units)
    tight = np.array([1.05 * units[0], 4000.0])
    assert _certify([cubic, STEADY], start, t, 600.0, tight, TOL) is None


def refusal_cases():
    """Chain inputs whose waterfill point the certificate refuses."""
    floored = [
        make_model(i, (CONSTANT, LINEAR), [-0.4 * (i + 1), 0.4], 1000.0, 0.0, 0.0)
        for i in range(3)
    ]
    falling_log = [
        make_model(0, CANDIDATE_MODELS[-1],
                   [0.008, 0.634, 1.15, 0.363, 0.248, 1.292, 1.231, 0.232, 1.499],
                   1566.0, 7.2e-6, 1e-4),
        make_model(1, (CONSTANT, LOG), [0.003, -0.023], 2890.0, 3.1e-6, 1e-4),
    ]
    overshoot = [
        make_model(0, (CONSTANT, LINEAR, EXP), [0.033, 5.254, 3.064], 1096.0, 4.8e-6, 1e-4),
        make_model(1, (CONSTANT,), [0.12], 1667.0, 1e-6, 1e-4),
        make_model(2, (CONSTANT,), [0.15], 6584.0, 1e-7, 1e-4),
    ]
    return [(floored, 0.3), (falling_log, 0.6), (overshoot, 1.0)]


@pytest.mark.parametrize(
    "models, share", refusal_cases(), ids=["time-floor", "slope", "out-of-box"]
)
def test_refusals_answer_exactly_as_the_ipm_path(models, share):
    q = share * sum(m.x_max for m in models)
    refused = []

    def spy(*args):
        out = _certify(*args)
        refused.append(out is None)
        return out

    with mock.patch.object(partition, "_certify", spy):
        chain = solve_block_partition(models, q)
    assert refused == [True]
    with mock.patch.object(partition, "_certify", lambda *args: None):
        without = solve_block_partition(models, q)
    fields = ("units", "predicted_time", "method", "converged", "iterations",
              "kkt_error", "device_ids")
    assert [canon(getattr(chain, f)) for f in fields] == [
        canon(getattr(without, f)) for f in fields
    ]
