"""Property-based tests: the chain and waterfilling agree on random
instances, and the interior-point solver converges on monotone ones."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.modeling.basis import CONSTANT, CUBE, EXP, LINEAR, SQRT, X_EXP
from repro.modeling.perf_profile import PerfProfile
from repro.solver import solve_block_partition, waterfill_partition
from tests.solver.test_certificate import (
    TOL, free_set, increasing_models, ipm_on_free_set, quantum,
)
from tests.solver.test_solve_identity import make_model


def affine_models(slopes, intercepts):
    out = []
    for i, (s, b) in enumerate(zip(slopes, intercepts)):
        prof = PerfProfile(f"d{i}")
        for u in (10, 50, 250, 1000, 4000):
            prof.add(u, b + s * u, 1e-7 * u)
        out.append(prof.fit())
    return out


slopes_st = st.lists(st.floats(1e-5, 1e-2), min_size=2, max_size=6)


class TestPartitionProperties:
    @given(slopes_st, st.floats(500.0, 20_000.0))
    @settings(max_examples=25, deadline=None)
    def test_conservation(self, slopes, quantum):
        models = affine_models(slopes, [0.01] * len(slopes))
        result = solve_block_partition(models, quantum)
        assert result.units.sum() == pytest.approx(quantum, rel=1e-6)
        assert np.all(result.units >= -1e-9)

    @given(slopes_st, st.floats(1000.0, 20_000.0))
    @settings(max_examples=25, deadline=None)
    def test_ipm_agrees_with_waterfilling(self, slopes, quantum):
        from repro.solver.partition import _trust_caps

        models = affine_models(slopes, [0.01] * len(slopes))
        chain = solve_block_partition(models, quantum)
        caps = _trust_caps(models, quantum)
        wf_units, _ = waterfill_partition(models, quantum, caps=caps)
        # both compute the capped equal-time split; allow a few percent slack
        assert np.allclose(chain.units, wf_units, rtol=0.05, atol=quantum * 0.01)

    @given(slopes_st)
    @settings(max_examples=25, deadline=None)
    def test_faster_never_gets_less(self, slopes):
        models = affine_models(slopes, [0.01] * len(slopes))
        result = solve_block_partition(models, 8000.0)
        order = np.argsort(slopes)  # ascending slope = descending speed
        units = result.units[order]
        # monotone non-increasing assignment with small numeric slack
        for a, b in zip(units, units[1:]):
            assert b <= a * 1.05 + 1.0

    @given(
        slopes_st,
        st.floats(0.0, 0.02),
        st.integers(0, 100),
    )
    @settings(max_examples=20, deadline=None)
    def test_noise_robustness(self, slopes, sigma, seed):
        rng = np.random.default_rng(seed)
        models = []
        for i, s in enumerate(slopes):
            prof = PerfProfile(f"d{i}")
            for u in (10, 50, 250, 1000, 4000):
                noise = float(np.exp(rng.normal(0, sigma)))
                prof.add(u, (0.01 + s * u) * noise, 1e-7 * u)
            models.append(prof.fit())
        result = solve_block_partition(models, 8000.0)
        assert result.units.sum() == pytest.approx(8000.0, rel=1e-6)
        assert np.all(np.isfinite(result.units))


# ----------------------------------------------------------------------
# the interior-point solver on the free sets the chain hands it
# ----------------------------------------------------------------------
#: A free device below this share of the free quantum is where the
#: interior-point solver is known to stall (about 3 % of such random
#: monotone draws; none of 863 draws above it did).
SMALL_SHARE = 0.02

#: Every free device takes less than 0.1 % of the quantum but one.
TINY_SHARE_MODELS = [
    make_model(0, (CONSTANT, X_EXP, LINEAR), [0.00562, 0.387, 0.672], 46190.0, 9.4e-6, 1e-4),
    make_model(1, (CONSTANT, SQRT, EXP, CUBE), [0.00158, 0.0325, 0.621, 0.191], 20.68, 4.7e-6, 1e-4),
    make_model(2, (CONSTANT, EXP), [0.00124, 0.669], 66.42, 1.1e-7, 1e-4),
]


def min_free_share(models, q):
    """The smallest share of the free quantum the waterfill gives a free
    device."""
    free, q_free, caps = free_set(models, q)
    units, _ = waterfill_partition(models, q, caps=caps)
    return float(units[free].min()) / q_free


# iterates far from the answer overflow the exp terms; the solver copes
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(models=increasing_models(), share=st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_ipm_converges_on_monotone_profiles(models, share):
    q = quantum(models, share)
    free, _, _ = free_set(models, q)
    assume(len(free) >= 2)
    result, nlp = ipm_on_free_set(models, q)
    converged = result is not None and result.converged
    if not converged and min_free_share(models, q) < SMALL_SHARE:
        return  # the known stall, pinned by test_ipm_stalls_on_a_tiny_share
    assert converged
    x = result.x
    assert np.all(x >= nlp.lower) and np.all(x <= nlp.upper)
    assert abs(x[: len(free)].sum() - 1.0) <= TOL
    assert result.kkt_error <= TOL


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.xfail(strict=True, reason="the IPM stalls when a free device's share is tiny")
def test_ipm_stalls_on_a_tiny_share():
    result, _ = ipm_on_free_set(TINY_SHARE_MODELS, quantum(TINY_SHARE_MODELS, 1.21))
    assert result is not None and result.converged


def test_chain_certifies_where_the_ipm_stalls():
    q = quantum(TINY_SHARE_MODELS, 1.21)
    assert min_free_share(TINY_SHARE_MODELS, q) < SMALL_SHARE
    result = solve_block_partition(TINY_SHARE_MODELS, q)
    assert result.method == "certified"
    assert result.kkt_error <= TOL
