"""Black-Scholes option pricing (paper Sec. IV.A).

"Black-Scholes ... is based on a stochastic differential equation that
describes how ... the value of an option changes as the price of the
underlying asset changes.  It includes a random walk term ...  The
input is a vector of data, from which options should be calculated.
The division of the task consists in giving a range of the input vector
to each thread."  One unit = one option; complexity O(n) in the option
count.

The real kernel discretises the random walk as a Cox-Ross-Rubinstein
binomial lattice (``lattice_steps`` time steps, ~2*steps^2 FLOPs per
option) and prices European calls by backward induction;
:meth:`verify` checks the lattice prices against the closed-form
Black-Scholes solution, to which CRR converges at O(1/steps).  The
per-option work is constant, so the cost model is linear in the option
count — the regime where the paper observes the smallest (but still
positive) PLB-HeC gains.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Application
from repro.cluster.perfmodel import KernelCharacteristics
from repro.errors import WorkloadError
from repro.util.validation import check_positive_int

__all__ = ["BlackScholes"]

#: FLOPs per lattice node visited during backward induction.
_FLOPS_PER_NODE = 4.0


class BlackScholes(Application):
    """Binomial-lattice European call pricing over a vector of options.

    Parameters
    ----------
    num_options:
        Domain size (the paper sweeps 10,000..500,000).
    lattice_steps:
        Time steps of the binomial discretisation (work per option is
        quadratic in this; 4000 matches the paper's seconds-scale
        runtimes, examples use fewer for fast real execution).
    seed:
        Seed for the synthetic option parameters.
    """

    name = "blackscholes"

    def __init__(
        self, num_options: int, *, lattice_steps: int = 4000, seed: int = 0
    ) -> None:
        check_positive_int("num_options", num_options)
        check_positive_int("lattice_steps", lattice_steps, minimum=2)
        self.num_options = int(num_options)
        self.lattice_steps = int(lattice_steps)
        self.seed = int(seed)
        self._params: dict[str, np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def total_units(self) -> int:
        """One unit per option."""
        return self.num_options

    def kernel_characteristics(self) -> KernelCharacteristics:
        nodes = self.lattice_steps * (self.lattice_steps + 1) / 2.0
        return KernelCharacteristics(
            name=self.name,
            flops_per_unit=_FLOPS_PER_NODE * nodes,
            bytes_in_per_unit=5 * 4.0,  # S, K, T, r, sigma (float32)
            bytes_out_per_unit=4.0,
            cpu_efficiency=0.9,
            gpu_efficiency=0.8,  # exp-heavy, SFU bound
            gpu_half_units=6000.0,  # long independent threads fill cores
            cpu_half_units=200.0,
            cpu_cache_gamma=0.0,  # streaming kernel
            gpu_half_scaling="cores",
        )

    def default_initial_block_size(self) -> int:
        """~1/512 of the option vector.

        Options are cheap units: a probe must be small enough that the
        slowest CPU finishes the unscaled first round in a fraction of
        the expected runtime.
        """
        return max(self.num_options // 512, 1)

    # ------------------------------------------------------------------
    # real kernels
    # ------------------------------------------------------------------
    def _ensure_params(self) -> None:
        if self._params is not None:
            return
        rng = np.random.default_rng(self.seed)
        n = self.num_options
        self._params = {
            "spot": rng.uniform(20.0, 120.0, n),
            "strike": rng.uniform(20.0, 120.0, n),
            "maturity": rng.uniform(0.25, 2.0, n),
            "rate": np.full(n, 0.03),
            "vol": rng.uniform(0.1, 0.5, n),
        }

    def cpu_kernel(self, start: int, count: int) -> np.ndarray:
        """CRR lattice price for options ``[start, start+count)``."""
        self._ensure_params()
        assert self._params is not None
        if not (0 <= start and start + count <= self.num_options):
            raise WorkloadError(f"block [{start}, {start + count}) out of range")
        p = {k: v[start : start + count] for k, v in self._params.items()}
        m = self.lattice_steps
        dt = p["maturity"] / m
        up = np.exp(p["vol"] * np.sqrt(dt))  # (count,)
        down = 1.0 / up
        growth = np.exp(p["rate"] * dt)
        q = (growth - down) / (up - down)  # risk-neutral up-probability
        discount = 1.0 / growth

        # terminal layer: S * up^j * down^(m-j) for j = 0..m
        j = np.arange(m + 1)[None, :]  # (1, m+1)
        terminal = (
            p["spot"][:, None]
            * up[:, None] ** j
            * down[:, None] ** (m - j)
        )
        values = np.maximum(terminal - p["strike"][:, None], 0.0)
        # backward induction
        qc = q[:, None]
        dc = discount[:, None]
        for _ in range(m):
            values = dc * (qc * values[:, 1:] + (1.0 - qc) * values[:, :-1])
        return values[:, 0]

    def closed_form(self, start: int, count: int) -> np.ndarray:
        """Reference: analytic Black-Scholes European call price."""
        # lazy: only verify reaches it, and SciPy costs every process
        # that imports repro ~0.35 s at start-up
        from scipy.special import ndtr

        self._ensure_params()
        assert self._params is not None
        p = {k: v[start : start + count] for k, v in self._params.items()}
        sqrt_t = np.sqrt(p["maturity"])
        d1 = (
            np.log(p["spot"] / p["strike"])
            + (p["rate"] + 0.5 * p["vol"] ** 2) * p["maturity"]
        ) / (p["vol"] * sqrt_t)
        d2 = d1 - p["vol"] * sqrt_t
        discount = np.exp(-p["rate"] * p["maturity"])
        return p["spot"] * ndtr(d1) - p["strike"] * discount * ndtr(d2)

    def verify(self, results: list[tuple[int, int, object]]) -> bool:
        """Lattice prices must converge to the closed form, O(1/steps)."""
        if not self.coverage_ok(results, self.num_options):
            return False
        lattice = np.empty(self.num_options)
        for start, count, value in results:
            arr = np.asarray(value, dtype=float)
            if arr.shape != (count,):
                return False
            lattice[start : start + count] = arr
        exact = self.closed_form(0, self.num_options)
        # CRR oscillates around the true price within ~spot/steps
        tolerance = np.maximum(120.0 / self.lattice_steps, 0.01 * exact + 0.01)
        return bool(np.all(np.abs(lattice - exact) < tolerance))
