"""Continuous balancers: PLB-HeC's cycle re-hosted on a serving loop.

Batch PLB-HeC probes, fits, solves and rebalances *within* one
application run.  The service version runs the same
collect→calculate→rebalance cycle forever: completed blocks feed
per-(device, template) performance profiles, every cycle re-fits the
dominant template's models and re-solves the block partition, and the
resulting device fractions shape block sizes until the next cycle.

The solve step keeps the batch fallback chain, re-entered as often as
the service needs it: solver failure falls back to the last good
fractions, then to an analytic split proportional to measured rates,
then to a uniform fair share.  ``solver_hook`` lets tests force
failures to exercise the chain without touching solver internals.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.modeling.perf_profile import PerfProfile
from repro.service.jobs import Job
from repro.solver.partition import solve_block_partition
from repro.util.stats import left_sum

__all__ = ["ContinuousBalancer", "BALANCER_FLAVORS", "FALLBACK_STAGES"]

BALANCER_FLAVORS = ("plb-hec", "fair", "greedy")

#: fallback-chain stage names, in escalation order ("solve" = no fallback)
FALLBACK_STAGES = ("solve", "last-good", "analytic", "fair-share")

#: EWMA weight of the newest per-device rate observation
_RATE_ALPHA = 0.3


class ContinuousBalancer:
    """Allocates the cluster across active jobs, one cycle at a time.

    Parameters
    ----------
    device_ids:
        The cluster's devices, in dispatch order.
    templates:
        Number of app templates in the arrival spec.
    flavor:
        ``plb-hec`` (profile + solver + fallback chain), ``greedy``
        (analytic rate-proportional fractions, no solver) or ``fair``
        (uniform fractions, no measurement).
    solver_hook:
        Test seam: replaces the fit+solve step.  Called with
        ``(models, backlog_units)``; must return device fractions or
        raise :class:`~repro.errors.ReproError` to trigger the chain.
    """

    def __init__(
        self,
        device_ids: Sequence[str],
        *,
        templates: int = 1,
        flavor: str = "plb-hec",
        solver_hook: Callable[[dict, float], Mapping[str, float]] | None = None,
    ) -> None:
        if not device_ids:
            raise ConfigurationError("balancer needs at least one device")
        if flavor not in BALANCER_FLAVORS:
            raise ConfigurationError(
                f"flavor must be one of {BALANCER_FLAVORS}, got {flavor!r}"
            )
        self.device_ids = tuple(device_ids)
        self.flavor = flavor
        self.solver_hook = solver_hook
        n = len(self.device_ids)
        self.fractions: dict[str, float] = {d: 1.0 / n for d in self.device_ids}
        self._last_good: dict[str, float] | None = None
        #: EWMA units/sec per (device, template); None until measured
        self._rate: dict[tuple[str, int], float] = {}
        self._profiles: dict[tuple[str, int], PerfProfile] = {
            (d, t): PerfProfile(d)
            for d in self.device_ids
            for t in range(max(templates, 1))
        }
        self._template_backlog: dict[int, float] = {}
        self.rebalances = 0
        self.fallback_counts: dict[str, int] = {s: 0 for s in FALLBACK_STAGES}
        #: per-tenant cumulative served units (drives weighted fairness)
        self.tenant_served: dict[int, int] = {}

    # ---- collect ------------------------------------------------------

    def record(
        self,
        device_id: str,
        template: int,
        tenant: int,
        units: int,
        exec_s: float,
        transfer_s: float,
    ) -> None:
        """Feed one completed block into the profiles and rate EWMAs."""
        total = exec_s + transfer_s
        if total > 0.0 and units > 0:
            rate = units / total
            key = (device_id, template)
            prev = self._rate.get(key)
            self._rate[key] = (
                rate
                if prev is None
                else _RATE_ALPHA * rate + (1.0 - _RATE_ALPHA) * prev
            )
            profile = self._profiles.get(key)
            if profile is not None:
                profile.add(float(units), exec_s, transfer_s)
        self.tenant_served[tenant] = self.tenant_served.get(tenant, 0) + units

    # ---- calculate + rebalance ---------------------------------------

    def rebalance(self, now: float, backlog: Mapping[int, int]) -> str:
        """Run one cycle; returns the stage that produced the fractions.

        ``backlog`` maps template -> outstanding units of active jobs.
        """
        self.rebalances += 1
        self._template_backlog = dict(backlog)
        total_backlog = float(sum(backlog.values()))
        if self.flavor == "fair" or total_backlog <= 0.0:
            self._set_uniform()
            stage = "fair-share"
        elif self.flavor == "greedy":
            stage = self._analytic(backlog) or "fair-share"
        else:
            stage = self._plb_hec_cycle(backlog, total_backlog)
        self.fallback_counts[stage] += 1
        return stage

    def _plb_hec_cycle(self, backlog: Mapping[int, int], total: float) -> str:
        dominant = max(backlog, key=lambda t: (backlog[t], -t))
        try:
            fractions = self._solve(dominant, total)
        except ReproError:
            fractions = None
        if fractions is not None:
            self.fractions = dict(fractions)
            # copy, so later fallback entries can never alias into it
            self._last_good = dict(fractions)
            return "solve"
        if self._last_good is not None:
            self.fractions = dict(self._last_good)
            return "last-good"
        analytic = self._analytic(backlog)
        if analytic is not None:
            return analytic
        self._set_uniform()
        return "fair-share"

    def _solve(self, template: int, total: float) -> dict[str, float]:
        """Fit every device's model and solve the partition."""
        models = {}
        for d in self.device_ids:
            profile = self._profiles[(d, template)]
            models[d] = profile.fit()  # FitError (< 2 points) escalates
        if self.solver_hook is not None:
            raw = self.solver_hook(models, total)
            return {d: float(raw[d]) for d in self.device_ids}
        result = solve_block_partition(models, total)
        return dict(result.fractions)

    def _analytic(self, backlog: Mapping[int, int]) -> str | None:
        """Rate-proportional fractions from the EWMAs; None if unmeasured."""
        weights = {}
        for d in self.device_ids:
            rate = 0.0
            for t, units in backlog.items():
                r = self._rate.get((d, t))
                if r is not None and units > 0:
                    rate += r * units
            weights[d] = rate
        total = left_sum(weights.values())
        if total <= 0.0:
            return None
        self.fractions = {d: weights[d] / total for d in self.device_ids}
        return "analytic"

    def _set_uniform(self) -> None:
        n = len(self.device_ids)
        self.fractions = {d: 1.0 / n for d in self.device_ids}

    # ---- dispatch-side queries ---------------------------------------

    def pick_job(self, active: Sequence[Job]) -> Job | None:
        """Which active job the next free device should serve.

        Weighted fair: the tenant with the least cumulative served units
        goes first; within a tenant, higher priority, then earlier
        arrival.  Pure function of recorded state — deterministic.
        """
        runnable = [j for j in active if j.remaining > 0]
        if not runnable:
            return None
        return min(
            runnable,
            key=lambda j: (
                self.tenant_served.get(j.tenant, 0),
                -j.priority,
                j.arrival,
                j.job_id,
            ),
        )

    def block_units(
        self,
        device_id: str,
        template: int,
        remaining: int,
        quantum: float,
        default_units: int,
    ) -> int:
        """Block size for one dispatch, shaped by the current fractions.

        ``quantum`` is the target per-block service time; the measured
        rate converts it to units, scaled by the device's solver
        fraction relative to fair share (favoured devices take bigger
        bites).  Unmeasured devices fall back to ``default_units`` —
        the probe-sized first block that seeds their profile.
        """
        rate = self._rate.get((device_id, template))
        if rate is None:
            units = default_units
        else:
            share = self.fractions.get(device_id, 0.0) * len(self.device_ids)
            units = int(round(rate * quantum * max(share, 0.1)))
        return max(1, min(units, remaining))

    def to_dict(self) -> dict:
        return {
            "flavor": self.flavor,
            "rebalances": int(self.rebalances),
            "fallback_counts": {
                s: int(self.fallback_counts[s]) for s in FALLBACK_STAGES
            },
            "fractions": {
                d: float(self.fractions[d]) for d in self.device_ids
            },
        }
