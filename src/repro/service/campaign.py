"""Chaos against the living cluster: the service-episode campaign kind.

:func:`repro.resilience.campaign.run_campaign` runs a
:class:`ServeChaosConfig` through the same two phases as a batch
campaign, with service episodes in place of batch runs: every
(policy, seed) slot plays its arrival trace fault-free, then again
under a seeded fault schedule scaled to the arrival horizon, while the
cluster keeps admitting, shedding and completing jobs.  The baseline
episode's goodput anchors the chaos episode's degradation.

Each surviving run must hold the service invariants — every submitted
job in exactly one terminal state, shedding only under pressure, no
block completing on a downed device — which the scorecard carries in
``invariant_errors``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.experiments.parallel import PointSpec
from repro.obs.artifact import to_data
from repro.resilience.campaign import Slot, mean
from repro.service.arrivals import ArrivalSpec
from repro.service.balancer import BALANCER_FLAVORS
from repro.service.scorecard import validate_scorecard
from repro.service.server import ServiceConfig

__all__ = ["ServeChaosConfig"]


@dataclass(frozen=True)
class ServeChaosConfig:
    """One serve chaos campaign: a seeded grid of faulted episodes.

    ``runs`` episodes are dealt round-robin over ``policies`` with
    per-run derived seeds, exactly like the batch campaign, so two
    campaigns with equal configs are identical.
    """

    policies: tuple[str, ...] = ("plb-hec", "greedy", "fair")
    runs: int = 6
    seed: int = 0
    rate: float = 3.0
    duration: float = 12.0
    machines: int = 2
    queue_limit: int = 8
    shed_policy: str = "drop-oldest"
    max_active: int = 4
    deadline_factor: float = 30.0
    retry_budget: int = 4
    max_faults: int = 2

    #: run ``i`` draws its fault schedule from stream
    #: ``serve-chaos/run{i}``
    stream = "serve-chaos"

    def __post_init__(self) -> None:
        if not self.policies:
            raise ConfigurationError("serve campaign needs policies")
        for policy in self.policies:
            if policy not in BALANCER_FLAVORS:
                raise ConfigurationError(
                    f"unknown balancer flavor {policy!r}; "
                    f"choose from {BALANCER_FLAVORS}"
                )
        if self.runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {self.runs}")

    def to_dict(self) -> dict:
        return to_data(self)

    def service_config(self, policy: str, faults: tuple = ()) -> ServiceConfig:
        """The episode config one campaign slot runs."""
        return ServiceConfig(
            arrivals=ArrivalSpec(rate=self.rate, duration=self.duration),
            machines=self.machines,
            policy=policy,
            queue_limit=self.queue_limit,
            shed_policy=self.shed_policy,
            max_active=self.max_active,
            deadline_factor=self.deadline_factor,
            retry_budget=self.retry_budget,
            faults=faults,
        )

    def point(self, slot: Slot, faults: tuple) -> PointSpec:
        """The service episode one slot plays under ``faults``."""
        service = self.service_config(slot.policy, faults)
        return PointSpec(
            app_name="serve",
            size=0,
            num_machines=self.machines,
            policies=(slot.policy,),
            replications=1,
            seed=slot.seed,
            noise_sigma=0.0,
            tolerate_errors=bool(faults),
            service_json=service.to_sweep_json(),
        )

    def horizon(self, baseline: dict) -> float:
        """Faults land within the arrival horizon of every episode."""
        return self.duration

    def score(
        self, slot: Slot, baseline: dict, payload: dict, survived: bool
    ) -> dict:
        """The service columns of one run's record."""
        card = payload.get("serve")
        violations: list[str] = []
        if survived:
            violations += validate_scorecard(card)
            violations += list(card.get("invariant_errors", ()))
        base_card = baseline.get("serve") or {}
        base_goodput = (base_card.get("goodput") or {}).get("jobs_per_s")
        goodput = (
            (card.get("goodput") or {}).get("jobs_per_s") if card else None
        )
        goodput_ratio = None
        if base_goodput and goodput is not None:
            goodput_ratio = goodput / base_goodput
        card = card or {}
        jobs_row = card.get("jobs", {})
        return {
            "violations": violations,
            "baseline_goodput": base_goodput,
            "goodput": goodput,
            "goodput_ratio": goodput_ratio,
            "completed": jobs_row.get("completed"),
            "shed": jobs_row.get("shed"),
            "timeout": jobs_row.get("timeout"),
            "failed": jobs_row.get("failed"),
            "breaker_opens": sum(
                b["opens"] for b in card.get("breakers", {}).values()
            ),
            "fallback_counts": (
                (card.get("balancer") or {}).get("fallback_counts")
            ),
        }

    def policy_columns(self, rows: list[dict], survived: list[dict]) -> dict:
        """The service aggregates over one policy's run records."""
        ratios = [
            r["goodput_ratio"]
            for r in survived
            if r["goodput_ratio"] is not None
        ]
        return {
            "mean_goodput_ratio": mean(ratios),
            "shed": sum(r["shed"] or 0 for r in survived),
            "timeout": sum(r["timeout"] or 0 for r in survived),
            "failed": sum(r["failed"] or 0 for r in survived),
            "breaker_opens": sum(r["breaker_opens"] for r in survived),
        }
