"""The chaos campaign runner, for batch runs and service episodes.

One campaign = a seeded grid of randomized fault schedules dealt
round-robin over a config's policies, executed through the parallel
sweep engine in two phases:

1. **Baselines** — every slot runs fault-free.  The baselines anchor
   the degradation scores and bound each slot's fault-schedule horizon.
2. **Chaos** — the same slots re-execute under their generated fault
   schedules with ``tolerate_errors`` on: a
   :class:`~repro.errors.ReproError` is scored as a lost run, not a
   campaign abort (any other exception is a bug and propagates).

The episode kind is configuration, not a second runner: a batch run is
one arrival at t=0.  :class:`ChaosConfig` runs batch applications,
checked against the work-conservation and fault-isolation invariants of
:mod:`repro.resilience.invariants`;
:class:`repro.service.campaign.ServeChaosConfig` runs service episodes,
checked against the service invariants.  A config supplies its slot's
:class:`PointSpec` (``point``), its schedule horizon (``horizon``), its
per-run record (``score``) and its own per-policy columns
(``policy_columns``); :func:`run_campaign` deals the slots, draws the
schedules and builds the shared columns of the JSON-serialisable
*scorecard*.  The whole campaign is a pure function of its config —
rerunning with the same seed reproduces it bit-identically, and the
sweep cache applies to baseline and chaos runs alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.errors import ConfigurationError
from repro.experiments.parallel import PointSpec, SweepStats, run_sweep
from repro.obs.artifact import BOOL, COUNT, OBJECT, map_of, to_data
from repro.obs.events import EventLog
from repro.obs.ledger import ledger_summary
from repro.obs.metrics import get_registry
from repro.resilience.faults import fault_to_dict, generate_schedule
from repro.resilience.invariants import check_makespan
from repro.sim.random import RandomStreams
from repro.util.logging import get_logger

if TYPE_CHECKING:
    from repro.service.campaign import ServeChaosConfig

__all__ = ["SCORECARD_SPEC", "ChaosConfig", "Slot", "mean", "run_campaign"]

_log = get_logger("resilience.campaign")
_events = EventLog("resilience.campaign")

#: The scorecard fields every campaign, batch or serve, carries and
#: ``repro dashboard --scorecard`` reads.
SCORECARD_SPEC = {
    "total_runs": COUNT,
    "survived_runs": COUNT,
    "total_violations": COUNT,
    "all_invariants_ok": BOOL,
    "policies": map_of(OBJECT),
}

#: chaos runs pin the scheduler-overhead charge so campaigns are
#: bit-reproducible (measured host time would jitter the makespans)
_FIXED_OVERHEAD_S = 0.002


class Slot(NamedTuple):
    """One campaign slot: its index, policy and derived seed."""

    index: int
    policy: str
    seed: int


def mean(values: list) -> float | None:
    """The arithmetic mean of ``values``, or None when there are none."""
    return sum(values) / len(values) if values else None


@dataclass(frozen=True)
class ChaosConfig:
    """What one batch chaos campaign runs.

    ``runs`` fault schedules are dealt round-robin over the
    scenario × policy grid: run ``i`` uses application
    ``apps[i % len(apps)]``, policy ``policies[i % len(policies)]`` and
    a per-run seed derived from ``seed``, so any two campaigns with the
    same config are identical.
    """

    apps: tuple[str, ...] = ("matmul",)
    sizes: tuple[int, ...] = (2048,)
    machines: int = 2
    policies: tuple[str, ...] = ("plb-hec", "greedy", "hdss", "gss")
    runs: int = 16
    seed: int = 0
    noise_sigma: float = 0.005
    max_faults: int = 2
    anomaly_tolerance: float = 0.25

    #: run ``i`` draws its fault schedule from stream ``chaos/run{i}``
    stream = "chaos"

    def __post_init__(self) -> None:
        if not self.apps or not self.sizes or not self.policies:
            raise ConfigurationError(
                "chaos campaign needs apps, sizes and policies"
            )
        if len(self.apps) != len(self.sizes):
            raise ConfigurationError(
                f"apps ({len(self.apps)}) and sizes ({len(self.sizes)}) "
                "must pair up"
            )
        if self.runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {self.runs}")
        if self.machines < 1:
            raise ConfigurationError(
                f"machines must be >= 1, got {self.machines}"
            )

    def to_dict(self) -> dict:
        return to_data(self)

    def _scenario(self, slot: Slot) -> tuple[str, int]:
        return (
            self.apps[slot.index % len(self.apps)],
            self.sizes[slot.index % len(self.sizes)],
        )

    def point(self, slot: Slot, faults: tuple) -> PointSpec:
        """The batch run one slot executes under ``faults``."""
        app, size = self._scenario(slot)
        return PointSpec(
            app_name=app,
            size=size,
            num_machines=self.machines,
            policies=(slot.policy,),
            replications=1,
            # PointSpec.expand derives run_seed = seed * 1000; distinct
            # per-slot seeds keep every campaign slot on its own noise
            # stream
            seed=slot.seed,
            noise_sigma=self.noise_sigma,
            fixed_overhead_s=_FIXED_OVERHEAD_S,
            faults=faults,
            tolerate_errors=bool(faults),
            # auto-interval telemetry: deterministic (ground-truth
            # derived), so the scorecard's SLO column stays
            # bit-identical per config
            sample_interval=0.0,
        )

    def horizon(self, baseline: dict) -> float:
        """Fault times are fractions of the fault-free makespan, so
        schedules stay meaningful across applications and sizes."""
        return baseline["makespan"]

    def score(
        self, slot: Slot, baseline: dict, payload: dict, survived: bool
    ) -> dict:
        """The batch columns of one run's record."""
        app, size = self._scenario(slot)
        base = baseline["makespan"]
        makespan = payload.get("makespan")
        resilience = payload.get("resilience") or {}
        violations = list(resilience.get("violations", []))
        if survived:
            violations += [
                {"name": v.name, "message": v.message}
                for v in check_makespan(
                    makespan,
                    base,
                    anomaly_tolerance=self.anomaly_tolerance,
                )
            ]
        # per-stage counts, so policies aggregate
        ledger = ledger_summary(payload.get("ledger") or {})
        # SLO health of the (sampled) chaos run: deterministic series →
        # deterministic verdicts, so this column is reproducible too
        slo_violations = 0
        series = payload.get("series")
        if series:
            from repro.obs.slo import DEFAULT_SLO_SPEC, evaluate_slo
            from repro.obs.timeseries import store_from_payload

            slo_report = evaluate_slo(
                DEFAULT_SLO_SPEC, store_from_payload(series["store"])
            )
            slo_violations = int(slo_report["violations"])
        # makespan attribution of the chaos run: where the degradation
        # actually went (fault recovery? rework? idle?), per category
        critpath = payload.get("critpath") or {}
        attribution = {}
        if critpath:
            from repro.obs.critpath import category_shares

            attribution = category_shares(critpath)
        return {
            "app": app,
            "size": size,
            "baseline_makespan": base,
            "makespan": makespan,
            "degradation": (
                makespan / base if survived and base > 0 else None
            ),
            "violations": violations,
            "recovery_lags": list(resilience.get("recovery_lags", [])),
            "lost_units": resilience.get("lost_units", 0),
            "retries": resilience.get("retries", 0),
            "decisions": ledger["decisions"],
            "fallback_stages": ledger["fallback_stages"],
            "slo_violations": slo_violations,
            "attribution": attribution,
        }

    def policy_columns(self, rows: list[dict], survived: list[dict]) -> dict:
        """The batch aggregates over one policy's run records."""
        degradations = [
            r["degradation"] for r in survived if r["degradation"] is not None
        ]
        lags = [lag for r in rows for lag in r["recovery_lags"]]
        fallback_stages: dict[str, int] = {}
        for r in rows:
            for stage, count in r.get("fallback_stages", {}).items():
                fallback_stages[stage] = fallback_stages.get(stage, 0) + count
        # mean makespan-attribution shares over the surviving runs, so
        # the scorecard says *where* each policy's time went under chaos
        attributed = [r["attribution"] for r in survived if r["attribution"]]
        mean_attribution = {
            category: mean([a.get(category, 0.0) for a in attributed])
            for category in (sorted(attributed[0]) if attributed else ())
        }
        return {
            "mean_degradation": mean(degradations),
            "max_degradation": max(degradations) if degradations else None,
            "mean_recovery_lag": mean(lags),
            "decisions_explained": sum(r.get("decisions", 0) for r in rows),
            "fallback_stages_used": dict(sorted(fallback_stages.items())),
            "slo_violations": sum(r.get("slo_violations", 0) for r in rows),
            "mean_attribution": mean_attribution,
        }


def run_campaign(
    config: ChaosConfig | ServeChaosConfig, *, jobs: int | None = None
) -> dict:
    """Execute one chaos campaign and return its scorecard.

    ``config`` is a :class:`ChaosConfig` (batch runs) or a
    :class:`~repro.service.campaign.ServeChaosConfig` (service
    episodes); the fault targets are the devices of its cluster at
    ``config.machines``.
    """
    from repro.cluster import paper_cluster

    policies = config.policies
    slots = [
        Slot(i, policies[i % len(policies)], config.seed * 1000 + i)
        for i in range(config.runs)
    ]

    # ---- phase 1: fault-free baselines -------------------------------
    # A barrier is required: a batch schedule is scaled by its run's
    # baseline makespan, so generation cannot start earlier.
    baseline_stats = SweepStats()
    run_sweep(
        [config.point(slot, ()) for slot in slots],
        jobs=jobs,
        stats=baseline_stats,
    )
    baselines = baseline_stats.payloads

    # ---- generate the fault schedules --------------------------------
    device_ids = tuple(
        d.device_id for d in paper_cluster(config.machines).devices()
    )
    streams = RandomStreams(config.seed)
    schedules = [
        generate_schedule(
            streams.stream(f"{config.stream}/run{slot.index}"),
            device_ids,
            config.horizon(baseline),
            max_faults=config.max_faults,
        )
        for slot, baseline in zip(slots, baselines)
    ]

    # ---- phase 2: the chaos runs -------------------------------------
    chaos_stats = SweepStats()
    run_sweep(
        [config.point(s, f) for s, f in zip(slots, schedules)],
        jobs=jobs,
        stats=chaos_stats,
    )

    # ---- score -------------------------------------------------------
    run_records: list[dict] = []
    for slot, faults, baseline, payload in zip(
        slots, schedules, baselines, chaos_stats.payloads
    ):
        error = payload.get("error")
        survived = error is None and payload.get("makespan") is not None
        run_records.append(
            {
                "run": slot.index,
                "policy": slot.policy,
                "seed": slot.seed,
                "faults": [fault_to_dict(f) for f in faults],
                "survived": survived,
                "error": error,
                **config.score(slot, baseline, payload, survived),
            }
        )

    per_policy: dict[str, dict] = {}
    for policy in policies:
        rows = [r for r in run_records if r["policy"] == policy]
        if not rows:
            continue
        survived_rows = [r for r in rows if r["survived"]]
        per_policy[policy] = {
            "runs": len(rows),
            "survived": len(survived_rows),
            "survival_rate": len(survived_rows) / len(rows),
            "violations": sum(len(r["violations"]) for r in rows),
            **config.policy_columns(rows, survived_rows),
        }

    total_violations = sum(len(r["violations"]) for r in run_records)
    survivors = sum(1 for r in run_records if r["survived"])
    scorecard = {
        "config": config.to_dict(),
        "runs": run_records,
        "policies": per_policy,
        "total_runs": len(run_records),
        "survived_runs": survivors,
        "total_violations": total_violations,
        "all_invariants_ok": total_violations == 0,
    }
    # cache-hit counts vary between cold and warm reruns, so they are
    # telemetry, not scorecard content — the scorecard must be
    # bit-identical for a given config
    _log.info(
        "chaos cache hits: baseline=%d chaos=%d",
        baseline_stats.cache_hits,
        chaos_stats.cache_hits,
    )
    registry = get_registry()
    registry.inc("chaos.campaigns")
    registry.inc("chaos.runs", len(run_records))
    registry.inc("chaos.violations", total_violations)
    registry.inc("chaos.survived", survivors)
    _events.instant(
        "chaos.complete",
        runs=len(run_records),
        survived=survivors,
        violations=total_violations,
    )
    _log.info(
        "chaos campaign complete: %d/%d runs survived, %d violation(s)",
        survivors,
        len(run_records),
        total_violations,
    )
    return scorecard
