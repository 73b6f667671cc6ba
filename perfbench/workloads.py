"""The benchmark's three workloads, built from a seed.

Every workload is a cycle of ops that the measuring loop runs back to
back (closed loop on the host).  The program under test only ever
receives configs generated here from the workload seed: ``PointSpec``
seeds for the batch grid, ``ServiceConfig`` seeds for service episodes.

* ``batch-paper``: the paper's Fig. 4 (MatMul, GRN) and Fig. 5
  (Black-Scholes) grid at a small and a large size, on 1-4 machines,
  under Greedy, Acosta, HDSS and PLB-HeC.  One op is one simulated run
  through ``run_sweep`` with the result cache off and the scheduler
  overhead charge pinned, so virtual time is deterministic.
* ``batch-replay``: the same grid replayed from a ``ResultCache`` that
  set-up fills; one op is one run served from the cache.
* ``serve-overload``: service episodes on 2 machines, past capacity,
  with a bounded ``priority-shed`` queue and deadlines.  One op is one
  episode; throughput counts its completed jobs.

Each workload checks its own outputs and keeps a digest of its
virtual-time results, which must be identical for every run of a seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import statistics
from dataclasses import replace
from pathlib import Path

import repro.experiments.parallel as parallel
from repro.experiments.runner import PAPER_POLICIES
from repro.experiments.wallclock import points_equal
from repro.service import ArrivalSpec, ClusterService, ServiceConfig
from repro.service.scorecard import validate_scorecard

__all__ = ["WORKLOADS", "make_workload"]

#: Fig. 4 / Fig. 5 applications at the paper's smallest and largest size.
GRID_APPS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("matmul", (4096, 65536)),
    ("grn", (60_000, 140_000)),
    ("blackscholes", (10_000, 500_000)),
)
GRID_MACHINES: tuple[int, ...] = (1, 2, 3, 4)

#: Pinned PLB-HeC scheduler-overhead charge (the value ``repro bench``
#: pins), so virtual time never depends on host speed.
FIXED_OVERHEAD_S = 0.018


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class OpResult:
    """What one op did: ops or jobs attempted and completed, and why it failed."""

    __slots__ = ("attempted", "completed", "failure")

    def __init__(self, attempted: int, completed: int, failure: str | None) -> None:
        self.attempted = attempted
        self.completed = completed
        self.failure = failure


class BatchWorkload:
    """The paper grid, simulated (``replay=False``) or replayed from a cache."""

    #: an op is one run: its host time is a latency sample, throughput
    #: counts ops, and a phase stops only after a whole pass of the grid
    per_op_latency = True

    def __init__(self, name: str, seed: int, out_dir: Path, *, replay: bool) -> None:
        self.name = name
        self.replay = replay
        # both batch workloads draw the same grid from a seed, so a replay
        # reproduces exactly the runs batch-paper simulates
        rng = random.Random(f"batch:{seed}")
        self.specs: list[parallel.PointSpec] = []
        for app, sizes in GRID_APPS:
            for size in sizes:
                for machines in GRID_MACHINES:
                    point_seed = rng.randrange(1, 1_000_000)
                    for policy in PAPER_POLICIES:
                        self.specs.append(
                            parallel.PointSpec(
                                app_name=app,
                                size=size,
                                num_machines=machines,
                                policies=(policy,),
                                replications=1,
                                seed=point_seed,
                                fixed_overhead_s=FIXED_OVERHEAD_S,
                            )
                        )
        self.cycle = len(self.specs)
        self.cache_dir = out_dir / f"cache-{name}-{seed}-{os.getpid()}"
        self.cache = parallel.ResultCache(self.cache_dir) if replay else None
        #: reference SweepPoint per op: the fresh run (replay) or the
        #: first pass (simulation); later passes must equal it bit for bit
        self.reference: list = [None] * self.cycle

    def setup(self) -> None:
        if self.replay:
            # populate the cache; these fresh results are what every
            # replay must reproduce exactly
            for i in range(self.cycle):
                self.reference[i] = self._sweep(i)[0]
        # one run per (app, policy) so every code path is warm
        smallest = {app: sizes[0] for app, sizes in GRID_APPS}
        for i, spec in enumerate(self.specs):
            if spec.num_machines == 2 and spec.size == smallest[spec.app_name]:
                self._sweep(i)

    def _sweep(self, i: int):
        stats = parallel.SweepStats()
        point = parallel.run_sweep(
            [self.specs[i]], jobs=1, cache=self.cache, stats=stats, profile=False
        )[0]
        return point, stats

    def op(self, index: int) -> OpResult:
        i = index % self.cycle
        try:
            point, stats = self._sweep(i)
        except Exception as exc:  # a raising run is a failed op, not a crash
            return OpResult(1, 0, f"{type(exc).__name__}: {exc}")
        failure = self._check(i, point, stats)
        return OpResult(1, 0 if failure else 1, failure)

    def _check(self, i: int, point, stats) -> str | None:
        spec = self.specs[i]
        if self.replay and stats.cache_hits != 1:
            return f"run {i} missed the result cache"
        outcome = point.outcomes[spec.policies[0]]
        makespan = outcome.makespans[0]
        if not (isinstance(makespan, float) and math.isfinite(makespan) and makespan > 0):
            return f"run {i}: makespan {makespan!r} is not finite and positive"
        critpath = stats.payloads[0].get("critpath")
        if critpath is None:
            return f"run {i}: payload carries no critpath"
        total = math.fsum(critpath["categories"].values())
        if abs(total - makespan) > 1e-9 * max(1.0, makespan):
            return f"run {i}: critpath categories sum to {total!r}, makespan {makespan!r}"
        if self.reference[i] is None:
            self.reference[i] = point
        elif not points_equal([point], [self.reference[i]]):
            kind = "replay" if self.replay else "repeat"
            return f"run {i}: {kind} differs from the first result"
        return None

    def summary(self) -> dict:
        """Virtual-time metrics and digest over one pass of the grid."""
        speedups = []
        plb_idle = []
        rows = []
        for i in range(0, self.cycle, len(PAPER_POLICIES)):
            by_policy = {
                self.specs[j].policies[0]: self.reference[j].outcomes[
                    self.specs[j].policies[0]
                ]
                for j in range(i, i + len(PAPER_POLICIES))
            }
            speedups.append(
                by_policy["greedy"].makespans[0] / by_policy["plb-hec"].makespans[0]
            )
            idle = by_policy["plb-hec"].idle_fractions[0]
            plb_idle.append(sum(idle.values()) / len(idle))
            spec = self.specs[i]
            for policy, out in by_policy.items():
                rows.append(
                    [spec.app_name, spec.size, spec.num_machines, policy,
                     out.makespans[0], out.idle_fractions[0],
                     out.distributions[0], out.overheads[0], out.rebalances[0]]
                )
        return {
            "vt_speedup_vs_greedy": math.exp(
                math.fsum(math.log(s) for s in speedups) / len(speedups)
            ),
            "vt_idle_frac": math.fsum(plb_idle) / len(plb_idle),
            "digest": _digest(rows),
        }

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class ServeWorkload:
    """A fixed set of seeded service episodes, played round robin."""

    #: an op is an episode: throughput counts its completed jobs
    per_op_latency = False

    def __init__(self, name: str, seed: int, config: ServiceConfig, episodes: int) -> None:
        self.name = name
        rng = random.Random(f"{name}:{seed}")
        self.configs = [
            replace(config, seed=rng.randrange(1, 1_000_000)) for _ in range(episodes)
        ]
        self.warm_config = replace(
            config,
            arrivals=replace(config.arrivals, duration=5.0),
            seed=rng.randrange(1, 1_000_000),
        )
        self.cycle = episodes
        #: first-occurrence (card digest, card, idle share) per episode
        self.reference: list = [None] * episodes

    def setup(self) -> None:
        ClusterService(self.warm_config).run()

    def op(self, index: int) -> OpResult:
        i = index % self.cycle
        try:
            service = ClusterService(self.configs[i])
            card = service.run()
        except Exception as exc:  # one broken episode fails, the run goes on
            return OpResult(1, 0, f"episode {i}: {type(exc).__name__}: {exc}")
        jobs = card["jobs"]
        problems = validate_scorecard(card) + list(card["invariant_errors"])
        if problems:
            return OpResult(jobs["submitted"], 0, f"episode {i}: {problems[0]}")
        digest = _digest(card)
        if self.reference[i] is None:
            busy = service.store.values("serve_device_busy")
            self.reference[i] = (digest, card, 1.0 - math.fsum(busy) / len(busy))
        elif digest != self.reference[i][0]:
            return OpResult(
                jobs["submitted"], 0, f"episode {i}: repeat differs from the first run"
            )
        return OpResult(jobs["submitted"], jobs["completed"], None)

    def summary(self) -> dict:
        """Virtual-time metrics and digest over the distinct episodes."""
        cards = [ref[1] for ref in self.reference]
        completed = sum(c["jobs"]["completed"] for c in cards)
        duration = math.fsum(c["duration_s"] for c in cards)
        return {
            "vt_idle_frac": statistics.fmean(ref[2] for ref in self.reference),
            "vt_latency_p99_s": statistics.fmean(c["latency_s"]["p99"] for c in cards),
            "vt_goodput_per_s": completed / duration,
            "digest": _digest([ref[0] for ref in self.reference]),
        }

    def close(self) -> None:
        pass


#: About 1.4x the two-machine capacity (~6.2 jobs/s): every tick finds a
#: backlog, and about a fifth of submissions are shed or rejected.
SERVE_OVERLOAD = ServiceConfig(
    arrivals=ArrivalSpec(rate=8.5, duration=15.0),
    machines=2,
    queue_limit=8,
    shed_policy="priority-shed",
    deadline_factor=30.0,
)

WORKLOADS = ("batch-paper", "batch-replay", "serve-overload")


def make_workload(name: str, seed: int, out_dir: Path):
    if name == "batch-paper":
        return BatchWorkload(name, seed, out_dir, replay=False)
    if name == "batch-replay":
        return BatchWorkload(name, seed, out_dir, replay=True)
    if name == "serve-overload":
        # The program imports scipy.optimize lazily, on the NNLS fallback
        # of model selection that only some episodes reach (the batch
        # grid never does); importing it here keeps peak RSS from
        # depending on whether a seed happens to.
        import scipy.optimize  # noqa: F401

        return ServeWorkload(name, seed, SERVE_OVERLOAD, episodes=8)
    raise ValueError(f"unknown workload {name!r}")
