"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each ``repro`` layer,
rebinding every name where its callers look it up (class attributes
for methods; every ``repro`` module attribute bound to the original
for functions, e.g. ``solve_block_partition`` in ``repro.core.plb_hec``
and ``repro.service.balancer``).  Each call records one span: name id,
start, end, parent span and op id, in flat in-memory arrays that are
written out once the run ends.  Self time is a span's duration minus
the durations of its direct children.

DES event callbacks are closures inside the layers, not public entry
points.  ``Engine.schedule_at`` is wrapped so that each scheduled action
runs inside an ``<layer>.event`` span, attributed to the layer whose
span was open when the event was scheduled (the executor for batch
runs, the service for episodes).  ``Engine.step`` then measures only
the engine's own dispatch cost.

Nothing is patched until :meth:`Tracer.install`; the untraced runs of
the benchmark never import this module.
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
import sys
import weakref
from array import array
from pathlib import Path
from time import perf_counter

__all__ = ["LAYERS", "Tracer", "layer_metrics", "PER_LAYER_UNITS"]

LAYERS = (
    "sim",
    "cluster",
    "runtime",
    "core",
    "balancers",
    "modeling",
    "solver",
    "service",
    "experiments",
    "obs",
)

_HOOKS = ("setup", "next_block", "on_block_dispatched", "on_task_finished")

#: (layer, module, class or None for a function, attribute)
ENTRY_POINTS: tuple[tuple[str, str, str | None, str], ...] = (
    ("sim", "repro.sim.engine", "Engine", "run"),
    ("sim", "repro.sim.engine", "Engine", "step"),
    ("sim", "repro.sim.engine", "Engine", "schedule_at"),
    ("sim", "repro.sim.random", "RandomStreams", "lognormal_factor"),
    ("cluster", "repro.cluster.topology", "Cluster", "device"),
    ("cluster", "repro.cluster.topology", "Cluster", "devices"),
    ("cluster", "repro.cluster.perfmodel", "GroundTruth", "exec_time"),
    ("cluster", "repro.cluster.perfmodel", "GroundTruth", "transfer_time"),
    ("cluster", "repro.cluster.perfmodel", "GroundTruth", "total_time"),
    ("runtime", "repro.runtime.runtime", "Runtime", "run"),
    ("runtime", "repro.runtime.sim_executor", "SimulatedExecutor", "run"),
    *(("core", "repro.core.plb_hec", "PLBHeC", h) for h in _HOOKS),
    *(("balancers", "repro.balancers.greedy", "Greedy", h) for h in _HOOKS),
    *(("balancers", "repro.balancers.acosta", "Acosta", h) for h in _HOOKS),
    *(("balancers", "repro.balancers.hdss", "HDSS", h) for h in _HOOKS),
    ("modeling", "repro.modeling.perf_profile", "PerfProfile", "fit"),
    ("modeling", "repro.modeling.model_select", None, "select_model"),
    ("modeling", "repro.modeling.least_squares", None, "fit_basis_model"),
    ("solver", "repro.solver.partition", None, "solve_block_partition"),
    ("solver", "repro.solver.ipm", "InteriorPointSolver", "solve"),
    ("service", "repro.service.server", "ClusterService", "run"),
    ("service", "repro.service.balancer", "ContinuousBalancer", "rebalance"),
    ("service", "repro.service.balancer", "ContinuousBalancer", "record"),
    ("service", "repro.service.admission", "AdmissionQueue", "offer"),
    ("service", "repro.service.admission", "AdmissionQueue", "pop"),
    ("experiments", "repro.experiments.parallel", None, "run_sweep"),
    ("experiments", "repro.experiments.parallel", "ResultCache", "key"),
    ("experiments", "repro.experiments.parallel", "ResultCache", "load"),
    ("experiments", "repro.experiments.parallel", "ResultCache", "store"),
    ("obs", "repro.obs.critpath", None, "analyze_trace"),
    ("obs", "repro.obs.report", "RunReport", "build"),
    ("obs", "repro.obs.ledger", "DecisionLedger", "to_dict"),
    ("obs", "repro.obs.timeseries", "TimeSeriesStore", "record"),
)

#: Payloads whose JSON size is measured (sizing every one would cost
#: more than the runs that make them).
_PAYLOAD_SAMPLES = 128


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = [-1]
        self.op_id = -1
        # facts the wrappers observe on the way out (span index first)
        self.blocks = 0
        self.fits: list[tuple[int, bool, bool, bool]] = []
        self.solves: list[tuple[int, int, str | None, int]] = []
        self.stages: list[str] = []
        self.sweeps = [0, 0, 0]  # runs, cache hits, executed
        #: sampled run payloads, sized after the cycle (never inside an op)
        self.payloads: list[dict] = []
        self._fit_sizes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ---- recording -----------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, nid: int, after=None):
        """``fn`` recording one span per call under name id ``nid``."""
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, stack = self.start, self.end, self.stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter()
                stack.pop()
                if after is not None:
                    after(idx, args, kwargs, None, exc)
                raise
            end[idx] = perf_counter()
            stack.pop()
            if after is not None:
                after(idx, args, kwargs, result, None)
            return result

        return traced

    # ---- installation --------------------------------------------------

    def install(self) -> None:
        """Patch every entry point; call after the workload is built."""
        import importlib

        hooks = self._after_hooks()
        for layer, module_name, owner_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            name = f"{layer}.{owner_name + '.' if owner_name else ''}{attr}"
            nid = self._nid(name)
            after = hooks.get(name)
            if owner_name is None:
                original = getattr(module, attr)
                traced = self._wrap(original, nid, after)
                for mod in list(sys.modules.values()):
                    if (
                        getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, attr, None) is original
                    ):
                        setattr(mod, attr, traced)
                continue
            owner = getattr(module, owner_name)
            raw = owner.__dict__.get(attr, getattr(owner, attr))
            if attr == "schedule_at":
                setattr(owner, attr, self._wrap_schedule_at(raw, nid))
            elif isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self._wrap(raw.__func__, nid, after)))
            else:
                setattr(owner, attr, self._wrap(raw, nid, after))

    def _wrap_schedule_at(self, original, nid: int):
        """Wrap scheduling so each event's action runs inside a span."""
        names, name_id, stack = self.names, self.name_id, self.stack
        event_ids = {layer: self._nid(f"{layer}.event") for layer in LAYERS}
        sim_event = event_ids["sim"]
        wrap = self._wrap

        def schedule_at(engine, time, action, **kwargs):
            top = stack[-2]  # stack[-1] is this call's own span
            event_id = (
                event_ids[names[name_id[top]].split(".", 1)[0]]
                if top >= 0
                else sim_event
            )
            return original(engine, time, wrap(action, event_id), **kwargs)

        return self._wrap(schedule_at, nid)

    def _after_hooks(self) -> dict:
        from repro.core.plb_hec import PLBHeC
        from repro.errors import FitError

        policy = PLBHeC()
        r2_ok, rmse_ok = policy.r2_threshold, policy.rel_rmse_accept
        sizes = self._fit_sizes

        def runtime_run(idx, args, kwargs, result, exc):
            if result is not None:
                self.blocks += len(result.trace.records)

        def profile_fit(idx, args, kwargs, result, exc):
            profile = args[0]
            points = len(profile)
            unchanged = sizes.get(profile) == points
            sizes[profile] = points
            accepted = result is not None and (
                result.r2 >= r2_ok or result.exec_fit.rel_rmse <= rmse_ok
            )
            self.fits.append((idx, unchanged, isinstance(exc, FitError), accepted))

        def partition(idx, args, kwargs, result, exc):
            method = None if result is None else result.method
            iters = 0 if result is None else result.iterations
            self.solves.append((idx, len(args[0]), method, iters))

        def rebalance(idx, args, kwargs, result, exc):
            if result is not None:
                self.stages.append(result)

        def run_sweep(idx, args, kwargs, result, exc):
            stats = kwargs.get("stats")
            if stats is None or result is None:
                return
            self.sweeps[0] += stats.total_runs
            self.sweeps[1] += stats.cache_hits
            self.sweeps[2] += stats.executed
            room = _PAYLOAD_SAMPLES - len(self.payloads)
            self.payloads.extend(stats.payloads[:room])

        return {
            "runtime.Runtime.run": runtime_run,
            "modeling.PerfProfile.fit": profile_fit,
            "solver.solve_block_partition": partition,
            "service.ContinuousBalancer.rebalance": rebalance,
            "experiments.run_sweep": run_sweep,
        }

    # ---- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * len(start)
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(len(start))]

    def has_ancestor(self, idx: int, layer: str) -> bool:
        p = self.parent[idx]
        while p >= 0:
            if self.names[self.name_id[p]].startswith(layer + "."):
                return True
            p = self.parent[p]
        return False

    def write(self, path: Path) -> None:
        """Write every span as gzip'd JSON lines: a header, then one row each.

        Rows are ``[name_id, start_us, end_us, parent, op]`` with times
        relative to the first span.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.start)}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    "[%d,%.3f,%.3f,%d,%d]\n"
                    % (
                        self.name_id[i],
                        (self.start[i] - t0) * 1e6,
                        (self.end[i] - t0) * 1e6,
                        self.parent[i],
                        self.op[i],
                    )
                )


#: Unit of every per-layer metric, in print order.
PER_LAYER_UNITS: dict[str, str] = {
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.rng_draws": "count",
    "sim.us_per_rng_draw": "us",
    "sim.self_ms": "ms",
    "cluster.lookups": "count",
    "cluster.us_per_lookup": "us",
    "cluster.cost_evals": "count",
    "cluster.self_ms": "ms",
    "runtime.blocks": "count",
    "runtime.dispatch_calls": "count",
    "runtime.us_per_block": "us",
    "runtime.self_ms": "ms",
    "core.calls": "count",
    "core.fit_attempts": "count",
    "core.fit_accept_frac": "frac",
    "core.solves": "count",
    "core.rebalances": "count",
    "core.self_ms": "ms",
    "balancers.calls": "count",
    "balancers.self_ms": "ms",
    "modeling.fits": "count",
    "modeling.selects": "count",
    "modeling.candidate_fits": "count",
    "modeling.candidates_per_select": "count",
    "modeling.unchanged_refit_frac": "frac",
    "modeling.fit_errors": "count",
    "modeling.us_per_select_p50": "us",
    "modeling.self_ms": "ms",
    "solver.solves": "count",
    "solver.ms_per_solve_p50": "ms",
    "solver.ms_per_solve_p90": "ms",
    "solver.ipm_frac": "frac",
    "solver.iters_per_solve": "count",
    "solver.failures": "count",
    "solver.self_ms": "ms",
    "service.ticks": "count",
    "service.ms_per_tick_p50": "ms",
    "service.solve_stage_frac": "frac",
    "service.admission_offers": "count",
    "service.self_ms": "ms",
    "experiments.runs_executed": "count",
    "experiments.cache_hit_frac": "frac",
    "experiments.us_per_cache_load": "us",
    "experiments.payload_kb": "KB",
    "experiments.self_ms": "ms",
    "obs.calls": "count",
    "obs.self_ms": "ms",
    "obs.wall_share": "frac",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}

#: Host-time per-layer metrics (scaled like the end-to-end ones).
_TIME_UNITS = ("us", "ms")

#: Count-unit metrics that are ratios, not per-cycle totals.
_RATIOS = ("modeling.candidates_per_select", "solver.iters_per_solve")


def _pct(values: list[float], q: int) -> float:
    """Nearest-rank percentile ``q`` of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(len(ordered) * q / 100), 1) - 1]


def layer_metrics(
    tracer: Tracer,
    *,
    op_wall_s: float,
    counters: dict[str, float],
    cycles: int,
    scale: float | None,
    overhead_frac: float,
) -> tuple[dict[str, float], list[str], dict[str, float]]:
    """Per-layer metrics of ``cycles`` whole traced cycles.

    Counts and ``*.self_ms`` totals are per cycle, so they repeat exactly
    for a seed however many cycles the host had time for.

    Returns ``(metrics, not_applicable, per_device_count)``: metrics of a
    layer the workload never entered are 0 and named in
    ``not_applicable``, which the report prints beside the result line;
    ``per_device_count`` maps ``n<devices>`` to the
    median solve milliseconds at that device count.
    """
    names = tracer.names
    n = len(tracer.start)
    self_t = tracer.self_times()
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    selft: dict[str, float] = {}
    durations: dict[str, list[float]] = {
        "modeling.select_model": [],
        "solver.solve_block_partition": [],
        "service.ContinuousBalancer.rebalance": [],
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    for i in range(n):
        name = names[tracer.name_id[i]]
        dur = tracer.end[i] - tracer.start[i]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        selft[name] = selft.get(name, 0.0) + self_t[i]
        layer = name.split(".", 1)[0]
        layer_self[layer] += self_t[i]
        layer_calls[layer] += 1
        if name in durations:
            durations[name].append(dur)

    def c(*keys: str) -> int:
        return sum(count.get(k, 0) for k in keys)

    def mean_us(*keys: str) -> float:
        calls = c(*keys)
        return sum(total.get(k, 0.0) for k in keys) / calls * 1e6 if calls else 0.0

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    hooks = [f"{k}.{h}" for k in ("Greedy", "Acosta", "HDSS") for h in _HOOKS]
    core_fits = [f for f in tracer.fits if tracer.has_ancestor(f[0], "core")]
    core_solves = [s for s in tracer.solves if tracer.has_ancestor(s[0], "core")]
    solved = [s for s in tracer.solves if s[2] is not None]
    solve_ms = [d * 1e3 for d in durations["solver.solve_block_partition"]]
    events = c("sim.Engine.step")
    m: dict[str, float] = {
        "sim.events": events,
        "sim.us_per_event": frac(selft.get("sim.Engine.step", 0.0) * 1e6, events),
        "sim.rng_draws": c("sim.RandomStreams.lognormal_factor"),
        "sim.us_per_rng_draw": mean_us("sim.RandomStreams.lognormal_factor"),
        "cluster.lookups": c("cluster.Cluster.device", "cluster.Cluster.devices"),
        "cluster.us_per_lookup": mean_us(
            "cluster.Cluster.device", "cluster.Cluster.devices"
        ),
        "cluster.cost_evals": c(
            "cluster.GroundTruth.exec_time",
            "cluster.GroundTruth.transfer_time",
            "cluster.GroundTruth.total_time",
        ),
        "runtime.blocks": tracer.blocks,
        "runtime.dispatch_calls": c("core.PLBHeC.next_block")
        + sum(count.get(f"balancers.{k}.next_block", 0) for k in ("Greedy", "Acosta", "HDSS")),
        "runtime.us_per_block": frac(layer_self["runtime"] * 1e6, tracer.blocks),
        "core.calls": layer_calls["core"],
        "core.fit_attempts": counters.get("plbhec.fit_attempts", 0),
        "core.fit_accept_frac": frac(sum(f[3] for f in core_fits), len(core_fits)),
        "core.solves": len(core_solves),
        "core.rebalances": counters.get("plbhec.rebalances", 0),
        "balancers.calls": c(*(f"balancers.{h}" for h in hooks)),
        "modeling.fits": len(tracer.fits),
        "modeling.selects": c("modeling.select_model"),
        "modeling.candidate_fits": c("modeling.fit_basis_model"),
        "modeling.candidates_per_select": frac(
            c("modeling.fit_basis_model"), c("modeling.select_model")
        ),
        "modeling.unchanged_refit_frac": frac(
            sum(f[1] for f in tracer.fits), len(tracer.fits)
        ),
        "modeling.fit_errors": sum(f[2] for f in tracer.fits),
        "modeling.us_per_select_p50": _pct(durations["modeling.select_model"], 50) * 1e6,
        "solver.solves": len(tracer.solves),
        "solver.ms_per_solve_p50": _pct(solve_ms, 50),
        "solver.ms_per_solve_p90": _pct(solve_ms, 90),
        "solver.ipm_frac": frac(sum(s[2] == "ipm" for s in solved), len(solved)),
        "solver.iters_per_solve": frac(sum(s[3] for s in solved), len(solved)),
        "solver.failures": len(tracer.solves) - len(solved),
        "service.ticks": len(tracer.stages),
        "service.ms_per_tick_p50": _pct(
            durations["service.ContinuousBalancer.rebalance"], 50
        )
        * 1e3,
        "service.solve_stage_frac": frac(
            sum(s == "solve" for s in tracer.stages), len(tracer.stages)
        ),
        "service.admission_offers": c("service.AdmissionQueue.offer"),
        "experiments.runs_executed": tracer.sweeps[2],
        "experiments.cache_hit_frac": frac(tracer.sweeps[1], tracer.sweeps[0]),
        "experiments.us_per_cache_load": mean_us("experiments.ResultCache.load"),
        "experiments.payload_kb": frac(
            sum(len(json.dumps(p, sort_keys=True)) for p in tracer.payloads) / 1024,
            len(tracer.payloads),
        ),
        "obs.calls": layer_calls["obs"],
        "obs.wall_share": frac(layer_self["obs"], op_wall_s),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": max(
            frac(op_wall_s - sum(layer_self.values()), op_wall_s), 0.0
        ),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layer_self[layer] * 1e3
    by_n: dict[int, list[float]] = {}
    for (idx, devices, _method, _iters) in tracer.solves:
        by_n.setdefault(devices, []).append(
            (tracer.end[idx] - tracer.start[idx]) * 1e3
        )
    per_n = {f"n{k}": statistics.median(v) for k, v in sorted(by_n.items())}
    for key, unit in PER_LAYER_UNITS.items():
        if (unit == "count" and key not in _RATIOS) or key.endswith(".self_ms"):
            m[key] /= cycles
        if scale is not None and unit in _TIME_UNITS:
            m[key] /= scale
    if scale is not None:
        per_n = {k: v / scale for k, v in per_n.items()}
    not_applicable = sorted(
        key
        for key in PER_LAYER_UNITS
        if not key.startswith("trace.")
        and layer_calls[key.split(".", 1)[0]] == 0
    )
    metrics = {key: float(m[key]) for key in PER_LAYER_UNITS}
    return metrics, not_applicable, per_n
