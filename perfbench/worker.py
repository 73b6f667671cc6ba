"""One fresh benchmark process: set up a workload, then maybe measure it.

Started by ``run.py``, never by hand.  Modes:

* ``prewarm``: import the program and exit (fills bytecode and page
  caches so that no timed set-up pays for compiling);
* ``setup``: time the set-up only;
* ``measure``: set up, then run the timed phase; with ``--trace 1``
  an untraced phase, then whole traced cycles.

Set-up time runs from the moment ``run.py`` spawned this process to
the first timed op, minus the reference chunks timed in between.  The
process prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

#: Reference chunks timed at each of the three points that bracket the
#: set-up steps.
SETUP_REF_CHUNKS = 10


def _timed_phase(wl, clock, *, seconds: float, tracer=None) -> dict:
    """Run ops back to back; returns what they did and how long they took.

    The phase runs for ``seconds`` and at least one cycle, and stops on
    a cycle boundary so that every run or episode of the cycle weighs
    the same, whatever the host speed.
    """
    attempted = completed = failed = 0
    failures: list[str] = []
    clock.sample()
    t0 = time.perf_counter()
    i = 0
    while True:
        if tracer is not None:
            tracer.op_id = i
        t = time.perf_counter()
        result = wl.op(i)
        clock.after_op(time.perf_counter() - t)
        attempted += result.attempted
        completed += result.completed
        if result.failure is not None:
            failed += result.attempted
            failures.append(result.failure)
        i += 1
        if i % wl.cycle == 0 and time.perf_counter() - t0 >= seconds:
            break
    phase_s = time.perf_counter() - t0
    clock.sample()
    return {
        "ops": i,
        "attempted": attempted,
        "completed": completed,
        "failed": failed,
        "failures": failures,
        "phase_s": phase_s,
        "host": {
            "scaled": clock.unscaled_reason is None,
            "unscaled_reason": clock.unscaled_reason,
            "ref_measured_ms": clock.measured_ms,
            "ref_samples": len(clock.marks),
        },
        "raw": _rates(clock.op_s, i, completed, wl),
        "scaled": _rates(clock.scaled(), i, completed, wl),
    }


def _rates(op_s: list[float], ops: int, completed: int, wl) -> dict:
    """Host-time figures of one phase from its per-op seconds."""
    op_wall = math.fsum(op_s)
    out = {
        "op_wall_s": op_wall,
        # an op is a run for batch workloads, a completed job for serve
        "throughput_per_s": (ops if wl.per_op_latency else completed) / op_wall,
    }
    if wl.per_op_latency:
        ms = sorted(t * 1e3 for t in op_s)
        out["op_p50_ms"] = statistics.median(ms)
        # nearest rank: at least ten samples lie beyond it once ops >= 100
        out["op_p90_ms"] = ms[max(-(-len(ms) * 9 // 10), 1) - 1]
    return out


def _chunks(n: int) -> list[float]:
    return [reference.time_chunk_ms() for _ in range(n)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("prewarm", "setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    nominal_ms = reference.load_nominal_ms()
    # Set-up runs in three steps (interpreter start, imports, building
    # and warming the workload); reference chunks bracket each step and
    # each step is scaled by the mean of the samples around it.
    refs = [reference.trimmed_mean(_chunks(SETUP_REF_CHUNKS))]
    marks = [time.clock_gettime(time.CLOCK_MONOTONIC)]
    import workloads

    if args.mode == "prewarm":
        print(json.dumps({"prewarm": True}))
        return 0
    marks.append(time.clock_gettime(time.CLOCK_MONOTONIC))
    refs.append(reference.trimmed_mean(_chunks(SETUP_REF_CHUNKS)))
    marks.append(time.clock_gettime(time.CLOCK_MONOTONIC))
    wl = workloads.make_workload(args.workload, args.seed, args.out_dir)
    try:
        wl.setup()
        marks.append(time.clock_gettime(time.CLOCK_MONOTONIC))
        refs.append(reference.trimmed_mean(_chunks(SETUP_REF_CHUNKS)))
        steps = [
            (T_START - args.spawned_at, refs[0]),
            (marks[1] - marks[0], (refs[0] + refs[1]) / 2),
            (marks[3] - marks[2], (refs[1] + refs[2]) / 2),
        ]
        setup_raw = math.fsum(t for t, _ in steps)
        setup_scaled = math.fsum(t * nominal_ms / r for t, r in steps)
        out: dict = {
            "setup": {
                "raw_s": setup_raw,
                "scaled_s": setup_scaled,
                "ref_measured_ms": setup_raw * nominal_ms / setup_scaled,
            }
        }
        if args.mode == "measure":
            out.update(_measure(wl, args, nominal_ms))
    finally:
        wl.close()
    print(json.dumps(out))
    return 0


def _measure(wl, args, nominal_ms: float) -> dict:
    seconds = args.seconds if not args.trace else args.seconds / 2
    phase = _timed_phase(wl, reference.HostClock(nominal_ms), seconds=seconds)
    out = {
        "phase": phase,
        "summary": wl.summary(),
        "per_op_latency": wl.per_op_latency,
        "nominal_ms": nominal_ms,
    }
    if args.trace:
        out["trace"] = _traced_cycle(wl, args, nominal_ms, phase)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def _traced_cycle(wl, args, nominal_ms: float, untraced: dict) -> dict:
    """Whole traced cycles of the workload, reduced to per-layer metrics."""
    import tracing
    from repro.obs.metrics import get_registry

    tracer = tracing.Tracer()
    tracer.install()
    clock = reference.HostClock(nominal_ms)
    before = get_registry().snapshot()["counters"]
    phase = _timed_phase(wl, clock, seconds=args.seconds / 2, tracer=tracer)
    after = get_registry().snapshot()["counters"]
    counters = {k: after[k] - before.get(k, 0) for k in after}
    raw = phase["raw"]
    cycles = phase["ops"] // wl.cycle
    scale = raw["op_wall_s"] / phase["scaled"]["op_wall_s"]
    metrics, not_applicable, per_n = tracing.layer_metrics(
        tracer,
        op_wall_s=raw["op_wall_s"],
        counters=counters,
        cycles=cycles,
        scale=scale,
        overhead_frac=1.0
        - phase["scaled"]["throughput_per_s"] / untraced["scaled"]["throughput_per_s"],
    )
    path = args.out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    # the result line holds exactly a value and a unit per metric; which
    # zeros are "layer never entered" is printed in the report above it
    return {
        "metrics": {
            k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]} for k, v in metrics.items()
        },
        "not_applicable": not_applicable,
        "solve_ms_p50_by_devices": per_n,
        "phase": phase,
        "cycles": cycles,
        "spans": len(tracer.start),
        "spans_path": str(path),
    }


if __name__ == "__main__":
    sys.exit(main())
