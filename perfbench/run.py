"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-paper --seed 1 --seconds 12 --trace 0

Every measured figure comes from fresh processes started here, one at a
time (``worker.py``): an untimed pre-warm import, two set-up-only
processes, then the measured process.  ``setup_s`` is the median set-up
time of the three timed processes.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of whole traced cycles of the workload.  Lines before it are a readable
report: all ten end-to-end metrics (or why one does not apply), the raw
value and reference speed beside each scaled one, the virtual-time
digest and the output checks.

Exits 2 without a result when the repository's sources are missing,
and 1 when a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("batch-paper", "batch-replay", "serve-overload")

#: Set-up-only processes started before the measured one.
SETUP_REPEATS = 2

#: Whole-run budget; a run must end within 180 s.
BUDGET_S = 170.0

#: The ten end-to-end metrics, in print order, with units.
E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "fail_frac": "frac",
    "vt_speedup_vs_greedy": "x",
    "vt_idle_frac": "frac",
    "vt_latency_p99_s": "s",
    "vt_goodput_per_s": "1/s",
}


_NOT_APPLICABLE = {
    "batch": {
        "vt_latency_p99_s": "batch runs have no arrivals, so no job latency",
        "vt_goodput_per_s": "batch runs have no arrivals, so no goodput",
    },
    "serve": {
        "op_p50_ms": "an op is a job inside an episode; "
        "its host time is not observable from outside the service",
        "op_p90_ms": "an op is a job inside an episode; "
        "its host time is not observable from outside the service",
        "vt_speedup_vs_greedy": "an episode runs one balancer; "
        "there is no Greedy baseline to compare",
    },
}


class WorkerError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one process, no hidden helper threads: BLAS pools would compete
    # with the reference loop between ops
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("REPRO_CACHE", "REPRO_JOBS", "REPRO_PROFILE", "REPRO_HISTORY", "REPRO_LOG"):
        env.pop(var, None)
    return env


def _run_worker(mode: str, args, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {mode} process")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(OUT_DIR),
    ]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} process timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise WorkerError(f"{mode} process exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def _end_to_end(workload: str, setups: list[dict], res: dict) -> dict[str, dict]:
    """All ten end-to-end metrics: scaled value, raw value, or why n/a."""
    kind = workload.split("-")[0]
    phase = res["phase"]
    ref_ms = phase["host"]["ref_measured_ms"]
    out: dict[str, dict] = {
        "setup_s": {
            "value": statistics.median(s["scaled_s"] for s in setups),
            "raw": statistics.median(s["raw_s"] for s in setups),
            "ref_ms": statistics.median(s["ref_measured_ms"] for s in setups),
        }
    }
    for key in ("throughput_per_s", "op_p50_ms", "op_p90_ms"):
        if key in phase["raw"]:
            out[key] = {
                "value": phase["scaled"][key], "raw": phase["raw"][key], "ref_ms": ref_ms
            }
    out["peak_rss_mb"] = {"value": res["peak_rss_mb"]}
    if kind == "batch":
        out["fail_frac"] = {"value": phase["failed"] / phase["attempted"]}
    else:
        # rejected, shed, timed-out, failed and starved jobs alike
        out["fail_frac"] = {"value": 1.0 - phase["completed"] / phase["attempted"]}
    for key, value in res["summary"].items():
        if key in E2E_UNITS:
            out[key] = {"value": value}
    for key, why in _NOT_APPLICABLE[kind].items():
        out[key] = {"na": why}
    return out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _report(args, e2e: dict, setups: list[dict], res: dict, failures: list[str]) -> None:
    host = res["phase"]["host"]
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if not host["scaled"]:
        print(f"host scaling: OFF ({host['unscaled_reason']}); "
              "host-time metrics below are raw")
    else:
        print(f"host scaling: reference chunk {host['ref_measured_ms']:.4f} ms "
              f"(nominal {res['nominal_ms']} ms), {host['ref_samples']} chunks "
              "interleaved with the ops")
    if args.workload.startswith("serve"):
        print("open-loop note: arrivals are open-loop in virtual time, so the "
              "generator can never run late; no lateness is reported")
    for key, unit in E2E_UNITS.items():
        m = e2e[key]
        if "na" in m:
            print(f"  {key:<22} n/a    ({m['na']})")
            continue
        line = f"  {key:<22} {_fmt(m['value']):>12} {unit}"
        if "raw" in m:
            line += f"   raw {_fmt(m['raw'])} {unit}, reference " + (
                f"{m['ref_ms']:.4f} ms" if m["ref_ms"] is not None else "n/a (unscaled)"
            )
        print(line)
    phase = res["phase"]
    print(f"ops: {phase['ops']} in {phase['phase_s']:.2f} s; "
          f"attempted {phase['attempted']}, completed {phase['completed']}")
    print("setup runs: " + ", ".join(
        f"{s['scaled_s']:.4f} s (raw {s['raw_s']:.4f} s, reference {s['ref_measured_ms']:.3f} ms)"
        for s in setups))
    print(f"vt digest: {res['summary']['digest']}")
    print(f"checks: {'ok' if not failures else f'{len(failures)} FAILED'}")
    for failure in failures[:10]:
        print(f"  check failed: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        _run_worker("prewarm", args, deadline)
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setups.append(_run_worker("setup", args, deadline)["setup"])
        res = _run_worker("measure", args, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup"])
    phases = [res["phase"]] + ([res["trace"]["phase"]] if args.trace else [])
    failures = [f for p in phases for f in p["failures"]]
    e2e = _end_to_end(args.workload, setups, res)
    _report(args, e2e, setups, res, failures)
    if args.trace:
        trace = res["trace"]
        print(f"traced: {trace['phase']['ops']} ops ({trace['cycles']} cycles), "
              f"{trace['spans']} spans written to "
              f"{Path(trace['spans_path']).relative_to(ROOT)}; per-layer counts "
              "and self times are per cycle")
        print("per-layer metrics not applicable to this workload "
              "(value 0 on the result line): "
              + (", ".join(trace["not_applicable"]) or "none"))
        for n, ms in trace["solve_ms_p50_by_devices"].items():
            print(f"  solver.ms_per_solve_p50 at {n[1:]} devices: {ms:.4f} ms")
        metrics = trace["metrics"]
    else:
        # the result line carries the end-to-end metrics BENCHMARK.json
        # names: those every workload has and none of which is ever 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {
            m["name"]: {"value": e2e[m["name"]]["value"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
