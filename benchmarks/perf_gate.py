"""Paired perf gate: perfbench on a base commit against the working tree.

Usage (from a git checkout, any working directory)::

    python3 benchmarks/perf_gate.py BASE

BASE is any git revision.  The gate checks it out into a temporary git
worktree and runs every workload ``BENCHMARK.json`` declares, as
``PAIRS`` alternating base/change pairs of
``perfbench/run.py --seed SEED --seconds SECONDS --trace 0`` on this
one host: base, change, base, change, ...  Black-box performance
numbers do not transfer across machines, so base and change are only
ever compared on the same host, back to back.

It prints one row per workload and end-to-end metric with the base and
change medians, then removes the worktree.  It exits 1 when

* any end-to-end metric's change median is worse than its base median
  by more than the metric's ``bound`` (``better`` gives the direction);
* or a change run prints no result, reports ``correct: false``, or
  reports more failed operations than the base run it was paired with.

Below the table it prints, per workload, the base and change runs'
``vt digest`` lines and whether virtual-time results moved.  That is a
report, never a failure: a change may move results on purpose.

A metric the base runs do not print (an older benchmark) is skipped,
and the table says so.  A BASE without ``perfbench/run.py`` has nothing
to compare against: the gate says so and exits 0 without judging.

The script is stdlib-only and imports nothing from ``repro``: each
tree's perfbench runs that tree's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Alternating base/change pairs per workload.
PAIRS = 3

#: Length of one perfbench run, in seconds.
SECONDS = 5

#: The perfbench seed (its development seed).
SEED = 1

#: The runner a base must have to be judged.
RUNNER = "perfbench/run.py"

#: A perfbench run must end within 180 s; allow for process start-up.
RUN_TIMEOUT_S = 240.0

#: The report line that carries a run's virtual-time digest.
DIGEST_LINE = "vt digest: "

Result = Mapping[str, Any]


def run_env() -> dict[str, str]:
    """The environment of both trees' perfbench runs: the caller's, less
    ``PYTHONDONTWRITEBYTECODE``.

    perfbench's pre-warm process fills the bytecode cache so that no
    timed set-up compiles the program; that variable stops it.  The
    fresh base worktree has no ``__pycache__`` while the working tree
    usually has one, so every base set-up would compile every module
    and the two sides would not be measured alike.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def perfbench(spec: Mapping[str, Any], tree: Path, workload: str) -> Result | None:
    """One perfbench run in ``tree``: its result line, or None."""
    cmd = [
        *spec["command"],
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", str(SECONDS),
        "--trace", "0",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=tree, env=run_env(), capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"  {workload}: timed out after {RUN_TIMEOUT_S:.0f} s", flush=True)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
        else:
            digests = [
                line.removeprefix(DIGEST_LINE).strip()
                for line in lines
                if line.startswith(DIGEST_LINE)
            ]
            return {**result, "vt_digest": digests[-1]} if digests else result
    tail = "\n".join(proc.stderr.strip().splitlines()[-10:])
    print(f"  {workload}: exit {proc.returncode}, no result line\n{tail}", flush=True)
    return None


def _values(results: Sequence[Result | None], metric: str) -> list[float]:
    return [
        float(r["metrics"][metric]["value"])
        for r in results
        if r is not None and metric in r.get("metrics", {})
    ]


def judge(
    end_to_end: Sequence[Mapping[str, Any]],
    runs: Mapping[str, Sequence[tuple[Result | None, Result | None]]],
) -> tuple[list[dict[str, Any]], list[str]]:
    """The gate's decision over perfbench result lines.

    ``end_to_end`` is ``BENCHMARK.json``'s metric list (``name``,
    ``better``, ``bound``); ``runs`` maps each workload to its
    ``(base, change)`` result pairs, ``None`` for a run that printed no
    result.  Returns the table rows and the reasons to fail (none: pass).
    """
    rows: list[dict[str, Any]] = []
    failures: list[str] = []
    for workload, pairs in runs.items():
        for i, (base, change) in enumerate(pairs, start=1):
            where = f"{workload} pair {i}"
            if change is None:
                failures.append(f"{where}: the change run printed no result")
                continue
            if change.get("correct") is not True:
                failures.append(f"{where}: the change run reports correct: false")
            if base is not None and change.get("failed", 0) > base.get("failed", 0):
                failures.append(
                    f"{where}: the change run failed {change.get('failed')} "
                    f"operation(s), its base run {base.get('failed', 0)}"
                )
        bases = [base for base, _ in pairs]
        changes = [change for _, change in pairs]
        for metric in end_to_end:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            row = {
                "workload": workload, "metric": name, "better": better,
                "bound": bound, "base": None, "change": None, "rel": None,
            }
            rows.append(row)
            base_values = _values(bases, name)
            change_values = _values(changes, name)
            if not base_values:
                row["verdict"] = "skipped: the base does not print it"
                continue
            row["base"] = statistics.median(base_values)
            if not change_values:
                row["verdict"] = "FAIL: no change run prints it"
                failures.append(f"{workload} {name}: no change run prints it")
                continue
            row["change"] = statistics.median(change_values)
            # perfbench result metrics are never 0
            row["rel"] = (row["change"] - row["base"]) / row["base"]
            worse = row["rel"] < -bound if better == "higher" else row["rel"] > bound
            row["verdict"] = "WORSE" if worse else "ok"
            if worse:
                failures.append(
                    f"{workload} {name}: change median {row['change']:.6g} vs "
                    f"base median {row['base']:.6g} ({row['rel']:+.1%}; "
                    f"{better} is better, bound {bound:.0%})"
                )
    return rows, failures


def digest_report(
    runs: Mapping[str, Sequence[tuple[Result | None, Result | None]]],
) -> list[str]:
    """Per workload, the base and change runs' vt digests and whether
    virtual-time results moved.  Report only: it decides nothing."""
    lines = []
    for workload, pairs in runs.items():
        sides = [
            sorted({r["vt_digest"] for r in side if r is not None and "vt_digest" in r})
            for side in zip(*pairs)
        ]
        base, change = sides if sides else ([], [])
        if not base or not change:
            verdict = "not compared: a side printed no digest"
        elif len(base) > 1 or len(change) > 1:
            verdict = "runs of one side disagree"
        elif base == change:
            verdict = "unchanged"
        else:
            verdict = "MOVED: virtual-time results differ"
        lines.append(
            f"{workload}: vt digest base {', '.join(base) or '-'}, "
            f"change {', '.join(change) or '-'}: {verdict}"
        )
    return lines


def render(rows: Sequence[Mapping[str, Any]]) -> str:
    """The workload x metric table of medians."""

    def num(value: float | None) -> str:
        return "-" if value is None else f"{value:.6g}"

    header = ["workload", "metric", "better", "bound", "base", "change", "change %", "verdict"]
    body = [
        [
            r["workload"], r["metric"], r["better"], f"{r['bound']:.0%}",
            num(r["base"]), num(r["change"]),
            "-" if r["rel"] is None else f"{r['rel']:+.1%}",
            r["verdict"],
        ]
        for r in rows
    ]
    widths = [max(len(line[i]) for line in [header, *body]) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in [header, *body]
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run perfbench on BASE and on the working tree in "
        "alternating pairs and fail on an end-to-end regression."
    )
    parser.add_argument("base", metavar="BASE", help="git revision to compare against")
    args = parser.parse_args(argv)
    resolved = _git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}")
    if resolved.returncode != 0:
        print(f"perf gate: {args.base!r} is not a commit", file=sys.stderr)
        return 1
    base_rev = resolved.stdout.strip()
    if _git("cat-file", "-e", f"{base_rev}:{RUNNER}").returncode != 0:
        print(f"perf gate: base {base_rev[:12]} has no {RUNNER}; "
              "nothing to compare against, passing without judging")
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scratch = Path(tempfile.mkdtemp(prefix="perf-gate-"))
    base_tree = scratch / "base"
    added = _git("worktree", "add", "--detach", str(base_tree), base_rev)
    if added.returncode != 0:
        shutil.rmtree(scratch, ignore_errors=True)
        print(f"perf gate: git worktree add failed:\n{added.stderr}", file=sys.stderr)
        return 1
    runs: dict[str, list[tuple[Result | None, Result | None]]] = {}
    try:
        print(f"perf gate: base {base_rev[:12]} vs the working tree, {PAIRS} pairs "
              f"x {SECONDS} s per workload, seed {SEED}", flush=True)
        for workload in (w["name"] for w in spec["workloads"]):
            runs[workload] = []
            for i in range(1, PAIRS + 1):
                base = perfbench(spec, base_tree, workload)
                change = perfbench(spec, ROOT, workload)
                runs[workload].append((base, change))
                print(f"  {workload} pair {i}/{PAIRS} done", flush=True)
    finally:
        _git("worktree", "remove", "--force", str(base_tree))
        _git("worktree", "prune")
        shutil.rmtree(scratch, ignore_errors=True)
    rows, failures = judge(spec["end_to_end"], runs)
    print(render(rows))
    for line in digest_report(runs):
        print(line)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"perf gate: {'FAIL' if failures else 'OK'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
