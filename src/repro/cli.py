"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Run one workload under one policy and print the result summary.
    ``--trace-out trace.json`` additionally exports a Chrome
    trace-event/Perfetto timeline (with decision instant markers when
    the policy keeps a ledger); ``--metrics-out metrics.json`` writes
    the run's telemetry manifest (:class:`repro.obs.RunReport`), or the
    metrics registry in Prometheus text exposition format with
    ``--metrics-format prom``; ``--explain-out explain.jsonl`` writes
    the scheduler decision ledger.  Repeatable fault-injection flags:
    ``--fail DEV@T`` (permanent failure), ``--perturb DEV@T:FACTOR``
    (speed change), ``--transient DEV@T+D`` (down at T, back after D).
    ``--sample-interval S`` attaches the virtual-time cluster sampler
    (``0`` picks ~makespan/128 automatically); ``--series-out
    series.jsonl`` records the sampled telemetry; ``--slo FILE``
    evaluates a declarative SLO spec (``default`` for the built-in one)
    against the series, stamps ``alert.slo.*`` instants into the trace,
    writes ``--slo-report-out`` and exits 2 when an objective fails.
``top``
    Render a recorded ``series.jsonl`` as a terminal cluster view
    (per-device utilization sparklines, backlog/goodput strips,
    fairness, optional SLO verdicts from ``--slo-report``).  ``--once``
    prints a single frame for CI; without it the view follows the file,
    refreshing every ``--interval`` seconds.
``explain``
    Run one workload and explain every scheduler decision: trigger
    (probe round / selection / rebalance / fault / recovery), solver
    outcome (iterations, KKT error, fallback stage), allocation, and
    how the per-device block-time predictions calibrated against what
    actually executed (MAPE, signed bias, EWMA drift).  Accepts the
    same fault-injection flags as ``run``; ``--out explain.jsonl``
    writes the run-id-correlated ledger artifact.
``trace``
    Run one workload and write the Perfetto/Chrome timeline to
    ``--out`` (default ``trace.json``) — shorthand for
    ``run --trace-out``.
``why``
    Run one workload and explain its *makespan*: extract the critical
    path from the execution trace and attribute 100 % of the end-to-end
    time into compute / transfer / idle / solver / retries /
    fault-recovery / rework, with what-if lower bounds (zero-transfer,
    zero-scheduler, perfect-balance, per-device k×-faster sensitivity)
    and a decision-blame join against the scheduler ledger.  Accepts
    the same fault-injection flags as ``run``; writes the
    schema-validated ``critpath.json`` artifact (``--out``, ``-`` to
    skip).  ``--assert-bound`` turns the attribution guarantees into a
    gate: exit 2 unless the categories sum to the makespan, every
    bound is ≤ the observed makespan, the path is non-empty, and the
    busy-interval invariant holds.
``compare``
    Run all four paper policies on one workload and print the
    comparison table.  ``--trace-out`` re-runs each policy once at the
    first replication's seed and exports all of them side by side, one
    process group per policy.
``table1`` / ``fig1`` / ``fig4`` / ``fig5`` / ``fig6`` / ``fig7``
    Regenerate the corresponding paper artefact.
``overhead``
    Time the block-size solver (the Sec. V.a statistic).
``ablations``
    Run the three DESIGN.md ablation studies.
``dashboard``
    Write the self-contained HTML observability dashboard (policy
    comparison, solver convergence, Gantt timeline, CPU profile,
    resilience scorecard, anomaly findings) — no external
    requests, open it anywhere.  ``--scorecard chaos_scorecard.json``
    feeds the resilience section from a previous ``chaos`` run.
``chaos``
    Run a seeded chaos campaign (randomized fault schedules over a
    scenario × policy grid through the sweep engine), check the
    work-conservation and fault-isolation invariants on every run, and
    write the resilience scorecard JSON.  Exits non-zero when any
    invariant is violated.  Same seed → bit-identical scorecard; see
    docs/TUTORIAL.md §9.  The campaign summary is appended to the
    history store (``.repro_history/``, see ``REPRO_HISTORY``;
    ``--history -`` disables it).  ``--serve`` runs the same campaign
    and flags over *service episodes* instead of batch runs: seeded
    fault schedules are injected while the cluster keeps admitting,
    shedding and completing jobs; see docs/TUTORIAL.md §13.
``serve``
    Host the cluster as an online service: seeded open-loop Poisson
    arrivals (``--pattern constant|diurnal|bursty``) flow through a
    bounded admission queue (``--queue-limit``, ``--shed-policy``)
    into a continuous PLB-HeC balancing loop, guarded by per-job
    deadlines (``--deadline-factor``), per-tenant retry budgets and
    per-device circuit breakers.  Accepts the same fault-injection
    flags as ``run``; writes the serving scorecard
    (``--scorecard-out``) and the sampled ``serve_*`` telemetry
    (``--series-out``), and gates on an SLO spec (``--slo``, exit 2
    on violation).  Equal seeds produce byte-identical scorecards.
``profile``
    Run one workload under the deterministic phase-attributed CPU
    profiler and write a flamegraph SVG (``--flame``), a collapsed-stack
    file for flamegraph.pl / speedscope (``--collapsed``), the raw
    snapshot (``--json``) and/or profile slices merged into a Perfetto
    timeline (``--trace-out``).  ``run``/``compare`` accept a
    ``--profile`` flag for the same capture in passing.

Sweep-driving commands accept ``--jobs N`` (default: the ``REPRO_JOBS``
environment variable, else the CPU count) and honour ``REPRO_CACHE``
for on-disk result caching; see docs/TUTORIAL.md §5.  ``REPRO_PROFILE=1``
profiles every sweep the way ``--profile`` does (and, like it,
disables the result cache while active); see docs/TUTORIAL.md §8.

Global options (before the subcommand): ``--log-level
{debug,info,warning,error,critical}`` and ``--log-format {text,json}``
configure console logging; the ``REPRO_LOG`` environment variable
(``REPRO_LOG=debug``, ``REPRO_LOG=json``, ``REPRO_LOG=info:json``)
supplies defaults that the flags override.  See docs/TUTORIAL.md §6.

Examples
--------
::

    python -m repro run --app matmul --size 16384 --policy plb-hec
    python -m repro run --app matmul --size 4096 --trace-out trace.json
    python -m repro why --app matmul --size 4096 --out critpath.json
    python -m repro trace --app grn --size 2048 --out grn.json
    python -m repro --log-format json compare --app blackscholes --size 500000
    python -m repro fig4 --app matmul --fast
    python -m repro fig7
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.experiments.ablations import (
    render_ablation,
    run_probe_ablation,
    run_rebalance_ablation,
    run_selection_ablation,
)
from repro.experiments.fig1_models import render_fig1, run_fig1
from repro.experiments.fig4_exectime import (
    GRN_SIZES,
    MM_SIZES,
    render_sweep,
    run_fig4,
)
from repro.experiments.fig5_blackscholes import BS_SIZES, run_fig5
from repro.experiments.fig6_distribution import render_fig6, run_fig6
from repro.experiments.fig7_idleness import render_fig7, run_fig7
from repro.experiments.runner import (
    PAPER_POLICIES,
    make_application,
    make_policy,
    run_policies,
)
from repro.experiments.solver_overhead import run_solver_overhead
from repro.experiments.table1 import render_table1
from repro.cluster import GroundTruth, paper_cluster
from repro.errors import ConfigurationError
from repro.obs.events import new_run_id, push_run_id
from repro.obs.metrics import get_registry
from repro.obs.report import RunReport
from repro.obs.trace_export import trace_to_chrome, write_chrome_trace
from repro.runtime import Runtime
from repro.util.logging import configure_from_env
from repro.util.tables import format_table

__all__ = ["main", "build_parser", "EXIT_CODE_TABLE"]

#: Exit code of a failed gate (``run``/``serve --slo``,
#: ``why --assert-bound``).
EXIT_GATE_FAILED = 2

#: The one authoritative exit-code contract, rendered into ``repro
#: --help`` (epilog) and mirrored by the README table (a test asserts
#: the two agree).
EXIT_CODE_TABLE: tuple[tuple[int, str, str], ...] = (
    (0, "ok", "command completed and every gate it ran passed"),
    (1, "error", "usage or data error: bad configuration, missing "
     "artifact (top without a series), policy without a ledger (explain)"),
    (EXIT_GATE_FAILED, "regressed", "a gate failed: run/serve --slo "
     "objective violation, or why --assert-bound breach "
     "(attribution != makespan, bound > makespan, empty path, "
     "busy-overlap)"),
    (3, "chaos", "chaos campaign (batch or --serve) finished with "
     "invariant violations, or a serve episode produced scorecard "
     "invariant errors"),
)


def _exit_code_epilog() -> str:
    """The ``repro --help`` epilog rendered from :data:`EXIT_CODE_TABLE`."""
    lines = ["exit codes:"]
    for code, name, meaning in EXIT_CODE_TABLE:
        lines.append(f"  {code}  {name:<10} {meaning}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PLB-HeC reproduction: run workloads and regenerate "
        "the paper's tables and figures.",
        epilog=_exit_code_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error", "critical"],
        default=None,
        help="console log level (default: REPRO_LOG, else no console logs)",
    )
    parser.add_argument(
        "--log-format",
        choices=["text", "json"],
        default=None,
        help="console log format: text or JSON-lines (default: REPRO_LOG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--app",
            choices=["matmul", "grn", "blackscholes"],
            default="matmul",
        )
        p.add_argument("--size", type=int, default=16384)
        p.add_argument("--machines", type=int, default=4, choices=[1, 2, 3, 4])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--noise", type=float, default=0.005)

    def add_policy_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--policy",
            default="plb-hec",
            choices=[*PAPER_POLICIES, "hdss-async", "gss", "static", "oracle"],
        )

    def add_fault_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--fail",
            metavar="DEV@T",
            action="append",
            default=[],
            help="permanently fail a device at virtual time T "
            "(repeatable, e.g. --fail A.gpu0@0.05)",
        )
        p.add_argument(
            "--perturb",
            metavar="DEV@T:FACTOR",
            action="append",
            default=[],
            help="multiply a device's execution times by FACTOR from time T "
            "on (repeatable, e.g. --perturb A.cpu@0.1:2.5)",
        )
        p.add_argument(
            "--transient",
            metavar="DEV@T+D",
            action="append",
            default=[],
            help="take a device down at time T and bring it back after D "
            "seconds (repeatable, e.g. --transient B.gpu0@0.05+0.02)",
        )

    p_run = sub.add_parser("run", help="run one workload under one policy")
    add_workload_args(p_run)
    add_policy_arg(p_run)
    add_fault_args(p_run)
    p_run.add_argument(
        "--gantt", action="store_true", help="render an ASCII Gantt chart"
    )
    p_run.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="also export a Chrome trace-event/Perfetto timeline "
        "(with one instant marker per scheduler decision when the "
        "policy keeps a ledger)",
    )
    p_run.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="also write the run's telemetry (RunReport JSON, or "
        "Prometheus text exposition with --metrics-format prom)",
    )
    p_run.add_argument(
        "--metrics-format",
        choices=["json", "prom"],
        default="json",
        help="format of --metrics-out: RunReport JSON (default) or "
        "Prometheus text exposition of the metrics registry",
    )
    p_run.add_argument(
        "--explain-out",
        metavar="PATH",
        default=None,
        help="also write the scheduler decision ledger as explain.jsonl "
        "(policies without a ledger skip this with a note)",
    )
    p_run.add_argument(
        "--profile",
        action="store_true",
        help="capture a phase-attributed CPU profile and print the "
        "per-phase breakdown and hot functions",
    )
    p_run.add_argument(
        "--sample-interval",
        type=float,
        metavar="S",
        default=None,
        help="attach the virtual-time telemetry sampler, one sample "
        "every S virtual seconds (0: auto, ~makespan/128; sampling "
        "never changes the schedule)",
    )
    p_run.add_argument(
        "--series-out",
        metavar="PATH",
        default=None,
        help="write the sampled telemetry as series.jsonl "
        "(implies --sample-interval 0 when not given)",
    )
    p_run.add_argument(
        "--slo",
        metavar="FILE",
        default=None,
        help="evaluate an SLO spec (JSON; the literal 'default' uses "
        "the built-in objectives) against the sampled series; failing "
        "objectives print, alert, and exit 2",
    )
    p_run.add_argument(
        "--slo-report-out",
        metavar="PATH",
        default=None,
        help="write the SLO evaluation as slo_report.json "
        "(requires --slo)",
    )

    p_top = sub.add_parser(
        "top",
        help="terminal cluster view of a recorded telemetry series",
    )
    p_top.add_argument(
        "--series",
        metavar="PATH",
        default="series.jsonl",
        help="series.jsonl to render (default: series.jsonl)",
    )
    p_top.add_argument(
        "--slo-report",
        metavar="PATH",
        default=None,
        help="slo_report.json whose verdicts to show under the series",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="render one frame and exit (CI-friendly)",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh period in seconds in follow mode (default 2)",
    )
    p_top.add_argument(
        "--frames",
        type=int,
        default=None,
        help="stop after this many refreshes (default: until Ctrl-C)",
    )
    p_top.add_argument(
        "--width",
        type=int,
        default=40,
        help="sparkline width in characters (default 40)",
    )

    p_explain = sub.add_parser(
        "explain",
        help="run one workload and explain every scheduler decision "
        "(trigger, solver outcome, allocation, prediction calibration)",
    )
    add_workload_args(p_explain)
    add_policy_arg(p_explain)
    add_fault_args(p_explain)
    p_explain.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the ledger as a run-id-correlated explain.jsonl",
    )

    p_trace = sub.add_parser(
        "trace", help="run one workload and export its Perfetto timeline"
    )
    add_workload_args(p_trace)
    add_policy_arg(p_trace)
    p_trace.add_argument(
        "--out",
        metavar="PATH",
        default="trace.json",
        help="trace output path (default: trace.json)",
    )

    p_why = sub.add_parser(
        "why",
        help="explain a run's makespan: critical path, 100%% attribution, "
        "what-if headroom bounds",
    )
    add_workload_args(p_why)
    add_policy_arg(p_why)
    add_fault_args(p_why)
    p_why.add_argument(
        "--out",
        metavar="PATH",
        default="critpath.json",
        help="schema-validated analysis artifact "
        "(default: critpath.json, '-' to skip)",
    )
    p_why.add_argument(
        "--speedup-factor",
        type=float,
        default=2.0,
        metavar="K",
        help="k for the per-device 'if X were k× faster' sensitivity "
        "bounds (default 2)",
    )
    p_why.add_argument(
        "--assert-bound",
        action="store_true",
        help="exit 2 unless the attribution is exact (categories sum to "
        "the makespan), every bound is <= the observed makespan, the "
        "critical path is non-empty, and per-worker busy intervals "
        "never overlap",
    )
    p_why.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="also export the Perfetto timeline with critical-path "
        "slices recolored and chained by flow arrows",
    )

    def add_jobs_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="parallel worker processes (default: REPRO_JOBS or cpu count)",
        )

    p_cmp = sub.add_parser("compare", help="compare the four paper policies")
    add_workload_args(p_cmp)
    p_cmp.add_argument("--replications", type=int, default=3)
    add_jobs_arg(p_cmp)
    p_cmp.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="export one timeline with a process group per policy",
    )
    p_cmp.add_argument(
        "--profile",
        action="store_true",
        help="profile every run and print the merged hot-function table "
        "(disables the result cache for this comparison)",
    )

    p_prof = sub.add_parser(
        "profile",
        help="run one workload under the phase-attributed CPU profiler",
    )
    add_workload_args(p_prof)
    add_policy_arg(p_prof)
    p_prof.add_argument(
        "--flame",
        metavar="PATH",
        default="profile.svg",
        help="flamegraph SVG output (self-contained, dark-mode aware; "
        "default: profile.svg, '-' to skip)",
    )
    p_prof.add_argument(
        "--collapsed",
        metavar="PATH",
        default=None,
        help="collapsed-stack output for flamegraph.pl / speedscope.app",
    )
    p_prof.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        dest="json_out",
        help="raw profile snapshot (phases, functions, caller edges)",
    )
    p_prof.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="Perfetto timeline with the profile as its own process group",
    )
    p_prof.add_argument(
        "--top",
        type=int,
        default=10,
        help="hot functions to print (default 10)",
    )

    sub.add_parser("table1", help="render Table I")

    p_fig1 = sub.add_parser("fig1", help="Fig. 1 measured vs fitted curves")
    p_fig1.add_argument("--points", type=int, default=12)

    for fig, sizes in (("fig4", None), ("fig5", BS_SIZES)):
        p_fig = sub.add_parser(fig, help=f"{fig} execution time / speedup")
        if fig == "fig4":
            p_fig.add_argument(
                "--app", choices=["matmul", "grn"], default="matmul"
            )
        p_fig.add_argument("--replications", type=int, default=3)
        p_fig.add_argument(
            "--fast", action="store_true", help="reduced size/machine grid"
        )
        add_jobs_arg(p_fig)

    for fig in ("fig6", "fig7"):
        p_fig = sub.add_parser(fig, help=f"{fig} distribution / idleness")
        p_fig.add_argument("--replications", type=int, default=3)
        add_jobs_arg(p_fig)

    p_oh = sub.add_parser("overhead", help="Sec. V.a solver overhead")
    p_oh.add_argument("--repetitions", type=int, default=20)

    sub.add_parser("ablations", help="DESIGN.md A1-A3 ablation studies")
    sub.add_parser("heterogeneity", help="H1 speedup-vs-heterogeneity sweep")
    sub.add_parser("sensitivity", help="S2 initial-block-size sensitivity")

    p_report = sub.add_parser(
        "report", help="full reproduction report with shape checks"
    )
    p_report.add_argument("--replications", type=int, default=3)
    p_report.add_argument("--fast", action="store_true")

    p_dash = sub.add_parser(
        "dashboard",
        help="write the self-contained HTML observability dashboard",
    )
    add_workload_args(p_dash)
    p_dash.add_argument("--replications", type=int, default=2)
    p_dash.add_argument(
        "--out",
        metavar="PATH",
        default="dashboard.html",
        help="output path (default: dashboard.html)",
    )
    p_dash.add_argument(
        "--scorecard",
        metavar="PATH",
        default=None,
        help="chaos scorecard JSON (from 'repro chaos --out') to render "
        "in the resilience section",
    )
    add_jobs_arg(p_dash)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a seeded chaos campaign and write the resilience scorecard",
    )
    p_chaos.add_argument(
        "--app",
        choices=["matmul", "grn", "blackscholes", "stencil"],
        default="matmul",
    )
    p_chaos.add_argument("--size", type=int, default=2048)
    p_chaos.add_argument("--machines", type=int, default=2, choices=[1, 2, 3, 4])
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--runs", type=int, default=16, help="campaign slots (default 16)"
    )
    p_chaos.add_argument(
        "--policies",
        default=None,
        help="comma-separated policy list (default plb-hec,greedy,hdss,gss; "
        "--serve: plb-hec,greedy,fair; --quick: plb-hec,greedy)",
    )
    p_chaos.add_argument(
        "--max-faults",
        type=int,
        default=None,
        help="max faults per schedule (default 2; --quick: 1)",
    )
    p_chaos.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke grid: two policies, one fault per run "
        "(--serve: at most 4 runs)",
    )
    p_chaos.add_argument(
        "--serve",
        action="store_true",
        help="chaos against the living cluster: inject the fault "
        "schedules into service episodes (repro serve) instead of "
        "batch runs; --app/--size are ignored, --policies takes "
        "balancer flavors (plb-hec,fair,greedy)",
    )
    p_chaos.add_argument(
        "--rate",
        type=float,
        default=3.0,
        help="--serve only: arrival rate in jobs per virtual second "
        "(default 3.0)",
    )
    p_chaos.add_argument(
        "--duration",
        type=float,
        default=12.0,
        help="--serve only: arrival horizon in virtual seconds "
        "(default 12.0)",
    )
    p_chaos.add_argument(
        "--out",
        metavar="PATH",
        default="chaos_scorecard.json",
        help="scorecard JSON path ('-' to skip writing)",
    )
    p_chaos.add_argument(
        "--dashboard",
        metavar="PATH",
        default=None,
        help="also render an HTML dashboard with the resilience section",
    )
    p_chaos.add_argument(
        "--history",
        metavar="PATH",
        default=None,
        help="history store to append the campaign summary to "
        "('-' disables; default: REPRO_HISTORY, else .repro_history/)",
    )
    add_jobs_arg(p_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="host the cluster as an online service under seeded "
        "open-loop arrivals and write the serving scorecard",
    )
    p_serve.add_argument(
        "--rate",
        type=float,
        default=2.0,
        help="base arrival rate in jobs per virtual second (default 2.0)",
    )
    p_serve.add_argument(
        "--duration",
        type=float,
        default=30.0,
        help="arrival horizon in virtual seconds; the service keeps "
        "running until admitted jobs drain (default 30.0)",
    )
    p_serve.add_argument(
        "--pattern",
        choices=["constant", "diurnal", "bursty"],
        default="constant",
        help="arrival-rate modulation (default constant)",
    )
    p_serve.add_argument(
        "--tenants",
        type=int,
        default=2,
        help="number of tenants sharing the service (default 2)",
    )
    p_serve.add_argument(
        "--machines", type=int, default=2, choices=[1, 2, 3, 4]
    )
    p_serve.add_argument(
        "--policy",
        choices=["plb-hec", "fair", "greedy"],
        default="plb-hec",
        help="continuous balancer flavor (default plb-hec)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="admission queue bound; arrivals beyond it are shed "
        "(default 16)",
    )
    p_serve.add_argument(
        "--shed-policy",
        choices=["reject", "drop-oldest", "priority-shed"],
        default="reject",
        help="what to shed when the admission queue is full "
        "(default reject)",
    )
    p_serve.add_argument(
        "--max-active",
        type=int,
        default=4,
        help="jobs served concurrently (default 4)",
    )
    p_serve.add_argument(
        "--deadline-factor",
        type=float,
        default=0.0,
        help="per-job deadline as a multiple of the template's ideal "
        "service time; 0 disables deadlines (default 0)",
    )
    p_serve.add_argument(
        "--retry-budget",
        type=int,
        default=2,
        help="lost-block retries each tenant may consume before its "
        "jobs fail hard (default 2)",
    )
    p_serve.add_argument(
        "--rebalance-interval",
        type=float,
        default=0.5,
        help="collect-calculate-rebalance cycle period in virtual "
        "seconds (default 0.5)",
    )
    p_serve.add_argument(
        "--sample-interval",
        type=float,
        default=0.0,
        metavar="S",
        help="telemetry sample period in virtual seconds "
        "(0: one sample per rebalance cycle)",
    )
    p_serve.add_argument(
        "--noise",
        type=float,
        default=0.0,
        help="lognormal sigma on block execution times (default 0)",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    add_fault_args(p_serve)
    p_serve.add_argument(
        "--slo",
        metavar="FILE",
        default=None,
        help="evaluate an SLO spec (JSON) against the serve_* series; "
        "failing objectives print, alert, and exit 2",
    )
    p_serve.add_argument(
        "--slo-report-out",
        metavar="PATH",
        default=None,
        help="write the SLO evaluation as slo_report.json "
        "(requires --slo)",
    )
    p_serve.add_argument(
        "--scorecard-out",
        metavar="PATH",
        default="serve_scorecard.json",
        help="serving scorecard JSON path ('-' to skip writing)",
    )
    p_serve.add_argument(
        "--series-out",
        metavar="PATH",
        default=None,
        help="write the sampled serve_* telemetry as series.jsonl",
    )
    return parser


def _split_fault_spec(spec: str, flag: str, syntax: str) -> tuple[str, str]:
    """``DEV@REST`` → ``(DEV, REST)``; anything else is a usage error."""
    device, sep, rest = spec.partition("@")
    if not sep or not device or not rest:
        raise ConfigurationError(f"--{flag} wants {syntax}, got {spec!r}")
    return device, rest


def _parse_fault_flags(args: argparse.Namespace):
    """Fault objects from the repeatable ``run`` injection flags.

    Malformed specs (and malformed numbers inside them) surface as
    :class:`ConfigurationError` naming the flag; unknown device ids are
    validated later by the runtime against the actual cluster.
    """
    from repro.runtime import DeviceFailure, Perturbation, TransientFailure

    perturbations, failures, transients = [], [], []
    try:
        for spec in getattr(args, "fail", None) or []:
            device, when = _split_fault_spec(spec, "fail", "DEV@T")
            failures.append(DeviceFailure(device, float(when)))
        for spec in getattr(args, "perturb", None) or []:
            device, rest = _split_fault_spec(spec, "perturb", "DEV@T:FACTOR")
            when, sep, factor = rest.partition(":")
            if not sep or not when or not factor:
                raise ConfigurationError(
                    f"--perturb wants DEV@T:FACTOR, got {spec!r}"
                )
            perturbations.append(
                Perturbation(device, float(when), float(factor))
            )
        for spec in getattr(args, "transient", None) or []:
            device, rest = _split_fault_spec(spec, "transient", "DEV@T+D")
            when, sep, downtime = rest.partition("+")
            if not sep or not when or not downtime:
                raise ConfigurationError(
                    f"--transient wants DEV@T+D, got {spec!r}"
                )
            transients.append(
                TransientFailure(device, float(when), float(downtime))
            )
    except ValueError as exc:
        raise ConfigurationError(f"bad fault spec: {exc}") from exc
    return tuple(perturbations), tuple(failures), tuple(transients)


def _simulate(
    args: argparse.Namespace,
    policy_name: str,
    *,
    seed: int | None = None,
    sampler=None,
):
    """Run one workload/policy pair; returns ``(policy, result)``."""
    app = make_application(args.app, args.size)
    cluster = paper_cluster(args.machines)
    ground_truth = GroundTruth(cluster, app.kernel_characteristics())
    policy = make_policy(policy_name, ground_truth=ground_truth)
    perturbations, failures, transients = _parse_fault_flags(args)
    runtime = Runtime(
        cluster,
        app.codelet(),
        seed=args.seed if seed is None else seed,
        noise_sigma=args.noise,
        perturbations=perturbations,
        failures=failures,
        transients=transients,
    )
    result = runtime.run(
        policy, app.total_units, app.default_initial_block_size(),
        sampler=sampler,
    )
    return policy, result


def _run_config(args: argparse.Namespace, policy_name: str) -> dict:
    return {
        "app": args.app,
        "size": args.size,
        "machines": args.machines,
        "policy": policy_name,
        "seed": args.seed,
        "noise": args.noise,
    }


def _print_profile_summary(snapshot: dict, *, top: int = 10) -> None:
    """Print the per-phase breakdown and hot-function tables."""
    from repro.obs.profiler import hot_functions, phase_breakdown

    breakdown = phase_breakdown(snapshot)
    print()
    print(
        format_table(
            ["phase", "self_ms", "wall_ms", "share"],
            [
                [
                    phase,
                    d["self_s"] * 1e3,
                    d["wall_s"] * 1e3,
                    f"{d['share'] * 100:.1f}%",
                ]
                for phase, d in breakdown.items()
            ],
            title="CPU time by phase",
        )
    )
    rows = hot_functions(snapshot, top=top)
    if rows:
        print()
        print(
            format_table(
                ["function", "phase", "calls", "self_ms", "cum_ms", "share"],
                [
                    [
                        h["function"],
                        h["phase"],
                        h["calls"],
                        h["self_s"] * 1e3,
                        h["cum_s"] * 1e3,
                        f"{h['share'] * 100:.1f}%",
                    ]
                    for h in rows
                ],
                title=f"Top {len(rows)} hot functions",
            )
        )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.obs.profiler import profiling

    if args.slo_report_out and not args.slo:
        raise ConfigurationError("--slo-report-out requires --slo")
    sampler = None
    if (
        args.sample_interval is not None
        or args.series_out
        or args.slo
    ):
        from repro.obs.timeseries import ClusterSampler

        sampler = ClusterSampler(args.sample_interval)
    run_id = new_run_id(repr(sorted(_run_config(args, args.policy).items())))
    prof_snapshot = None
    with push_run_id(run_id):
        if args.profile:
            with profiling() as prof:
                policy, result = _simulate(args, args.policy, sampler=sampler)
            prof_snapshot = prof.snapshot()
        else:
            policy, result = _simulate(args, args.policy, sampler=sampler)
    idle = result.idle_fractions
    print(
        format_table(
            ["app", "size", "machines", "policy", "time_s", "mean_idle",
             "rebalances", "overhead_ms"],
            [[
                args.app, args.size, args.machines, policy.name,
                result.makespan, sum(idle.values()) / len(idle),
                result.num_rebalances, result.solver_overhead_s * 1e3,
            ]],
        )
    )
    trace = result.trace
    if trace.failures or trace.recoveries or trace.lost_blocks:
        lost = sum(units for _, _, units, _ in trace.lost_blocks)
        print(
            f"faults: {len(trace.failures)} down event(s), "
            f"{len(trace.recoveries)} recovery(ies), "
            f"{lost} lost unit(s) reprocessed"
        )
    if prof_snapshot is not None:
        _print_profile_summary(prof_snapshot)
    ledger_dict = result.ledger.to_dict() if result.ledger is not None else None
    exit_code = 0
    alerts = None
    if sampler is not None:
        exit_code, alerts = _run_telemetry(args, sampler, run_id, policy.name)
    if args.trace_out:
        doc = trace_to_chrome(
            result.trace,
            run_id=run_id,
            metadata=_run_config(args, policy.name),
            profile=prof_snapshot,
            decisions=ledger_dict.get("decisions") if ledger_dict else None,
            alerts=alerts,
        )
        path = write_chrome_trace(doc, args.trace_out)
        print(f"trace written to {path}")
    if args.metrics_out:
        if args.metrics_format == "prom":
            Path(args.metrics_out).write_text(
                get_registry().to_prometheus(), encoding="utf-8"
            )
        else:
            report = RunReport.build(
                config=_run_config(args, policy.name),
                makespan=result.makespan,
                rebalances=result.num_rebalances,
                solver_overhead_s=result.solver_overhead_s,
                phase_summary=result.trace.phase_summary(),
                metrics=get_registry().snapshot(),
                run_id=run_id,
            )
            Path(args.metrics_out).write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True),
                encoding="utf-8",
            )
        print(f"metrics written to {args.metrics_out} ({args.metrics_format})")
    if args.explain_out:
        if result.ledger is None:
            print(
                f"no decision ledger: policy {policy.name!r} keeps none "
                "(--explain-out skipped)"
            )
        else:
            from repro.obs.ledger import write_explain

            write_explain(ledger_dict, args.explain_out)
            print(
                f"explain ledger written to {args.explain_out} "
                f"({len(ledger_dict['decisions'])} decision(s))"
            )
    if args.gantt:
        from repro.util.gantt import render_gantt

        print()
        print(render_gantt(result.trace))
    return exit_code


def _run_telemetry(
    args: argparse.Namespace, sampler, run_id: str, policy_name: str
) -> tuple[int, list[dict] | None]:
    """``run``'s post-run telemetry: series artifact, SLO gate, alerts.

    Returns ``(exit_code, alerts)`` where ``exit_code`` is 2 when an
    SLO objective failed (the gate-failed code) and ``alerts``
    are the instant markers to stamp into a ``--trace-out`` timeline.
    """
    from repro.obs.timeseries import publish_windowed_gauges, write_series

    if args.series_out:
        path = write_series(
            args.series_out,
            sampler.store,
            run_id=run_id,
            interval=sampler.interval or 0.0,
            meta=_run_config(args, policy_name),
        )
        print(
            f"series written to {path} ({sampler.samples_taken} samples, "
            f"interval {sampler.interval or 0.0:.3g}s virtual)"
        )
    # Windowed ts.* gauges land in the registry before --metrics-out
    # renders it, so the Prometheus exposition carries the aggregates.
    publish_windowed_gauges(sampler.store)
    if not args.slo:
        return 0, None
    return _slo_gate(args.slo, sampler.store, run_id, args.slo_report_out)


def _slo_gate(
    slo: str, store, run_id: str, report_out: str | None
) -> tuple[int, list[dict] | None]:
    """Evaluate an SLO spec against a recorded series store and gate.

    Shared by ``run`` (batch telemetry) and ``serve`` (service
    telemetry): prints the verdict table, emits alerts, optionally
    writes the report, and returns exit 2 when an objective failed.
    """
    from repro.obs.regress import detect_slo_anomalies
    from repro.obs.slo import (
        DEFAULT_SLO_SPEC,
        emit_slo_alerts,
        evaluate_slo,
        load_slo_spec,
        slo_alerts,
        write_slo_report,
    )

    spec = DEFAULT_SLO_SPEC if slo == "default" else load_slo_spec(slo)
    report = evaluate_slo(spec, store, run_id=run_id)
    emit_slo_alerts(report)
    detect_slo_anomalies(report)

    def fmt_opt(value, pattern: str) -> str:
        return pattern.format(value) if value is not None else "-"

    print(
        format_table(
            ["objective", "expr", "verdict", "measured", "burn", "severity"],
            [
                [
                    row["name"],
                    row["expr"],
                    row["verdict"],
                    fmt_opt(row["measured"], "{:.4g}"),
                    fmt_opt(row["burn_rate"], "{:.2f}x"),
                    row["severity"],
                ]
                for row in report["objectives"]
            ],
            title=f"SLO evaluation: {spec.name}",
        )
    )
    print(
        f"slo: {'OK' if report['ok'] else 'FAIL'} "
        f"({report['violations']} violated, {report['no_data']} no-data "
        f"of {report['evaluated']} objective(s))"
    )
    if report_out:
        path = write_slo_report(report_out, report)
        print(f"slo report written to {path}")
    return (
        0 if report["ok"] else EXIT_GATE_FAILED,
        slo_alerts(report) or None,
    )


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.timeseries import read_series, render_top

    def frame() -> str:
        header, store = read_series(args.series)
        slo_report = None
        if args.slo_report:
            slo_report = json.loads(
                Path(args.slo_report).read_text(encoding="utf-8")
            )
        return render_top(
            header, store, width=args.width, slo_report=slo_report
        )

    if not Path(args.series).exists():
        print(
            f"top: no series at {args.series} — record one with "
            "'repro run --series-out'",
            file=sys.stderr,
        )
        return 1
    if args.once:
        print(frame())
        return 0
    shown = 0
    try:
        while args.frames is None or shown < args.frames:
            # \x1b[H\x1b[2J: cursor home + clear, the classic top refresh.
            print("\x1b[H\x1b[2J" + frame(), flush=True)
            shown += 1
            if args.frames is not None and shown >= args.frames:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.ledger import decision_rows, write_explain

    run_id = new_run_id(repr(sorted(_run_config(args, args.policy).items())))
    with push_run_id(run_id):
        policy, result = _simulate(args, args.policy)
    if result.ledger is None:
        print(
            f"policy {policy.name!r} keeps no decision ledger; "
            "nothing to explain (try --policy plb-hec)"
        )
        return 1
    data = result.ledger.to_dict()

    def fmt_opt(value, pattern: str) -> str:
        return pattern.format(value) if value is not None else "-"

    rows = []
    for row in decision_rows(data):
        method = row["method"]
        if row["fallback_stage"]:
            method = f"{method} [!]"
        rows.append(
            [
                row["id"],
                f"{row['t']:.4f}",
                row["trigger"],
                method,
                row["iterations"],
                fmt_opt(row["kkt_error"], "{:.1e}"),
                fmt_opt(row["predicted_time"], "{:.4f}"),
                row["devices"],
                row["blocks"],
                fmt_opt(row["mape"], "{:.1%}"),
            ]
        )
    print(
        format_table(
            ["id", "t_s", "trigger", "method", "iters", "kkt", "pred_s",
             "devices", "blocks", "mape"],
            rows,
            title=f"Scheduler decisions: {args.app} size={args.size} "
            f"machines={args.machines} policy={policy.name} seed={args.seed}",
        )
    )
    calibration = data.get("calibration", {})
    if calibration:
        print()
        print(
            format_table(
                ["device", "scored", "skipped", "mape", "bias", "drift"],
                [
                    [
                        device,
                        c.get("blocks", 0),
                        c.get("skipped", 0),
                        fmt_opt(c.get("mape"), "{:.1%}"),
                        fmt_opt(c.get("bias"), "{:+.1%}"),
                        fmt_opt(c.get("drift"), "{:+.1%}"),
                    ]
                    for device, c in sorted(calibration.items())
                ],
                title="Prediction calibration (relative error vs observed)",
            )
        )
    attribution = data.get("attribution", {})
    attributed = int(attribution.get("attributed", 0) or 0)
    total = attributed + int(attribution.get("unattributed", 0) or 0)
    coverage = attributed / total if total else 0.0
    # the ledger lists fired fallback stages in decision order
    stage_counts: dict[str, int] = {}
    for stage in data.get("fallback_stages", ()):
        stage_counts[stage] = stage_counts.get(stage, 0) + 1
    print(
        f"\n{len(data.get('decisions', []))} decision(s), "
        f"{attributed}/{total} executed block(s) attributed "
        f"({coverage:.0%} coverage)"
        + (
            "; fallback stages used: "
            + ", ".join(f"{k}={v}" for k, v in sorted(stage_counts.items()))
            if stage_counts
            else ""
        )
    )
    if args.out:
        write_explain(data, args.out)
        print(
            f"explain ledger written to {args.out} "
            f"({len(data.get('decisions', []))} decision(s))"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    run_id = new_run_id(repr(sorted(_run_config(args, args.policy).items())))
    with push_run_id(run_id):
        policy, result = _simulate(args, args.policy)
    path = write_chrome_trace(
        result.trace,
        args.out,
        run_id=run_id,
        metadata=_run_config(args, policy.name),
    )
    print(
        f"trace written to {path} "
        f"(makespan {result.makespan:.4f}s, "
        f"{result.num_rebalances} rebalances); "
        "load it at https://ui.perfetto.dev or chrome://tracing"
    )
    return 0


def _cmd_why(args: argparse.Namespace) -> int:
    import math

    from repro.obs.critpath import (
        CATEGORIES,
        analyze_trace,
        category_shares,
        validate_critpath,
        write_critpath,
    )
    from repro.resilience.invariants import check_busy_overlap

    run_id = new_run_id(repr(sorted(_run_config(args, args.policy).items())))
    with push_run_id(run_id):
        policy, result = _simulate(args, args.policy)
    analysis = analyze_trace(
        result.trace, speedup_factor=args.speedup_factor
    )
    overlaps = check_busy_overlap(result.trace)
    makespan = analysis["makespan"]
    shares = category_shares(analysis)
    print(
        format_table(
            ["category", "seconds", "share"],
            [
                [cat, analysis["categories"][cat], f"{shares[cat]:.1%}"]
                for cat in CATEGORIES
            ],
            title=f"Makespan attribution: {args.app} size={args.size} "
            f"machines={args.machines} policy={policy.name} seed={args.seed}",
        )
    )
    residual = abs(
        math.fsum(analysis["categories"].values()) - makespan
    )
    print(
        f"makespan {makespan:.4f}s fully attributed "
        f"(residual {residual:.1e}); critical path: "
        f"{analysis['path_tasks']} task(s) over "
        f"{len(analysis['devices_on_path'])} device(s)"
    )
    bottleneck = analysis["bottleneck"]
    if bottleneck:
        print(
            f"bottleneck: {bottleneck['device']} carries "
            f"{bottleneck['busy_s']:.4f}s of the path "
            f"({bottleneck['share']:.0%} of the makespan, "
            f"{bottleneck['tasks']} task(s), {bottleneck['units']} unit(s))"
        )
    bounds = analysis["bounds"]
    rows = [
        ["zero-transfer", bounds["zero_transfer"]],
        ["zero-scheduler", bounds["zero_scheduler"]],
        ["perfect-balance", bounds["perfect_balance"]],
    ] + [
        [f"{device} {args.speedup_factor:g}x faster", bound]
        for device, bound in sorted(bounds["device_speedup"].items())
    ]
    print()
    print(
        format_table(
            ["what-if", "bound_s", "headroom"],
            [
                [
                    name,
                    bound,
                    f"{(makespan - bound) / makespan:.1%}"
                    if makespan > 0
                    else "-",
                ]
                for name, bound in rows
            ],
            title="What-if lower bounds (headroom vs observed makespan)",
        )
    )
    if analysis["decisions"]:
        top = analysis["decisions"][:5]
        blamed = ", ".join(
            f"{d['id']} ({d['busy_s']:.4f}s over {d['tasks']} task(s))"
            for d in top
        )
        print(f"decisions on the critical path: {blamed}")
    problems = validate_critpath(analysis)
    problems += [f"busy-overlap: {v.message}" for v in overlaps]
    for problem in problems:
        print(f"why: {problem}", file=sys.stderr)
    if args.out and args.out != "-":
        if validate_critpath(analysis):
            print(
                f"why: not writing {args.out} (analysis failed validation)",
                file=sys.stderr,
            )
        else:
            path = write_critpath(args.out, analysis)
            print(f"critpath written to {path}")
    if args.trace_out:
        doc = trace_to_chrome(
            result.trace,
            run_id=run_id,
            metadata=_run_config(args, policy.name),
            critpath=analysis,
        )
        path = write_chrome_trace(doc, args.trace_out)
        print(f"trace written to {path}")
    if args.assert_bound and problems:
        return EXIT_GATE_FAILED
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import SweepStats

    stats = SweepStats()
    point = run_policies(
        args.app,
        args.size,
        args.machines,
        replications=args.replications,
        seed=args.seed,
        noise_sigma=args.noise,
        jobs=args.jobs,
        profile=args.profile or None,
        stats=stats,
    )
    # per-policy makespan attribution, averaged over the replications'
    # critpath payloads (ridden along in the sweep payloads)
    attribution: dict[str, list[dict]] = {}
    for payload in stats.payloads:
        critpath = (payload or {}).get("critpath")
        config = ((payload or {}).get("report") or {}).get("config") or {}
        if critpath and config.get("policy"):
            attribution.setdefault(config["policy"], []).append(critpath)

    def mean_share(name: str, category: str) -> str:
        from repro.obs.critpath import category_shares

        samples = [
            category_shares(c)[category] for c in attribution.get(name, [])
        ]
        if not samples:
            return "-"
        return f"{sum(samples) / len(samples):.1%}"

    rows = []
    for name, outcome in point.outcomes.items():
        rows.append(
            [
                name,
                outcome.mean_makespan,
                outcome.std_makespan,
                point.speedup_vs("greedy", name),
                mean_share(name, "compute"),
                mean_share(name, "transfer"),
                mean_share(name, "idle"),
                mean_share(name, "solver"),
            ]
        )
    print(
        format_table(
            ["policy", "time_s", "std_s", "speedup_vs_greedy",
             "compute", "transfer", "idle", "solver"],
            rows,
            title=f"{args.app} size={args.size} machines={args.machines}",
        )
    )
    # --profile or REPRO_PROFILE=1: either way a captured profile is shown.
    if stats.profile:
        _print_profile_summary(stats.profile)
    if args.trace_out:
        # One extra run per policy at the first replication's seed
        # (run_policies seeds rep r with seed*1000+r), each exported as
        # its own process group on a shared timeline.
        run_id = new_run_id(f"compare:{args.app}:{args.size}:{args.seed}")
        labelled = []
        with push_run_id(run_id):
            for name in point.outcomes:
                _, result = _simulate(args, name, seed=args.seed * 1000)
                labelled.append((name, result.trace))
        doc = trace_to_chrome(
            labelled,
            run_id=run_id,
            metadata=_run_config(args, "compare"),
        )
        path = write_chrome_trace(doc, args.trace_out)
        print(f"trace written to {path}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profiler import (
        collapsed_stacks,
        phase_breakdown,
        profiling,
        write_collapsed,
        write_flamegraph,
    )

    run_id = new_run_id(repr(sorted(_run_config(args, args.policy).items())))
    with push_run_id(run_id):
        with profiling() as prof:
            policy, result = _simulate(args, args.policy)
    snapshot = prof.snapshot()

    named = sum(d["share"] for d in phase_breakdown(snapshot).values())
    print(
        f"profiled {args.app} size={args.size} machines={args.machines} "
        f"policy={policy.name}: makespan {result.makespan:.4f}s, "
        f"{snapshot['total_self_s'] * 1e3:.1f}ms profiled host CPU, "
        f"{named:.1%} attributed to a named phase"
    )
    _print_profile_summary(snapshot, top=args.top)
    print()
    if args.flame and args.flame != "-":
        path = write_flamegraph(
            args.flame,
            snapshot,
            title=f"{args.app} size={args.size} {policy.name} — "
            "phase-attributed CPU profile",
        )
        print(f"flamegraph written to {path}")
    if args.collapsed:
        lines = collapsed_stacks(snapshot)
        path = write_collapsed(args.collapsed, lines)
        print(
            f"collapsed stacks written to {path} ({len(lines)} stacks); "
            "load at https://speedscope.app or pipe through flamegraph.pl"
        )
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(snapshot, indent=2, sort_keys=True), encoding="utf-8"
        )
        print(f"profile snapshot written to {args.json_out}")
    if args.trace_out:
        doc = trace_to_chrome(
            result.trace,
            run_id=run_id,
            metadata=_run_config(args, policy.name),
            profile=snapshot,
        )
        path = write_chrome_trace(doc, args.trace_out)
        print(f"trace written to {path}")
    return 0


def _resolve_history(flag: str | None):
    """The history store a command should use, or None when disabled.

    Precedence: an explicit ``--history`` flag (``-`` disables), then
    the ``REPRO_HISTORY`` environment variable (including its off
    values), then the default ``.repro_history/`` directory.
    """
    import os

    from repro.obs.history import DEFAULT_HISTORY_DIR, HistoryStore

    if flag == "-":
        return None
    if flag:
        return HistoryStore(flag)
    if os.environ.get("REPRO_HISTORY", "").strip():
        return HistoryStore.from_env()
    return HistoryStore(DEFAULT_HISTORY_DIR)


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import collect_dashboard_data, write_dashboard

    scorecard = None
    if args.scorecard:
        scorecard = json.loads(
            Path(args.scorecard).read_text(encoding="utf-8")
        )
    data = collect_dashboard_data(
        app=args.app,
        size=args.size,
        machines=args.machines,
        seed=args.seed,
        noise=args.noise,
        replications=args.replications,
        jobs=args.jobs,
        scorecard=scorecard,
    )
    path = write_dashboard(args.out, data)
    print(
        f"dashboard written to {path} "
        f"({len(data.anomalies)} anomalies); open it in any browser"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        ArrivalSpec,
        ClusterService,
        ServiceConfig,
        validate_scorecard,
        write_scorecard,
    )

    perturbations, failures, transients = _parse_fault_flags(args)
    config = ServiceConfig(
        arrivals=ArrivalSpec(
            rate=args.rate,
            duration=args.duration,
            pattern=args.pattern,
            tenants=args.tenants,
        ),
        machines=args.machines,
        policy=args.policy,
        queue_limit=args.queue_limit,
        shed_policy=args.shed_policy,
        max_active=args.max_active,
        deadline_factor=args.deadline_factor,
        retry_budget=args.retry_budget,
        rebalance_interval=args.rebalance_interval,
        sample_interval=args.sample_interval,
        noise_sigma=args.noise,
        seed=args.seed,
        faults=(*failures, *transients, *perturbations),
    )
    service = ClusterService(config)
    card = service.run()
    run_id = f"serve-{config.policy}-seed{config.seed}"

    def fmt(value, digits=3, suffix=""):
        if value is None:
            return "-"
        return f"{value:.{digits}f}{suffix}"

    jobs = card["jobs"]
    lat = card["latency_s"]
    print(
        format_table(
            ["submitted", "completed", "rejected", "shed", "timeout",
             "failed", "p50", "p95", "p99", "goodput"],
            [[
                jobs["submitted"],
                jobs["completed"],
                jobs["rejected"],
                jobs["shed"],
                jobs["timeout"],
                jobs["failed"],
                fmt(lat["p50"], suffix="s"),
                fmt(lat["p95"], suffix="s"),
                fmt(lat["p99"], suffix="s"),
                fmt(card["goodput"]["jobs_per_s"], suffix=" jobs/s"),
            ]],
            title=f"Service episode: policy={config.policy} "
            f"rate={config.arrivals.rate:g}/s "
            f"pattern={config.arrivals.pattern} "
            f"duration={config.arrivals.duration:g}s "
            f"machines={config.machines} seed={config.seed}",
        )
    )
    fallbacks = card["balancer"]["fallback_counts"]
    opens = sum(b["opens"] for b in card["breakers"].values())
    print(
        f"drained at t={card['duration_s']:.3f}s virtual, "
        f"{card['balancer']['rebalances']} rebalance cycle(s) "
        f"({', '.join(f'{k}={v}' for k, v in fallbacks.items() if v)}), "
        f"{opens} breaker open(s), "
        f"fairness {fmt(card['fairness']['jain_tenants'])}"
    )
    problems = validate_scorecard(card) + list(card["invariant_errors"])
    for problem in problems:
        print(f"invariant: {problem}")
    if args.scorecard_out != "-":
        path = write_scorecard(args.scorecard_out, card)
        print(f"scorecard written to {path}")
    if args.series_out:
        from repro.obs.timeseries import write_series

        path = write_series(
            args.series_out,
            service.store,
            run_id=run_id,
            interval=config.sample_interval or config.rebalance_interval,
            meta=config.to_dict(),
        )
        print(
            f"series written to {path} ({service.samples_taken} samples)"
        )
    exit_code = 0
    if args.slo:
        exit_code, _ = _slo_gate(
            args.slo, service.store, run_id, args.slo_report_out
        )
    if problems:
        print(f"{len(problems)} invariant violation(s) -> FAIL")
        return 3
    return exit_code


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.obs.history import chaos_entry
    from repro.resilience import ChaosConfig, run_campaign
    from repro.service.campaign import ServeChaosConfig

    if args.policies:
        policies = tuple(
            p.strip() for p in args.policies.split(",") if p.strip()
        )
    elif args.quick:
        policies = ("plb-hec", "greedy")
    elif args.serve:
        policies = ("plb-hec", "greedy", "fair")
    else:
        policies = ("plb-hec", "greedy", "hdss", "gss")
    max_faults = args.max_faults
    if max_faults is None:
        max_faults = 1 if args.quick else 2

    def fmt(value, scale=1.0, suffix="", digits=3):
        if value is None:
            return "-"
        return f"{value * scale:.{digits}f}{suffix}"

    if args.serve:
        config = ServeChaosConfig(
            policies=policies,
            runs=min(args.runs, 4) if args.quick else args.runs,
            seed=args.seed,
            rate=args.rate,
            duration=args.duration,
            machines=args.machines,
            max_faults=max_faults,
        )
        title = (
            f"Serve chaos campaign: rate={config.rate:g}/s "
            f"duration={config.duration:g}s machines={config.machines} "
            f"runs={config.runs} seed={config.seed}"
        )
        columns = ["goodput_ratio", "violations", "shed", "timeout",
                   "failed", "breaker_opens"]

        def row(agg):
            return [
                fmt(agg["mean_goodput_ratio"], digits=2, suffix="x"),
                agg["violations"],
                agg["shed"],
                agg["timeout"],
                agg["failed"],
                agg["breaker_opens"],
            ]
    else:
        config = ChaosConfig(
            apps=(args.app,),
            sizes=(args.size,),
            machines=args.machines,
            policies=policies,
            runs=args.runs,
            seed=args.seed,
            max_faults=max_faults,
        )
        title = (
            f"Chaos campaign: {args.app} size={args.size} "
            f"machines={args.machines} runs={args.runs} seed={args.seed}"
        )
        columns = ["mean_deg", "max_deg", "recovery_lag", "violations",
                   "slo_viol", "decisions", "fault_rec", "rework", "idle",
                   "fallbacks"]

        def share(agg, category):
            attribution = agg.get("mean_attribution") or {}
            if category not in attribution:
                return "-"
            return f"{attribution[category] * 100:.1f}%"

        def row(agg):
            return [
                fmt(agg["mean_degradation"], suffix="x"),
                fmt(agg["max_degradation"], suffix="x"),
                fmt(agg["mean_recovery_lag"], scale=1e3, suffix="ms",
                    digits=1),
                agg["violations"],
                agg.get("slo_violations", 0),
                agg.get("decisions_explained", 0),
                share(agg, "fault_recovery"),
                share(agg, "rework"),
                share(agg, "idle"),
                ",".join(
                    f"{k}={v}"
                    for k, v in agg.get("fallback_stages_used", {}).items()
                )
                or "-",
            ]

    scorecard = run_campaign(config, jobs=args.jobs)
    rows = [
        [
            name,
            f"{agg['survived']}/{agg['runs']}",
            f"{agg['survival_rate'] * 100:.0f}%",
            *row(agg),
        ]
        for name, agg in scorecard["policies"].items()
    ]
    print(
        format_table(
            ["policy", "survived", "rate", *columns], rows, title=title
        )
    )
    ok = scorecard["all_invariants_ok"]
    print(
        f"{scorecard['survived_runs']}/{scorecard['total_runs']} runs "
        f"survived, {scorecard['total_violations']} invariant violation(s) "
        f"-> {'OK' if ok else 'FAIL'}"
    )
    if args.out != "-":
        Path(args.out).write_text(
            json.dumps(scorecard, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"scorecard written to {args.out}")
    if args.dashboard:
        from repro.obs.dashboard import chaos_dashboard_data, write_dashboard

        path = write_dashboard(args.dashboard, chaos_dashboard_data(scorecard))
        print(f"dashboard written to {path}")
    history = _resolve_history(args.history)
    if history is not None:
        stored = history.append(chaos_entry(scorecard))
        print(f"history: appended to {history.path} "
              f"(config {stored['config_hash'][:12]})")
    return 0 if ok else 3


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_from_env(level=args.log_level, fmt=args.log_format)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "why":
        return _cmd_why(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "table1":
        print(render_table1())
        return 0
    if args.command == "fig1":
        print(render_fig1(run_fig1(points=args.points)))
        return 0
    if args.command == "fig4":
        sizes = (MM_SIZES if args.app == "matmul" else GRN_SIZES)
        machines = [4] if args.fast else [1, 2, 3, 4]
        if args.fast:
            sizes = (sizes[0], sizes[-1])
        print(
            render_sweep(
                run_fig4(
                    args.app,
                    sizes=sizes,
                    machine_counts=machines,
                    replications=args.replications,
                    jobs=args.jobs,
                )
            )
        )
        return 0
    if args.command == "fig5":
        sizes = (BS_SIZES[0], BS_SIZES[-1]) if args.fast else BS_SIZES
        machines = [4] if args.fast else [1, 2, 3, 4]
        print(
            render_sweep(
                run_fig5(
                    sizes=sizes,
                    machine_counts=machines,
                    replications=args.replications,
                    jobs=args.jobs,
                )
            )
        )
        return 0
    if args.command == "fig6":
        print(
            render_fig6(run_fig6(replications=args.replications, jobs=args.jobs))
        )
        return 0
    if args.command == "fig7":
        print(
            render_fig7(run_fig7(replications=args.replications, jobs=args.jobs))
        )
        return 0
    if args.command == "dashboard":
        return _cmd_dashboard(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "overhead":
        stats = run_solver_overhead(repetitions=args.repetitions)
        print(
            f"solver overhead: {stats.mean_ms:.1f} +- {stats.std_ms:.1f} ms "
            f"({stats.samples} solves, method={stats.method}, "
            f"iterations={stats.iterations}); paper: 170 +- 32.3 ms"
        )
        return 0
    if args.command == "heterogeneity":
        from repro.experiments.heterogeneity import (
            render_heterogeneity,
            run_heterogeneity,
        )

        print(render_heterogeneity(run_heterogeneity()))
        return 0
    if args.command == "sensitivity":
        from repro.experiments.sensitivity import (
            render_sensitivity,
            run_sensitivity,
        )

        sizes, rows = run_sensitivity()
        print(render_sensitivity(sizes, rows))
        return 0
    if args.command == "report":
        from repro.experiments.report import generate_report

        print(generate_report(replications=args.replications, fast=args.fast))
        return 0
    if args.command == "ablations":
        print(render_ablation(run_selection_ablation(), title="A1 selection"))
        print()
        print(render_ablation(run_rebalance_ablation(), title="A2 rebalancing"))
        print()
        print(render_ablation(run_probe_ablation(), title="A3 probing"))
        return 0
    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
