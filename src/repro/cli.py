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
    docs/TUTORIAL.md §9.  It writes only the scorecard (``--out``) and
    the optional ``--dashboard``.  ``--serve`` runs the same campaign
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
    on violation; ``--slo-report-out``, which requires ``--slo``,
    writes the report).  Equal seeds produce byte-identical scorecards.
``profile``
    Run one workload under the deterministic phase-attributed CPU
    profiler and write a flamegraph SVG (``--flame``), a collapsed-stack
    file for flamegraph.pl / speedscope (``--collapsed``), the raw
    snapshot (``--json``) and/or profile slices merged into a Perfetto
    timeline (``--trace-out``).  Accepts the same fault-injection flags
    as ``run``.  ``compare --profile`` profiles every run of a
    comparison instead (merged across workers, result cache bypassed);
    see docs/TUTORIAL.md §8.

Sweep-driving commands accept ``--jobs N`` (default: the ``REPRO_JOBS``
environment variable, else the CPU count) and honour ``REPRO_CACHE``
for on-disk result caching; see docs/TUTORIAL.md §5.

Global options (before the subcommand): ``--log-level
{debug,info,warning,error,critical}`` and ``--log-format {text,json}``
configure console logging; the ``REPRO_LOG`` environment variable
(``REPRO_LOG=debug``, ``REPRO_LOG=json``, ``REPRO_LOG=info:json``)
supplies defaults that the flags override.  See docs/TUTORIAL.md §6.

A usage error (an unknown flag or a bad value) exits 1, like every
other error; a library error prints one ``repro <command>: error:
<ErrorType>: <message>`` line.  ``repro --help`` lists the exit codes.

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
import math
import sys
from contextlib import nullcontext
from functools import partial
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
from repro.errors import ConfigurationError, ReproError
from repro.obs.artifact import check, read_json, write_json, write_text
from repro.obs.events import new_run_id, push_run_id
from repro.obs.ledger import decision_rows, ledger_summary, write_explain
from repro.obs.metrics import get_registry, snapshot_to_prometheus
from repro.obs.profiler import (
    collapsed_stacks,
    hot_function_rows,
    phase_breakdown,
    profiling,
    write_collapsed,
    write_flamegraph,
)
from repro.obs.report import RunReport
from repro.obs.timeseries import (
    ClusterSampler,
    publish_windowed_gauges,
    write_series,
)
from repro.obs.trace_export import trace_to_chrome, write_chrome_trace
from repro.runtime import Runtime
from repro.util.logging import configure_from_env
from repro.util.stats import left_sum
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
    (1, "error", "usage or data error: unknown flag or bad value, bad "
     "configuration, missing or malformed artifact (top without a series, "
     "a non-JSON or invalid file read back), policy without a ledger "
     "(explain)"),
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


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1.

    :data:`EXIT_CODE_TABLE` reserves argparse's own code, 2, for a
    failed gate.  Subparsers inherit the class through ``parser_class``.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(low: int, kind: type = int):
    """An argparse ``type``: a finite ``kind`` value ``>= low``."""

    def parse(text: str):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value

    # argparse names the type in its "invalid int value" message
    parse.__name__ = kind.__name__
    return parse


def _flag(*names: str, **kwargs) -> tuple:
    """One ``add_argument`` call, declared as a row of the command table."""
    return names, kwargs


# Flag groups that several commands share, each declared once.
_WORKLOAD = (
    _flag(
        "--app",
        choices=["matmul", "grn", "blackscholes"],
        default="matmul",
    ),
    _flag("--size", type=int, default=16384),
    _flag("--machines", type=int, default=4, choices=[1, 2, 3, 4]),
    _flag("--seed", type=int, default=0),
    _flag("--noise", type=float, default=0.005),
)
_POLICY = _flag(
    "--policy",
    default="plb-hec",
    choices=[*PAPER_POLICIES, "hdss-async", "gss", "static", "oracle"],
)
_FAULTS = (
    _flag(
        "--fail",
        metavar="DEV@T",
        action="append",
        default=[],
        help="permanently fail a device at virtual time T "
        "(repeatable, e.g. --fail A.gpu0@0.05)",
    ),
    _flag(
        "--perturb",
        metavar="DEV@T:FACTOR",
        action="append",
        default=[],
        help="multiply a device's execution times by FACTOR from time T "
        "on (repeatable, e.g. --perturb A.cpu@0.1:2.5)",
    ),
    _flag(
        "--transient",
        metavar="DEV@T+D",
        action="append",
        default=[],
        help="take a device down at time T and bring it back after D "
        "seconds (repeatable, e.g. --transient B.gpu0@0.05+0.02)",
    ),
)
#: ``--slo-report-out`` without ``--slo`` is refused by :func:`main`.
_SLO = (
    _flag(
        "--slo",
        metavar="FILE",
        default=None,
        help="evaluate an SLO spec (JSON; the literal 'default' uses "
        "the built-in objectives) against the sampled series; failing "
        "objectives print, alert, and exit 2",
    ),
    _flag(
        "--slo-report-out",
        metavar="PATH",
        default=None,
        help="write the SLO evaluation as slo_report.json "
        "(requires --slo)",
    ),
)
_JOBS = _flag(
    "--jobs",
    type=int,
    default=None,
    help="parallel worker processes (default: REPRO_JOBS or cpu count)",
)
_REPLICATIONS = _flag("--replications", type=int, default=3)
_FAST = _flag("--fast", action="store_true", help="reduced size/machine grid")
#: ``chaos --quick``'s policy grid (the CI smoke campaign).
_QUICK_POLICIES = ("plb-hec", "greedy")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing).

    Every subcommand is one row of the table below: its name, the
    handler :func:`main` calls, its help and its flags in ``--help``
    order.  ``serve`` and ``chaos`` take their defaults from the
    configs they fill in.
    """
    from repro.resilience import ChaosConfig
    from repro.service import ArrivalSpec, ServiceConfig
    from repro.service.campaign import ServeChaosConfig

    parser = _Parser(
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
    commands = (
        ("run", _cmd_run, "run one workload under one policy", (
            *_WORKLOAD,
            _POLICY,
            *_FAULTS,
            _flag(
                "--gantt", action="store_true", help="render an ASCII Gantt chart"
            ),
            _flag(
                "--trace-out",
                metavar="PATH",
                default=None,
                help="also export a Chrome trace-event/Perfetto timeline "
                "(with one instant marker per scheduler decision when the "
                "policy keeps a ledger)",
            ),
            _flag(
                "--metrics-out",
                metavar="PATH",
                default=None,
                help="also write the run's telemetry (RunReport JSON, or "
                "Prometheus text exposition with --metrics-format prom)",
            ),
            _flag(
                "--metrics-format",
                choices=["json", "prom"],
                default="json",
                help="format of --metrics-out: RunReport JSON (default) or "
                "Prometheus text exposition of the metrics registry",
            ),
            _flag(
                "--explain-out",
                metavar="PATH",
                default=None,
                help="also write the scheduler decision ledger as explain.jsonl "
                "(policies without a ledger skip this with a note)",
            ),
            _flag(
                "--sample-interval",
                type=float,
                metavar="S",
                default=None,
                help="attach the virtual-time telemetry sampler, one sample "
                "every S virtual seconds (0: auto, ~makespan/128; sampling "
                "never changes the schedule)",
            ),
            _flag(
                "--series-out",
                metavar="PATH",
                default=None,
                help="write the sampled telemetry as series.jsonl "
                "(implies --sample-interval 0 when not given)",
            ),
            *_SLO,
        )),
        ("top", _cmd_top,
         "terminal cluster view of a recorded telemetry series", (
            _flag(
                "--series",
                metavar="PATH",
                default="series.jsonl",
                help="series.jsonl to render (default: series.jsonl)",
            ),
            _flag(
                "--slo-report",
                metavar="PATH",
                default=None,
                help="slo_report.json whose verdicts to show under the series",
            ),
            _flag(
                "--once",
                action="store_true",
                help="render one frame and exit (CI-friendly)",
            ),
            _flag(
                "--interval",
                type=_at_least(0, float),
                default=2.0,
                help="refresh period in seconds in follow mode (default 2)",
            ),
            _flag(
                "--frames",
                type=_at_least(1),
                default=None,
                help="stop after this many refreshes (default: until Ctrl-C)",
            ),
            _flag(
                "--width",
                type=_at_least(1),
                default=40,
                help="sparkline width in characters (default 40)",
            ),
        )),
        ("explain", _cmd_explain,
         "run one workload and explain every scheduler decision "
         "(trigger, solver outcome, allocation, prediction calibration)", (
            *_WORKLOAD,
            _POLICY,
            *_FAULTS,
            _flag(
                "--out",
                metavar="PATH",
                default=None,
                help="also write the ledger as a run-id-correlated explain.jsonl",
            ),
        )),
        ("trace", _cmd_trace,
         "run one workload and export its Perfetto timeline", (
            *_WORKLOAD,
            _POLICY,
            _flag(
                "--out",
                metavar="PATH",
                default="trace.json",
                help="trace output path (default: trace.json)",
            ),
        )),
        ("why", _cmd_why,
         "explain a run's makespan: critical path, 100%% attribution, "
         "what-if headroom bounds", (
            *_WORKLOAD,
            _POLICY,
            *_FAULTS,
            _flag(
                "--out",
                metavar="PATH",
                default="critpath.json",
                help="schema-validated analysis artifact "
                "(default: critpath.json, '-' to skip)",
            ),
            _flag(
                "--speedup-factor",
                type=float,
                default=2.0,
                metavar="K",
                help="k for the per-device 'if X were k× faster' sensitivity "
                "bounds (default 2)",
            ),
            _flag(
                "--assert-bound",
                action="store_true",
                help="exit 2 unless the attribution is exact (categories sum to "
                "the makespan), every bound is <= the observed makespan, the "
                "critical path is non-empty, and per-worker busy intervals "
                "never overlap",
            ),
            _flag(
                "--trace-out",
                metavar="PATH",
                default=None,
                help="also export the Perfetto timeline with critical-path "
                "slices recolored and chained by flow arrows",
            ),
        )),
        ("compare", _cmd_compare, "compare the four paper policies", (
            *_WORKLOAD,
            _REPLICATIONS,
            _JOBS,
            _flag(
                "--trace-out",
                metavar="PATH",
                default=None,
                help="export one timeline with a process group per policy",
            ),
            _flag(
                "--profile",
                action="store_true",
                help="profile every run and print the merged hot-function table "
                "(disables the result cache for this comparison)",
            ),
        )),
        ("profile", _cmd_profile,
         "run one workload under the phase-attributed CPU profiler", (
            *_WORKLOAD,
            _POLICY,
            *_FAULTS,
            _flag(
                "--flame",
                metavar="PATH",
                default="profile.svg",
                help="flamegraph SVG output (self-contained, dark-mode aware; "
                "default: profile.svg, '-' to skip)",
            ),
            _flag(
                "--collapsed",
                metavar="PATH",
                default=None,
                help="collapsed-stack output for flamegraph.pl / speedscope.app",
            ),
            _flag(
                "--json",
                metavar="PATH",
                default=None,
                dest="json_out",
                help="raw profile snapshot (phases, functions, caller edges)",
            ),
            _flag(
                "--trace-out",
                metavar="PATH",
                default=None,
                help="Perfetto timeline with the profile as its own process group",
            ),
            _flag(
                "--top",
                type=_at_least(1),
                default=10,
                help="hot functions to print (default 10)",
            ),
        )),
        ("table1", lambda args: print(render_table1()), "render Table I", ()),
        ("fig1", lambda args: print(render_fig1(run_fig1(points=args.points))),
         "Fig. 1 measured vs fitted curves",
         (_flag("--points", type=int, default=12),)),
        ("fig4", lambda args: _print_sweep(
            args,
            partial(run_fig4, args.app),
            MM_SIZES if args.app == "matmul" else GRN_SIZES,
        ), "fig4 execution time / speedup", (
            _flag("--app", choices=["matmul", "grn"], default="matmul"),
            _REPLICATIONS,
            _FAST,
            _JOBS,
        )),
        ("fig5", lambda args: _print_sweep(args, run_fig5, BS_SIZES),
         "fig5 execution time / speedup", (_REPLICATIONS, _FAST, _JOBS)),
        ("fig6", lambda args: print(render_fig6(
            run_fig6(replications=args.replications, jobs=args.jobs)
        )), "fig6 distribution / idleness", (_REPLICATIONS, _JOBS)),
        ("fig7", lambda args: print(render_fig7(
            run_fig7(replications=args.replications, jobs=args.jobs)
        )), "fig7 distribution / idleness", (_REPLICATIONS, _JOBS)),
        ("overhead", _cmd_overhead, "Sec. V.a solver overhead",
         (_flag("--repetitions", type=int, default=20),)),
        ("ablations", _cmd_ablations, "DESIGN.md A1-A3 ablation studies", ()),
        ("heterogeneity", _cmd_heterogeneity,
         "H1 speedup-vs-heterogeneity sweep", ()),
        ("sensitivity", _cmd_sensitivity,
         "S2 initial-block-size sensitivity", ()),
        ("report", _cmd_report, "full reproduction report with shape checks",
         (_REPLICATIONS, _flag("--fast", action="store_true"))),
        ("dashboard", _cmd_dashboard,
         "write the self-contained HTML observability dashboard", (
            *_WORKLOAD,
            _flag("--replications", type=int, default=2),
            _flag(
                "--out",
                metavar="PATH",
                default="dashboard.html",
                help="output path (default: dashboard.html)",
            ),
            _flag(
                "--scorecard",
                metavar="PATH",
                default=None,
                help="chaos scorecard JSON (from 'repro chaos --out') to render "
                "in the resilience section",
            ),
            _JOBS,
        )),
        ("chaos", _cmd_chaos,
         "run a seeded chaos campaign and write the resilience scorecard", (
            _flag(
                "--app",
                choices=["matmul", "grn", "blackscholes", "stencil"],
                default="matmul",
            ),
            _flag("--size", type=int, default=2048),
            _flag("--machines", type=int, default=2, choices=[1, 2, 3, 4]),
            _flag("--seed", type=int, default=0),
            _flag(
                "--runs", type=int, default=16, help="campaign slots (default 16)"
            ),
            _flag(
                "--policies",
                default=None,
                help="comma-separated policy list (default "
                f"{','.join(ChaosConfig.policies)}; --serve: "
                f"{','.join(ServeChaosConfig.policies)}; --quick: "
                f"{','.join(_QUICK_POLICIES)})",
            ),
            _flag(
                "--max-faults",
                type=int,
                default=None,
                help=f"max faults per schedule (default {ChaosConfig.max_faults}; "
                "--quick: 1)",
            ),
            _flag(
                "--quick",
                action="store_true",
                help="CI smoke grid: two policies, one fault per run "
                "(--serve: at most 4 runs)",
            ),
            _flag(
                "--serve",
                action="store_true",
                help="chaos against the living cluster: inject the fault "
                "schedules into service episodes (repro serve) instead of "
                "batch runs; --app/--size are ignored, --policies takes "
                "balancer flavors (plb-hec,fair,greedy)",
            ),
            _flag(
                "--rate",
                type=float,
                default=ServeChaosConfig.rate,
                help="--serve only: arrival rate in jobs per virtual second "
                "(default %(default)s)",
            ),
            _flag(
                "--duration",
                type=float,
                default=ServeChaosConfig.duration,
                help="--serve only: arrival horizon in virtual seconds "
                "(default %(default)s)",
            ),
            _flag(
                "--out",
                metavar="PATH",
                default="chaos_scorecard.json",
                help="scorecard JSON path ('-' to skip writing)",
            ),
            _flag(
                "--dashboard",
                metavar="PATH",
                default=None,
                help="also render an HTML dashboard with the resilience section",
            ),
            _JOBS,
        )),
        ("serve", _cmd_serve,
         "host the cluster as an online service under seeded "
         "open-loop arrivals and write the serving scorecard", (
            _flag(
                "--rate",
                type=float,
                default=ArrivalSpec.rate,
                help="base arrival rate in jobs per virtual second "
                "(default %(default)s)",
            ),
            _flag(
                "--duration",
                type=float,
                default=ArrivalSpec.duration,
                help="arrival horizon in virtual seconds; the service keeps "
                "running until admitted jobs drain (default %(default)s)",
            ),
            _flag(
                "--pattern",
                choices=["constant", "diurnal", "bursty"],
                default=ArrivalSpec.pattern,
                help="arrival-rate modulation (default %(default)s)",
            ),
            _flag(
                "--tenants",
                type=int,
                default=ArrivalSpec.tenants,
                help="number of tenants sharing the service (default %(default)s)",
            ),
            _flag(
                "--machines",
                type=int,
                default=ServiceConfig.machines,
                choices=[1, 2, 3, 4],
            ),
            _flag(
                "--policy",
                choices=["plb-hec", "fair", "greedy"],
                default=ServiceConfig.policy,
                help="continuous balancer flavor (default %(default)s)",
            ),
            _flag(
                "--queue-limit",
                type=int,
                default=ServiceConfig.queue_limit,
                help="admission queue bound; arrivals beyond it are shed "
                "(default %(default)s)",
            ),
            _flag(
                "--shed-policy",
                choices=["reject", "drop-oldest", "priority-shed"],
                default=ServiceConfig.shed_policy,
                help="what to shed when the admission queue is full "
                "(default %(default)s)",
            ),
            _flag(
                "--max-active",
                type=int,
                default=ServiceConfig.max_active,
                help="jobs served concurrently (default %(default)s)",
            ),
            _flag(
                "--deadline-factor",
                type=float,
                default=ServiceConfig.deadline_factor,
                help="per-job deadline as a multiple of the template's ideal "
                "service time; 0 disables deadlines (default %(default)s)",
            ),
            _flag(
                "--retry-budget",
                type=int,
                default=ServiceConfig.retry_budget,
                help="lost-block retries each tenant may consume before its "
                "jobs fail hard (default %(default)s)",
            ),
            _flag(
                "--rebalance-interval",
                type=float,
                default=ServiceConfig.rebalance_interval,
                help="collect-calculate-rebalance cycle period in virtual "
                "seconds (default %(default)s)",
            ),
            _flag(
                "--sample-interval",
                type=float,
                default=ServiceConfig.sample_interval,
                metavar="S",
                help="telemetry sample period in virtual seconds "
                "(0: one sample per rebalance cycle)",
            ),
            _flag(
                "--noise",
                type=float,
                default=ServiceConfig.noise_sigma,
                help="lognormal sigma on block execution times "
                "(default %(default)s)",
            ),
            _flag("--seed", type=int, default=ServiceConfig.seed),
            *_FAULTS,
            *_SLO,
            _flag(
                "--scorecard-out",
                metavar="PATH",
                default="serve_scorecard.json",
                help="serving scorecard JSON path ('-' to skip writing)",
            ),
            _flag(
                "--series-out",
                metavar="PATH",
                default=None,
                help="write the sampled serve_* telemetry as series.jsonl",
            ),
        )),
    )
    for name, handler, help_text, flags in commands:
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        for names, kwargs in flags:
            command.add_argument(*names, **kwargs)
    return parser


def _split_fault_spec(spec: str, flag: str, syntax: str, sep: str) -> tuple:
    """``DEV@T`` (or ``DEV@T<sep>X``) → ``(DEV, T[, X])``, numbers as floats.

    A missing part is a usage error naming the flag.
    """
    device, _, rest = spec.partition("@")
    numbers = rest.partition(sep)[::2] if sep else (rest,)
    if not device or not all(numbers):
        raise ConfigurationError(f"--{flag} wants {syntax}, got {spec!r}")
    return (device, *map(float, numbers))


def _parse_fault_flags(args: argparse.Namespace) -> tuple:
    """The fault tuple of the repeatable injection flags: failures, then
    transients, then perturbations, each in flag order.

    Malformed specs (and malformed numbers inside them) surface as
    :class:`ConfigurationError` naming the flag; unknown device ids are
    validated later by the runtime against the actual cluster.
    """
    from repro.runtime import DeviceFailure, Perturbation, TransientFailure

    faults = {}
    try:
        for flag, syntax, sep, fault in (
            ("fail", "DEV@T", "", DeviceFailure),
            ("perturb", "DEV@T:FACTOR", ":", Perturbation),
            ("transient", "DEV@T+D", "+", TransientFailure),
        ):
            faults[flag] = tuple(
                fault(*_split_fault_spec(spec, flag, syntax, sep))
                for spec in getattr(args, flag, None) or []
            )
    except ValueError as exc:
        raise ConfigurationError(f"bad fault spec: {exc}") from exc
    return faults["fail"] + faults["transient"] + faults["perturb"]


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
    runtime = Runtime(
        cluster,
        app.codelet(),
        seed=args.seed if seed is None else seed,
        noise_sigma=args.noise,
        faults=_parse_fault_flags(args),
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


def _run_once(args: argparse.Namespace, *, sampler=None, profile=False):
    """The single-run pipeline of ``run``/``explain``/``trace``/``why``/``profile``.

    Derives the run id from the run's config and simulates under it,
    optionally under the CPU profiler.  Returns ``(run_id, policy,
    result, profile snapshot or None)``.
    """
    run_id = new_run_id(repr(sorted(_run_config(args, args.policy).items())))
    with push_run_id(run_id), (profiling() if profile else nullcontext()) as prof:
        policy, result = _simulate(args, args.policy, sampler=sampler)
    return run_id, policy, result, None if prof is None else prof.snapshot()


def _write_trace(
    path: str,
    args: argparse.Namespace,
    run_id: str,
    policy_name: str,
    traces,
    ledger=None,
    *,
    note: str = "",
    **overlays,
) -> None:
    """Export a Perfetto/Chrome timeline: every command's one trace writer.

    ``traces`` is one run's trace, or ``compare``'s labelled list.  A
    single run whose policy keeps a ``ledger`` gets one instant marker
    per decision; ``overlays`` (profile, alerts, critpath) pass through
    to :func:`trace_to_chrome`.
    """
    decisions = ledger.to_dict()["decisions"] if ledger is not None else None
    doc = trace_to_chrome(
        traces,
        run_id=run_id,
        metadata=_run_config(args, policy_name),
        decisions=decisions,
        **overlays,
    )
    print(f"trace written to {write_chrome_trace(doc, path)}{note}")


def _telemetry(
    args: argparse.Namespace,
    recorder,
    run_id: str,
    *,
    interval: float,
    meta: dict,
    note: str = "",
) -> tuple[int, list[dict] | None]:
    """``--series-out`` and the ``--slo`` gate, shared by ``run`` and ``serve``.

    ``recorder`` (``run``'s sampler or the ``serve`` service) holds the
    sampled ``store``.  Writes the series artifact, then evaluates the
    SLO spec against the store: prints the verdict table, emits alerts,
    optionally writes the report.  Returns ``(exit_code, alerts)`` where
    ``exit_code`` is 2 when an objective failed (the gate-failed code)
    and ``alerts`` are the instant markers to stamp into a
    ``--trace-out`` timeline.
    """
    store = recorder.store
    if args.series_out:
        path = write_series(
            args.series_out, store, run_id=run_id, interval=interval, meta=meta
        )
        print(f"series written to {path} ({recorder.samples_taken} samples{note})")
    if not args.slo:
        return 0, None
    from repro.obs.regress import detect_slo_anomalies
    from repro.obs.slo import (
        DEFAULT_SLO_SPEC,
        emit_slo_alerts,
        evaluate_slo,
        load_slo_spec,
        slo_alerts,
        write_slo_report,
    )

    spec = DEFAULT_SLO_SPEC if args.slo == "default" else load_slo_spec(args.slo)
    report = evaluate_slo(spec, store, run_id=run_id)
    emit_slo_alerts(report)
    detect_slo_anomalies(report)
    print(
        format_table(
            ["objective", "expr", "verdict", "measured", "burn", "severity"],
            [
                [
                    row["name"],
                    row["expr"],
                    row["verdict"],
                    _fmt(row["measured"], "{:.4g}"),
                    _fmt(row["burn_rate"], "{:.2f}x"),
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
    if args.slo_report_out:
        path = write_slo_report(args.slo_report_out, report)
        print(f"slo report written to {path}")
    return (
        0 if report["ok"] else EXIT_GATE_FAILED,
        slo_alerts(report) or None,
    )


def _write_explain(data: dict, path: str) -> None:
    """Write a ledger dict as ``explain.jsonl`` and say so."""
    write_explain(data, path)
    print(
        f"explain ledger written to {path} "
        f"({len(data['decisions'])} decision(s))"
    )


def _fmt(value, pattern: str = "{:.3f}") -> str:
    """Format an optional number; ``None`` renders as ``-``."""
    return "-" if value is None else pattern.format(value)


def _print_profile_summary(snapshot: dict, *, top: int = 10) -> None:
    """Print the per-phase breakdown and hot-function tables."""
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
    rows = hot_function_rows(snapshot, top=top)
    if rows:
        print()
        print(
            format_table(
                ["function", "phase", "calls", "self_ms", "cum_ms", "share"],
                rows,
                title=f"Top {len(rows)} hot functions",
            )
        )


def _cmd_run(args: argparse.Namespace) -> int:
    sampler = None
    if (
        args.sample_interval is not None
        or args.series_out
        or args.slo
    ):
        sampler = ClusterSampler(args.sample_interval)
    metrics_mark = get_registry().mark()
    run_id, policy, result, _ = _run_once(args, sampler=sampler)
    idle = result.idle_fractions
    print(
        format_table(
            ["app", "size", "machines", "policy", "time_s", "mean_idle",
             "rebalances", "overhead_ms"],
            [[
                args.app, args.size, args.machines, policy.name,
                result.makespan, left_sum(idle.values()) / len(idle),
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
    exit_code = 0
    alerts = None
    if sampler is not None:
        # Windowed ts.* gauges land in the registry before --metrics-out
        # renders it, so the Prometheus exposition carries the aggregates.
        publish_windowed_gauges(sampler.store)
        interval = sampler.interval or 0.0
        exit_code, alerts = _telemetry(
            args,
            sampler,
            run_id,
            interval=interval,
            meta=_run_config(args, policy.name),
            note=f", interval {interval:.3g}s virtual",
        )
    if args.trace_out:
        _write_trace(
            args.trace_out, args, run_id, policy.name, result.trace,
            result.ledger, alerts=alerts,
        )
    if args.metrics_out:
        # this run's own counters, not the process's lifetime totals
        metrics = get_registry().delta_since(metrics_mark)
        if args.metrics_format == "prom":
            write_text(args.metrics_out, snapshot_to_prometheus(metrics))
        else:
            report = RunReport.build(
                config=_run_config(args, policy.name),
                makespan=result.makespan,
                rebalances=result.num_rebalances,
                solver_overhead_s=result.solver_overhead_s,
                phase_summary=result.trace.phase_summary(),
                metrics=metrics,
                run_id=run_id,
            )
            write_json(args.metrics_out, report.to_dict())
        print(f"metrics written to {args.metrics_out} ({args.metrics_format})")
    if args.explain_out:
        if result.ledger is None:
            print(
                f"no decision ledger: policy {policy.name!r} keeps none "
                "(--explain-out skipped)"
            )
        else:
            _write_explain(result.ledger.to_dict(), args.explain_out)
    if args.gantt:
        from repro.util.gantt import render_gantt

        print()
        print(render_gantt(result.trace))
    return exit_code


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.slo import validate_slo_report
    from repro.obs.timeseries import read_series, render_top

    def frame() -> str:
        header, store = read_series(args.series)
        slo_report = None
        if args.slo_report:
            slo_report = read_json(
                args.slo_report, validate=validate_slo_report, what="SLO report"
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
        while True:
            # \x1b[H\x1b[2J: cursor home + clear, the classic top refresh.
            print("\x1b[H\x1b[2J" + frame(), flush=True)
            shown += 1
            if shown == args.frames:  # --frames is None or >= 1
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    _, policy, result, _ = _run_once(args)
    if result.ledger is None:
        print(
            f"policy {policy.name!r} keeps no decision ledger; "
            "nothing to explain (try --policy plb-hec)"
        )
        return 1
    data = result.ledger.to_dict()
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
                _fmt(row["kkt_error"], "{:.1e}"),
                _fmt(row["predicted_time"], "{:.4f}"),
                row["devices"],
                row["blocks"],
                _fmt(row["mape"], "{:.1%}"),
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
                        _fmt(c.get("mape"), "{:.1%}"),
                        _fmt(c.get("bias"), "{:+.1%}"),
                        _fmt(c.get("drift"), "{:+.1%}"),
                    ]
                    for device, c in sorted(calibration.items())
                ],
                title="Prediction calibration (relative error vs observed)",
            )
        )
    summary = ledger_summary(data)
    stage_counts = summary["fallback_stages"]
    print(
        f"\n{summary['decisions']} decision(s), "
        f"{summary['attributed']}/{summary['total']} executed block(s) "
        f"attributed ({summary['coverage']:.0%} coverage)"
        + (
            "; fallback stages used: "
            + ", ".join(f"{k}={v}" for k, v in sorted(stage_counts.items()))
            if stage_counts
            else ""
        )
    )
    if args.out:
        _write_explain(data, args.out)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    run_id, policy, result, _ = _run_once(args)
    _write_trace(
        args.out, args, run_id, policy.name, result.trace, result.ledger,
        note=f" (makespan {result.makespan:.4f}s, "
        f"{result.num_rebalances} rebalances); "
        "load it at https://ui.perfetto.dev or chrome://tracing",
    )
    return 0


def _cmd_why(args: argparse.Namespace) -> int:
    from repro.obs.critpath import (
        CATEGORIES,
        analyze_trace,
        category_shares,
        validate_critpath,
        write_critpath,
    )
    from repro.resilience.invariants import check_busy_overlap

    run_id, policy, result, _ = _run_once(args)
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
    invalid = validate_critpath(analysis)
    problems = invalid + [f"busy-overlap: {v.message}" for v in overlaps]
    for problem in problems:
        print(f"why: {problem}", file=sys.stderr)
    if args.out and args.out != "-":
        if invalid:
            print(
                f"why: not writing {args.out} (analysis failed validation)",
                file=sys.stderr,
            )
        else:
            path = write_critpath(args.out, analysis)
            print(f"critpath written to {path}")
    if args.trace_out:
        _write_trace(
            args.trace_out, args, run_id, policy.name, result.trace,
            result.ledger, critpath=analysis,
        )
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
        profile=args.profile,
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
        return f"{left_sum(samples) / len(samples):.1%}"

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
        _write_trace(args.trace_out, args, run_id, "compare", labelled)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    run_id, policy, result, snapshot = _run_once(args, profile=True)
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
        write_json(args.json_out, snapshot)
        print(f"profile snapshot written to {args.json_out}")
    if args.trace_out:
        _write_trace(
            args.trace_out, args, run_id, policy.name, result.trace,
            result.ledger, profile=snapshot,
        )
    return 0


def _print_sweep(args: argparse.Namespace, run_sweep, sizes) -> None:
    """``fig4``/``fig5``: every size on 1-4 machines, or with ``--fast``
    the smallest and the largest size on 4."""
    if args.fast:
        sizes = (sizes[0], sizes[-1])
    print(
        render_sweep(
            run_sweep(
                sizes=sizes,
                machine_counts=[4] if args.fast else [1, 2, 3, 4],
                replications=args.replications,
                jobs=args.jobs,
            )
        )
    )


def _cmd_overhead(args: argparse.Namespace) -> None:
    stats = run_solver_overhead(repetitions=args.repetitions)
    print(
        f"solver overhead: {stats.mean_ms:.1f} +- {stats.std_ms:.1f} ms "
        f"({stats.samples} solves, method={stats.method}, "
        f"iterations={stats.iterations}); paper: 170 +- 32.3 ms"
    )


def _cmd_ablations(args: argparse.Namespace) -> None:
    print(render_ablation(run_selection_ablation(), title="A1 selection"))
    print()
    print(render_ablation(run_rebalance_ablation(), title="A2 rebalancing"))
    print()
    print(render_ablation(run_probe_ablation(), title="A3 probing"))


def _cmd_heterogeneity(args: argparse.Namespace) -> None:
    from repro.experiments.heterogeneity import (
        render_heterogeneity,
        run_heterogeneity,
    )

    print(render_heterogeneity(run_heterogeneity()))


def _cmd_sensitivity(args: argparse.Namespace) -> None:
    from repro.experiments.sensitivity import (
        render_sensitivity,
        run_sensitivity,
    )

    sizes, rows = run_sensitivity()
    print(render_sensitivity(sizes, rows))


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.experiments.report import generate_report

    print(generate_report(replications=args.replications, fast=args.fast))


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import collect_dashboard_data, write_dashboard
    from repro.resilience.campaign import SCORECARD_SPEC

    scorecard = None
    if args.scorecard:
        scorecard = read_json(
            args.scorecard,
            validate=partial(check, spec=SCORECARD_SPEC),
            what="chaos scorecard",
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
        faults=_parse_fault_flags(args),
    )
    service = ClusterService(config)
    card = service.run()
    run_id = f"serve-{config.policy}-seed{config.seed}"
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
                _fmt(lat["p50"], "{:.3f}s"),
                _fmt(lat["p95"], "{:.3f}s"),
                _fmt(lat["p99"], "{:.3f}s"),
                _fmt(card["goodput"]["jobs_per_s"], "{:.3f} jobs/s"),
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
        f"fairness {_fmt(card['fairness']['jain_tenants'])}"
    )
    problems = validate_scorecard(card) + list(card["invariant_errors"])
    for problem in problems:
        print(f"invariant: {problem}")
    if args.scorecard_out != "-":
        path = write_scorecard(args.scorecard_out, card)
        print(f"scorecard written to {path}")
    exit_code, _ = _telemetry(
        args,
        service,
        run_id,
        interval=config.sample_interval or config.rebalance_interval,
        meta=config.to_dict(),
    )
    if problems:
        print(f"{len(problems)} invariant violation(s) -> FAIL")
        return 3
    return exit_code


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience import ChaosConfig, run_campaign
    from repro.service.campaign import ServeChaosConfig

    # --policies / --max-faults override the campaign config's defaults;
    # --quick shrinks both to the CI smoke grid.
    grid = {}
    if args.policies:
        grid["policies"] = tuple(
            p.strip() for p in args.policies.split(",") if p.strip()
        )
    elif args.quick:
        grid["policies"] = _QUICK_POLICIES
    if args.max_faults is not None or args.quick:
        grid["max_faults"] = 1 if args.max_faults is None else args.max_faults

    if args.serve:
        config = ServeChaosConfig(
            runs=min(args.runs, 4) if args.quick else args.runs,
            seed=args.seed,
            rate=args.rate,
            duration=args.duration,
            machines=args.machines,
            **grid,
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
                _fmt(agg["mean_goodput_ratio"], "{:.2f}x"),
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
            runs=args.runs,
            seed=args.seed,
            **grid,
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
            lag = agg["mean_recovery_lag"]
            return [
                _fmt(agg["mean_degradation"], "{:.3f}x"),
                _fmt(agg["max_degradation"], "{:.3f}x"),
                _fmt(None if lag is None else lag * 1e3, "{:.1f}ms"),
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
        write_json(args.out, scorecard)
        print(f"scorecard written to {args.out}")
    if args.dashboard:
        from repro.obs.dashboard import chaos_dashboard_data, write_dashboard

        path = write_dashboard(args.dashboard, chaos_dashboard_data(scorecard))
        print(f"dashboard written to {path}")
    return 0 if ok else 3


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_from_env(level=args.log_level, fmt=args.log_format)
    try:
        if getattr(args, "slo_report_out", None) and not args.slo:
            raise ConfigurationError("--slo-report-out requires --slo")
        # a handler returns its exit code; the print-only ones return None
        return args.handler(args) or 0
    except ReproError as exc:
        # one line, in the form argparse gives a usage error
        print(
            f"repro {args.command}: error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
