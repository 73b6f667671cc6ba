"""Cross-cutting observability: metrics, events, traces, profiles.

The legs every experiment stands on:

* :mod:`repro.obs.metrics` — a zero-dependency metrics registry
  (counters, gauges, histograms with labels) instrumented through the
  DES engine, the PLB-HeC policy, the interior-point solver and the
  parallel sweep engine;
* :mod:`repro.obs.events` — structured span/instant events with run-id
  correlation, emitted through the ``repro`` logging hierarchy
  (JSON-lines with ``--log-format json``);
* :mod:`repro.obs.trace_export` — Chrome trace-event / Perfetto export
  of :class:`~repro.sim.trace.ExecutionTrace` objects
  (``python -m repro trace ... --out trace.json``);
* :mod:`repro.obs.profiler` — deterministic phase-attributed CPU
  profiling (``repro profile``, ``--profile`` on run/compare):
  collapsed stacks, flamegraph SVGs, hot-function tables;
* :mod:`repro.obs.report` — the per-run :class:`RunReport` manifest
  cached alongside sweep results;
* :mod:`repro.obs.regress` — built-in anomaly detectors over a run's
  telemetry, SLO report and critical path;
* :mod:`repro.obs.ledger` — the scheduler decision ledger: one record
  per partition decision (trigger, model state, solver outcome,
  allocation, predictions) with per-block attribution, serialized as
  the ``explain.jsonl`` artifact behind ``repro explain``;
* :mod:`repro.obs.calibration` — pure predicted-vs-observed math
  (MAPE, signed bias, EWMA drift) the ledger accumulates per device;
* :mod:`repro.obs.timeseries` — the virtual-time cluster sampler and
  bounded time-series store behind ``series.jsonl`` and ``repro top``
  (per-device utilization, backlog, imbalance, Jain's fairness);
* :mod:`repro.obs.slo` — declarative service-level objectives over the
  recorded series (``p95(device_idle_frac) < 0.2``), error budgets with
  burn rates, and the ``alert.slo.*`` alert rules (``repro run --slo``);
* :mod:`repro.obs.critpath` — critical-path extraction and 100 %
  makespan attribution with what-if lower bounds (``repro why``,
  ``critpath.json``);
* :mod:`repro.obs.dashboard` — the self-contained HTML dashboard
  (``repro dashboard``);
* :mod:`repro.obs.artifact` — how every artifact above is written
  (atomically), read back (checked) and validated (declarative specs).
"""

from repro.obs.calibration import (
    DeviceCalibration,
    ewma_drift,
    mape,
    relative_errors,
    signed_bias,
    summarize_calibration,
)
from repro.obs.critpath import (
    CATEGORIES,
    CRITPATH_SCHEMA,
    analyze_trace,
    category_shares,
    payload_from_analysis,
    validate_critpath,
    write_critpath,
)
from repro.obs.dashboard import (
    DashboardData,
    collect_dashboard_data,
    render_dashboard,
    write_dashboard,
)
from repro.obs.events import (
    EventLog,
    attach_jsonl_sink,
    current_run_id,
    detach_sink,
    new_run_id,
    push_run_id,
)
from repro.obs.ledger import (
    DecisionLedger,
    DecisionRecord,
    decision_rows,
    read_explain,
    validate_explain,
    write_explain,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
    set_registry,
    snapshot_to_prometheus,
)
from repro.obs.profiler import (
    PROFILE_PHASES,
    PhaseProfiler,
    active_profiler,
    collapsed_stacks,
    hot_functions,
    merge_profiles,
    phase_breakdown,
    profile_phase,
    profiling,
    render_flamegraph_svg,
    switch_phase,
    write_collapsed,
    write_flamegraph,
)
from repro.obs.regress import (
    Anomaly,
    detect_anomalies,
    detect_critpath_anomalies,
    detect_slo_anomalies,
)
from repro.obs.report import RunReport, config_hash
from repro.obs.slo import (
    DEFAULT_SLO_SPEC,
    SLO_REPORT_SCHEMA,
    SLOObjective,
    SLOSpec,
    emit_slo_alerts,
    evaluate_slo,
    load_slo_spec,
    slo_alerts,
    spec_from_dict,
    validate_slo_report,
    write_slo_report,
)
from repro.obs.timeseries import (
    SERIES_SCHEMA,
    ClusterSampler,
    TimeSeriesStore,
    jain_fairness,
    publish_windowed_gauges,
    read_series,
    render_top,
    sparkline,
    store_from_payload,
    validate_series,
    write_series,
)
from repro.obs.trace_export import (
    profile_to_events,
    trace_to_chrome,
    trace_to_events,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "Anomaly",
    "CATEGORIES",
    "CRITPATH_SCHEMA",
    "ClusterSampler",
    "Counter",
    "DEFAULT_SLO_SPEC",
    "DashboardData",
    "DecisionLedger",
    "DecisionRecord",
    "DeviceCalibration",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROFILE_PHASES",
    "PhaseProfiler",
    "RunReport",
    "SERIES_SCHEMA",
    "SLOObjective",
    "SLOSpec",
    "SLO_REPORT_SCHEMA",
    "TimeSeriesStore",
    "active_profiler",
    "analyze_trace",
    "attach_jsonl_sink",
    "category_shares",
    "collapsed_stacks",
    "collect_dashboard_data",
    "config_hash",
    "current_run_id",
    "decision_rows",
    "detach_sink",
    "detect_anomalies",
    "detect_critpath_anomalies",
    "detect_slo_anomalies",
    "emit_slo_alerts",
    "evaluate_slo",
    "ewma_drift",
    "get_registry",
    "hot_functions",
    "jain_fairness",
    "load_slo_spec",
    "mape",
    "merge_profiles",
    "new_run_id",
    "payload_from_analysis",
    "phase_breakdown",
    "profile_phase",
    "profile_to_events",
    "profiling",
    "publish_windowed_gauges",
    "push_run_id",
    "read_explain",
    "read_series",
    "relative_errors",
    "render_dashboard",
    "render_flamegraph_svg",
    "render_top",
    "reset_registry",
    "set_registry",
    "signed_bias",
    "slo_alerts",
    "snapshot_to_prometheus",
    "sparkline",
    "spec_from_dict",
    "store_from_payload",
    "summarize_calibration",
    "switch_phase",
    "trace_to_chrome",
    "trace_to_events",
    "validate_chrome_trace",
    "validate_critpath",
    "validate_explain",
    "validate_series",
    "validate_slo_report",
    "write_chrome_trace",
    "write_collapsed",
    "write_critpath",
    "write_dashboard",
    "write_explain",
    "write_flamegraph",
    "write_series",
    "write_slo_report",
]
