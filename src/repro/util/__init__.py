"""Small shared utilities: validation, statistics, ASCII tables, Gantt
charts, logging."""

from repro.util.validation import (
    check_finite,
    check_in_range,
    check_positive,
    check_positive_int,
    check_probability_vector,
)
from repro.util.stats import RunningStats, mean_std, relative_error, summarize
from repro.util.tables import format_table, format_series
from repro.util.gantt import render_gantt
from repro.util.logging import get_logger

__all__ = [
    "check_finite",
    "check_in_range",
    "check_positive",
    "check_positive_int",
    "check_probability_vector",
    "RunningStats",
    "mean_std",
    "relative_error",
    "summarize",
    "format_table",
    "format_series",
    "render_gantt",
    "get_logger",
]
