"""Experiment engine, harness, and reporting.

:mod:`repro.analysis.engine` turns sweep specifications into
deterministic runs and fans cache misses out over worker processes;
:mod:`repro.analysis.store` persists results in memory and on disk so
repeated invocations are warm-start; :mod:`repro.analysis.harness`
expresses the per-figure (benchmark, variant) comparisons on top of
both; :mod:`repro.analysis.report` renders the paper-vs-measured tables
printed by the benchmark harness and recorded in EXPERIMENTS.md.
"""

from repro.analysis.engine import (
    EvaluationSettings,
    ExperimentResult,
    ExperimentSpec,
    ParallelRunner,
    RunRequest,
    execute_request,
    request_for,
)
from repro.analysis.harness import (
    cached_run,
    clear_run_cache,
    overhead_percent,
    run_figure_series,
)
from repro.analysis.report import format_comparison_table, format_series_table, geometric_mean
from repro.analysis.store import ResultStore

__all__ = [
    "EvaluationSettings",
    "ExperimentResult",
    "ExperimentSpec",
    "ParallelRunner",
    "ResultStore",
    "RunRequest",
    "cached_run",
    "clear_run_cache",
    "execute_request",
    "format_comparison_table",
    "format_series_table",
    "geometric_mean",
    "overhead_percent",
    "request_for",
    "run_figure_series",
]
