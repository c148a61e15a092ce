"""Experiment engine, harness, and reporting.

:mod:`repro.analysis.engine` turns sweep specifications into
deterministic runs and fans cache misses out over worker processes;
:mod:`repro.analysis.store` persists results in memory and on disk so
repeated invocations are warm-start; :mod:`repro.analysis.harness`
expresses the per-figure (benchmark, variant) comparisons on top of
both; :mod:`repro.analysis.report` renders the paper-vs-measured tables
printed by the benchmark harness and recorded in EXPERIMENTS.md.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "repro.analysis.engine": (
            "EvaluationSettings",
            "ExperimentResult",
            "ExperimentSpec",
            "ParallelRunner",
            "RunRequest",
            "execute_request",
            "request_for",
        ),
        "repro.analysis.harness": ("run_figure_series",),
        "repro.analysis.report": ("format_series_table",),
        "repro.analysis.store": ("ResultStore",),
    },
)
