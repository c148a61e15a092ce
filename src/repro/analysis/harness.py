"""Evaluation harness: figure-level views over the Session API.

Every figure in the paper's evaluation compares one secured variant
against BASE across the eleven SPEC benchmarks.  The harness expresses
those comparisons on top of :class:`repro.api.Session` — the single front
door that owns the result store and the parallel runner — so BASE runs
are shared between figures and repeated invocations are warm-start.
``variant`` arguments accept the full mitigation vocabulary
(:data:`~repro.core.mitigations.VariantLike`): composed sets or spec
strings such as ``"FLUSH+MISS"``.

Run length is controlled by the ``REPRO_BENCH_INSTRUCTIONS`` environment
variable (default 30000) and the sweep seed by ``REPRO_BENCH_SEED``
(default 2019).  Longer runs reduce the scale-down distortions documented
in EXPERIMENTS.md at the cost of simulation time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.analysis.engine import (
    DEFAULT_INSTRUCTIONS,
    INSTRUCTIONS_ENV_VAR,
    NONSPEC_INSTRUCTIONS_FRACTION,
    SEED_ENV_VAR,
    EvaluationSettings,
)
from repro.analysis.store import ResultStore
from repro.api.requests import SweepRequest, WorkloadRequest
from repro.api.session import coerce_session, default_session
from repro.core.mitigations import VariantLike, spec_name
from repro.core.results import WorkloadRun
from repro.workloads.spec_cint2006 import benchmark_names

__all__ = [
    "DEFAULT_INSTRUCTIONS",
    "INSTRUCTIONS_ENV_VAR",
    "NONSPEC_INSTRUCTIONS_FRACTION",
    "SEED_ENV_VAR",
    "EvaluationSettings",
    "branch_mpki_metric",
    "cached_run",
    "clear_run_cache",
    "flush_stall_metric",
    "llc_mpki_metric",
    "overhead_percent",
    "run_figure_series",
    "runtime_overhead_metric",
]


def clear_run_cache(*, disk: bool = False) -> None:
    """Discard cached runs (used by tests that change settings).

    Clears the in-memory layer; pass ``disk=True`` to also delete the
    on-disk entries.  Content-hashed keys mean stale disk entries can
    never be returned for a changed configuration, so clearing disk is
    only needed to reclaim space or force fresh simulations.
    """
    default_session().store.clear(disk=disk)


def cached_run(
    variant: VariantLike,
    benchmark: str,
    settings: Optional[EvaluationSettings] = None,
    *,
    store: Optional[ResultStore] = None,
) -> WorkloadRun:
    """Run one benchmark on one variant, served from the result store."""
    session = coerce_session(store)
    settings = settings or session.settings
    return session.run(
        WorkloadRequest(
            variant=variant,
            benchmark=benchmark,
            instructions=settings.instructions,
            seed=settings.seed,
        )
    ).value


def overhead_percent(
    variant: VariantLike,
    benchmark: str,
    settings: Optional[EvaluationSettings] = None,
    *,
    store: Optional[ResultStore] = None,
) -> float:
    """Increased runtime of ``variant`` over BASE for one benchmark (%).

    Delegates to :func:`runtime_overhead_metric`, which falls back to a
    per-instruction (CPI) comparison when the runs committed different
    instruction counts (the NONSPEC truncation).
    """
    settings = settings or EvaluationSettings.from_environment()
    base = cached_run("BASE", benchmark, settings, store=store)
    secured = cached_run(variant, benchmark, settings, store=store)
    return runtime_overhead_metric(base, secured)


def run_figure_series(
    variant: VariantLike,
    metric: Callable[[WorkloadRun, WorkloadRun], float],
    settings: Optional[EvaluationSettings] = None,
    benchmarks: Optional[List[str]] = None,
    *,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> Dict[str, float]:
    """Compute ``metric(base_run, variant_run)`` for every benchmark.

    Returns an *insertion-ordered* mapping: one entry per benchmark in
    the order given (paper order by default), then a synthetic
    ``"average"`` entry (arithmetic mean, as the paper's last column) as
    the final key.  Because ``"average"`` is reserved for that synthetic
    entry, a benchmark with that literal name is rejected rather than
    silently clobbering the mean.

    Args:
        variant: Secured variant (any mitigation combination) to
            compare against BASE.
        metric: Figure metric computed from the (base, variant) run pair.
        settings: Sweep settings (environment defaults if omitted).
        benchmarks: Benchmark subset (all eleven if omitted).
        jobs: Worker processes for uncached runs (``REPRO_BENCH_JOBS``,
            default 1, if omitted).
        store: Result store (the shared default session's if omitted).
    """
    settings = settings or EvaluationSettings.from_environment()
    names = list(benchmarks) if benchmarks is not None else benchmark_names()
    if not names:
        raise ValueError("benchmarks must not be empty (omit it to sweep all eleven)")
    if "average" in names:
        raise ValueError(
            'benchmark name "average" is reserved for the synthetic mean entry'
        )
    session = coerce_session(store, jobs)
    name = spec_name(variant)
    variants: List[VariantLike] = ["BASE"] if name == "BASE" else ["BASE", variant]
    result = session.run(
        SweepRequest(
            variants=variants,
            benchmarks=names,
            seeds=(settings.seed,),
            instructions=settings.instructions,
        )
    )
    series: Dict[str, float] = {}
    for benchmark in names:
        base = result.run_for("BASE", benchmark)
        secured = result.run_for(variant, benchmark)
        series[benchmark] = metric(base, secured)
    series["average"] = sum(series[benchmark] for benchmark in names) / len(names)
    return series


# ----------------------------------------------------------------------
# Metrics used by the per-figure benchmarks


def runtime_overhead_metric(base: WorkloadRun, secured: WorkloadRun) -> float:
    """Increased runtime in percent (Figures 5, 8, 10, 11, 12, 13)."""
    if secured.instructions != base.instructions and base.result.cpi:
        return 100.0 * (secured.result.cpi - base.result.cpi) / base.result.cpi
    return secured.overhead_vs(base)


def flush_stall_metric(base: WorkloadRun, secured: WorkloadRun) -> float:
    """Flush stall time as a percent of BASE execution time (Figure 6)."""
    if not base.cycles:
        return 0.0
    return 100.0 * secured.result.flush_stall_cycles / base.cycles


def branch_mpki_metric(_base: WorkloadRun, run: WorkloadRun) -> float:
    """Branch mispredictions per kilo-instruction (Figure 7)."""
    return run.result.branch_mpki


def llc_mpki_metric(_base: WorkloadRun, run: WorkloadRun) -> float:
    """LLC misses per kilo-instruction (Figure 9)."""
    return run.result.llc_mpki
