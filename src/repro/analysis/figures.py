"""One function per paper figure: compute the measured series.

Each function returns ``(title, measured, paper)`` where ``measured`` and
``paper`` are benchmark -> value mappings (including an ``"average"``
entry for the measured series).  The benchmark files under
``benchmarks/`` call these and print paper-vs-measured tables; tests use
them to check the shape of the reproduction.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.analysis.harness import (
    EvaluationSettings,
    branch_mpki_metric,
    flush_stall_metric,
    llc_mpki_metric,
    run_figure_series,
    runtime_overhead_metric,
)
from repro.analysis.store import ResultStore
from repro.common.defaults import (
    DEFAULT_SERVICE_CORES,
    DEFAULT_SERVICE_INSTRUCTIONS,
    DEFAULT_SERVICE_REQUESTS,
    DEFAULT_SERVICE_TENANTS,
)
from repro.api.requests import FleetRequest, ScenarioRequest, ServiceRequest
from repro.api.session import coerce_session
from repro.core.mitigations import VariantLike, config_for_spec
from repro.core.variants import Variant
from repro.obs.export import trace_spans
from repro.workloads.characteristics import PAPER_REPORTED

FigureResult = Tuple[str, Dict[str, float], Dict[str, float]]


def _paper_series(field: str) -> Dict[str, float]:
    series = {name: getattr(values, field) for name, values in PAPER_REPORTED.items()}
    series["average"] = sum(series.values()) / len(series)
    return series


def figure04_configuration() -> str:
    """Figure 4: the BASE configuration table."""
    return config_for_spec(Variant.BASE).describe()


def figure05_flush_overhead(
    settings: Optional[EvaluationSettings] = None,
    *,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> FigureResult:
    """Figure 5: FLUSH execution-time overhead vs BASE."""
    measured = run_figure_series(Variant.FLUSH, runtime_overhead_metric, settings, jobs=jobs, store=store)
    return "Figure 5: FLUSH runtime overhead (%)", measured, _paper_series("flush_overhead_pct")


def figure06_flush_stall(
    settings: Optional[EvaluationSettings] = None,
    *,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> FigureResult:
    """Figure 6: stall time waiting for flushes, normalised to BASE time."""
    measured = run_figure_series(Variant.FLUSH, flush_stall_metric, settings, jobs=jobs, store=store)
    return "Figure 6: flush stall time (% of BASE)", measured, _paper_series("flush_stall_pct")


def figure07_branch_mpki(
    settings: Optional[EvaluationSettings] = None,
    *,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> Tuple[str, Dict[str, float], Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Figure 7: branch MPKI for BASE and FLUSH (measured and paper)."""
    measured_base = run_figure_series(Variant.BASE, branch_mpki_metric, settings, jobs=jobs, store=store)
    measured_flush = run_figure_series(Variant.FLUSH, branch_mpki_metric, settings, jobs=jobs, store=store)
    return (
        "Figure 7: branch mispredictions per 1K instructions",
        measured_base,
        measured_flush,
        _paper_series("branch_mpki_base"),
        _paper_series("branch_mpki_flush"),
    )


def figure08_part_overhead(
    settings: Optional[EvaluationSettings] = None,
    *,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> FigureResult:
    """Figure 8: LLC set-partitioning overhead vs BASE."""
    measured = run_figure_series(Variant.PART, runtime_overhead_metric, settings, jobs=jobs, store=store)
    return "Figure 8: PART runtime overhead (%)", measured, _paper_series("part_overhead_pct")


def figure09_llc_mpki(
    settings: Optional[EvaluationSettings] = None,
    *,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> Tuple[str, Dict[str, float], Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Figure 9: LLC MPKI for BASE and PART (measured and paper)."""
    measured_base = run_figure_series(Variant.BASE, llc_mpki_metric, settings, jobs=jobs, store=store)
    measured_part = run_figure_series(Variant.PART, llc_mpki_metric, settings, jobs=jobs, store=store)
    return (
        "Figure 9: LLC misses per 1K instructions",
        measured_base,
        measured_part,
        _paper_series("llc_mpki_base"),
        _paper_series("llc_mpki_part"),
    )


def figure10_mshr_overhead(
    settings: Optional[EvaluationSettings] = None,
    *,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> FigureResult:
    """Figure 10: MSHR partitioning/sizing overhead vs BASE."""
    measured = run_figure_series(Variant.MISS, runtime_overhead_metric, settings, jobs=jobs, store=store)
    return "Figure 10: MISS runtime overhead (%)", measured, _paper_series("miss_overhead_pct")


def figure11_arbiter_overhead(
    settings: Optional[EvaluationSettings] = None,
    *,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> FigureResult:
    """Figure 11: LLC round-robin arbiter overhead vs BASE."""
    measured = run_figure_series(Variant.ARB, runtime_overhead_metric, settings, jobs=jobs, store=store)
    return "Figure 11: ARB runtime overhead (%)", measured, _paper_series("arb_overhead_pct")


def figure12_nonspec_overhead(
    settings: Optional[EvaluationSettings] = None,
    *,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> FigureResult:
    """Figure 12: non-speculative execution overhead vs BASE."""
    measured = run_figure_series(Variant.NONSPEC, runtime_overhead_metric, settings, jobs=jobs, store=store)
    return "Figure 12: NONSPEC runtime overhead (%)", measured, _paper_series("nonspec_overhead_pct")


def figure13_overall_overhead(
    settings: Optional[EvaluationSettings] = None,
    *,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> FigureResult:
    """Figure 13: F+P+M+A (enclave steady-state) overhead vs BASE."""
    measured = run_figure_series(Variant.F_P_M_A, runtime_overhead_metric, settings, jobs=jobs, store=store)
    return "Figure 13: F+P+M+A runtime overhead (%)", measured, _paper_series("overall_overhead_pct")


#: Title of the security evaluation's leakage table.
SECURITY_TABLE_TITLE = "Security scenarios: leaked bits (recovered/at stake)"


def aggregate_leakage_rows(outcomes) -> Dict[str, Dict[str, str]]:
    """Fold :class:`ScenarioOutcome` values into table rows.

    Leaked/total bit counts are summed over seeds per (scenario,
    variant) cell; the result maps scenario name -> variant name ->
    ``"leaked/total"``.  Used by :func:`security_leakage_table` and by
    the CLI, which already holds the outcomes from its own sweep.
    """
    tallies: Dict[str, Dict[str, list]] = {}
    for outcome in outcomes:
        cell = tallies.setdefault(outcome.scenario, {}).setdefault(
            outcome.variant, [0, 0]
        )
        cell[0] += outcome.leaked_bits
        cell[1] += outcome.total_bits
    return {
        scenario: {
            variant: f"{leaked}/{total}" for variant, (leaked, total) in cells.items()
        }
        for scenario, cells in tallies.items()
    }


#: Title of the enclave-serving latency table.
SERVICE_TABLE_TITLE = "Enclave serving: latency and boundary-cost shares (policy x variant x load)"


def service_latency_rows(outcomes) -> list:
    """Flatten :class:`ServiceOutcome` values into latency-table rows.

    One row per outcome, in expansion order, with the fields
    :func:`repro.analysis.report.format_service_table` renders; the
    flush/purge shares are fractions of fleet busy time.  Used by
    :func:`service_latency_table` and by the CLI, which already holds
    the outcomes from its own sweep.
    """
    rows = []
    for outcome in outcomes:
        busy = sum(row["busy_cycles"] for row in outcome.per_core)
        rows.append(
            {
                "policy": outcome.policy,
                "variant": outcome.variant,
                "load": outcome.load,
                "seed": outcome.seed,
                "p50": outcome.latency["p50"],
                "p95": outcome.latency["p95"],
                "p99": outcome.latency["p99"],
                "mean": outcome.latency["mean"],
                "throughput_rpmc": outcome.throughput_rpmc,
                "utilization": outcome.utilization,
                "purge_share": outcome.charged_purge_cycles / busy if busy else 0.0,
                "flush_share": outcome.charged_flush_cycles / busy if busy else 0.0,
                "switches": outcome.switches,
                "affinity_hits": outcome.affinity_hits,
            }
        )
    return rows


def service_latency_table(
    settings: Optional[EvaluationSettings] = None,
    *,
    policies: Optional[Tuple[str, ...]] = None,
    variants: Optional[Tuple[VariantLike, ...]] = None,
    loads: Optional[Tuple[float, ...]] = None,
    seeds: Optional[Tuple[int, ...]] = None,
    load_profile: str = "poisson",
    num_cores: int = DEFAULT_SERVICE_CORES,
    num_tenants: int = DEFAULT_SERVICE_TENANTS,
    requests: int = DEFAULT_SERVICE_REQUESTS,
    instructions: int = DEFAULT_SERVICE_INSTRUCTIONS,
    churn_every: int = 0,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> Tuple[str, list]:
    """Serving evaluation: tail latency per scheduling policy × variant.

    Runs the enclave-serving sweep through the Session API — per-request
    cycle costs and serving outcomes are both served from the session's
    store when warm — and flattens the outcomes into the rows
    :func:`repro.analysis.report.format_service_table` renders.  This is
    the figure the paper doesn't have: its per-switch purge/flush costs
    expressed as p95/p99 request latency under open-loop load.
    """
    settings = settings or EvaluationSettings.from_environment()
    session = coerce_session(store, jobs)
    result = session.run(
        ServiceRequest(
            policies=policies,
            variants=variants,
            loads=loads,
            seeds=seeds if seeds is not None else (settings.seed,),
            load_profile=load_profile,
            num_cores=num_cores,
            num_tenants=num_tenants,
            requests=requests,
            instructions=instructions,
            churn_every=churn_every,
        )
    )
    return SERVICE_TABLE_TITLE, service_latency_rows(result.service_outcomes)


FLEET_TABLE_TITLE = (
    "Fleet serving: goodput vs offered load (variant x load, sharded fleet)"
)


def fleet_goodput_rows(outcomes) -> list:
    """Flatten :class:`FleetOutcome` values into goodput-table rows.

    One row per outcome, in expansion order, with the fields
    :func:`repro.analysis.report.format_fleet_table` renders: offered
    load, goodput/throughput (requests per million cycles), tail
    latency, fleet utilization, and the admission-control counters
    (queue-full drops, deadline rejections, deadline misses).
    """
    rows = []
    for outcome in outcomes:
        rows.append(
            {
                "variant": outcome.variant,
                "router": outcome.router,
                "admission": outcome.admission,
                "client": outcome.client_model,
                "load": outcome.load,
                "seed": outcome.seed,
                "offered": outcome.offered,
                "admitted": outcome.admitted,
                "completed": outcome.completed,
                "goodput_rpmc": outcome.goodput_rpmc,
                "throughput_rpmc": outcome.throughput_rpmc,
                "p50": outcome.latency["p50"],
                "p95": outcome.latency["p95"],
                "p99": outcome.latency["p99"],
                "utilization": outcome.utilization,
                "dropped_queue_full": outcome.dropped_queue_full,
                "rejected_deadline": outcome.rejected_deadline,
                "deadline_misses": outcome.deadline_misses,
            }
        )
    return rows


def fleet_saturation_points(rows) -> Dict[str, float]:
    """Measured saturation point per variant from goodput-table rows.

    The saturation point of a variant is the offered load at which its
    goodput peaks over the sweep — past it, extra offered load only
    grows queueing, drops, and deadline misses.  Rows must come from a
    load sweep (:func:`fleet_goodput_rows` output); ties resolve to the
    lowest such load.
    """
    best: Dict[str, Tuple[float, float]] = {}
    for row in rows:
        variant = row["variant"]
        candidate = (row["goodput_rpmc"], -row["load"])
        if variant not in best or candidate > best[variant]:
            best[variant] = candidate
    return {variant: -negative_load for variant, (_, negative_load) in best.items()}


def fleet_goodput_table(
    settings: Optional[EvaluationSettings] = None,
    *,
    variants: Optional[Tuple[VariantLike, ...]] = None,
    loads: Optional[Tuple[float, ...]] = None,
    seeds: Optional[Tuple[int, ...]] = None,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    **fleet_fields,
) -> Tuple[str, list]:
    """Fleet evaluation: goodput vs offered load per mitigation variant.

    Runs the sharded fleet-serving sweep through the Session API —
    per-request cycle costs, shard outcomes, and merged fleet documents
    are all served from the session's store when warm — and flattens the
    outcomes into the rows :func:`repro.analysis.report.format_fleet_table`
    renders.  Keyword fleet fields (``router``, ``admission``,
    ``num_shards``, ...) pass through to :class:`FleetRequest`.
    """
    settings = settings or EvaluationSettings.from_environment()
    session = coerce_session(store, jobs)
    result = session.run(
        FleetRequest(
            variants=variants,
            loads=loads,
            seeds=seeds if seeds is not None else (settings.seed,),
            **fleet_fields,
        )
    )
    return FLEET_TABLE_TITLE, fleet_goodput_rows(result.fleet_outcomes)


#: Title of the trace latency-breakdown table (``repro trace summary``).
BREAKDOWN_TABLE_TITLE = "Trace latency breakdown: time per phase (category x span name)"


def _percentile(sorted_values: list, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (deterministic)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return float(sorted_values[rank - 1])


def latency_breakdown_rows(document: Dict, *, category: Optional[str] = None) -> list:
    """Fold a Chrome-trace document into per-phase latency rows.

    Groups the complete (``ph == "X"``) events by ``(category, name)``
    and summarises each group's durations: count, total, mean, p50,
    p95, max, and the group's share of its category's total time.
    Durations stay in the trace's native units — simulated cycles for
    ``sim`` spans, microseconds for ``wall`` spans — so the two
    categories are never summed together.  ``category`` restricts the
    rows (``"sim"`` or ``"wall"``); rows sort by descending total
    within each category.
    """
    groups: Dict[Tuple[str, str], list] = {}
    for event in trace_spans(document):
        cat = str(event.get("cat", ""))
        if category is not None and cat != category:
            continue
        duration = event.get("dur", 0.0)
        if isinstance(duration, bool) or not isinstance(duration, (int, float)):
            continue
        groups.setdefault((cat, str(event.get("name", ""))), []).append(
            float(duration)
        )
    category_totals: Dict[str, float] = {}
    for (cat, _), durations in groups.items():
        category_totals[cat] = category_totals.get(cat, 0.0) + sum(durations)
    rows = []
    for (cat, name), durations in sorted(
        groups.items(), key=lambda item: (item[0][0], -sum(item[1]), item[0][1])
    ):
        durations = sorted(durations)
        total = sum(durations)
        rows.append(
            {
                "category": cat,
                "phase": name,
                "count": len(durations),
                "total": total,
                "mean": total / len(durations),
                "p50": _percentile(durations, 0.50),
                "p95": _percentile(durations, 0.95),
                "max": durations[-1],
                "share": total / category_totals[cat] if category_totals[cat] else 0.0,
            }
        )
    return rows


def latency_breakdown_table(
    document: Dict, *, category: Optional[str] = None
) -> Tuple[str, list]:
    """The ``repro trace summary`` table: ``(title, rows)``.

    ``document`` is a loaded Chrome-trace-event document (from
    :func:`repro.obs.export.load_trace`); rows go to
    :func:`repro.analysis.report.format_breakdown_table`.
    """
    return BREAKDOWN_TABLE_TITLE, latency_breakdown_rows(document, category=category)


def security_leakage_table(
    settings: Optional[EvaluationSettings] = None,
    *,
    scenarios: Optional[Tuple[str, ...]] = None,
    variants: Optional[Tuple[VariantLike, ...]] = None,
    seeds: Optional[Tuple[int, ...]] = None,
    num_cores: int = 2,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> Tuple[str, Dict[str, Dict[str, str]]]:
    """Section 6 security evaluation: leaked bits per scenario × variant.

    Runs every co-scheduled attack scenario on every requested variant
    (BASE vs F+P+M+A by default, arbitrary mitigation combinations
    accepted) through the Session API — warm results come from the
    session's store — and aggregates leaked/total bit counts over the
    seeds.  Returns ``(title, rows)`` as consumed by
    :func:`repro.analysis.report.format_security_table`.
    """
    settings = settings or EvaluationSettings.from_environment()
    session = coerce_session(store, jobs)
    result = session.run(
        ScenarioRequest(
            scenarios=scenarios,
            variants=variants,
            seeds=seeds if seeds is not None else (settings.seed,),
            num_cores=num_cores,
        )
    )
    return SECURITY_TABLE_TITLE, aggregate_leakage_rows(result.outcomes)
