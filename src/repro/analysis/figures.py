"""The paper's figures as data, and the tables of the other studies.

:data:`FIGURES` holds one :class:`Figure` per paper figure: the variants
it measures, the per-run metric, and the ``PAPER_REPORTED`` fields it is
compared with.  :func:`measure_figure` runs a figure through the Session
API and :func:`render_figure` prints its paper-vs-measured tables;
``repro figure``, ``repro list`` and the figure-shape checks under
``benchmarks/`` all go through them.  The rest of the module folds
security, serving, fleet and trace results into the rows of their
tables (:mod:`repro.analysis.report`).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.analysis.harness import (
    EvaluationSettings,
    branch_mpki_metric,
    flush_stall_metric,
    llc_mpki_metric,
    run_figure_series,
    runtime_overhead_metric,
)
from repro.analysis.report import format_series_table
from repro.analysis.store import ResultStore
from repro.core.mitigations import config_for_spec
from repro.core.results import WorkloadRun
from repro.obs.export import trace_spans
from repro.workloads.characteristics import PAPER_REPORTED


class Figure(NamedTuple):
    """One paper figure: a measured series per variant, each against the paper.

    A figure without a metric is the configuration table of its one
    variant (Figure 4).  With one variant the table carries the title;
    with several, the title heads one table per variant.
    """

    name: str
    title: str
    variants: Tuple[str, ...]
    metric: Optional[Callable[[WorkloadRun, WorkloadRun], float]] = None
    paper: Tuple[str, ...] = ()
    unit: str = "%"


#: Figure name -> figure, in the paper's order.
FIGURES: Dict[str, Figure] = {
    figure.name: figure
    for figure in (
        Figure("fig04", "Figure 4: the BASE configuration", ("BASE",)),
        Figure(
            "fig05",
            "Figure 5: FLUSH runtime overhead (%)",
            ("FLUSH",),
            runtime_overhead_metric,
            ("flush_overhead_pct",),
        ),
        Figure(
            "fig06",
            "Figure 6: flush stall time (% of BASE)",
            ("FLUSH",),
            flush_stall_metric,
            ("flush_stall_pct",),
        ),
        Figure(
            "fig07",
            "Figure 7: branch mispredictions per 1K instructions",
            ("BASE", "FLUSH"),
            branch_mpki_metric,
            ("branch_mpki_base", "branch_mpki_flush"),
            "mpki",
        ),
        Figure(
            "fig08",
            "Figure 8: PART runtime overhead (%)",
            ("PART",),
            runtime_overhead_metric,
            ("part_overhead_pct",),
        ),
        Figure(
            "fig09",
            "Figure 9: LLC misses per 1K instructions",
            ("BASE", "PART"),
            llc_mpki_metric,
            ("llc_mpki_base", "llc_mpki_part"),
            "mpki",
        ),
        Figure(
            "fig10",
            "Figure 10: MISS runtime overhead (%)",
            ("MISS",),
            runtime_overhead_metric,
            ("miss_overhead_pct",),
        ),
        Figure(
            "fig11",
            "Figure 11: ARB runtime overhead (%)",
            ("ARB",),
            runtime_overhead_metric,
            ("arb_overhead_pct",),
        ),
        Figure(
            "fig12",
            "Figure 12: NONSPEC runtime overhead (%)",
            ("NONSPEC",),
            runtime_overhead_metric,
            ("nonspec_overhead_pct",),
        ),
        Figure(
            "fig13",
            "Figure 13: F+P+M+A runtime overhead (%)",
            ("F+P+M+A",),
            runtime_overhead_metric,
            ("overall_overhead_pct",),
        ),
    )
}


def figure_key(name: str) -> str:
    """The :data:`FIGURES` key a spelling names: ``5``, ``fig05`` and ``figure5`` are ``fig05``."""
    text = name.strip().lower()
    if text.startswith("figure"):
        text = text[len("figure") :]
    elif text.startswith("fig"):
        text = text[len("fig") :]
    return f"fig{int(text):02d}" if text.isdigit() else name.strip().lower()


def _paper_series(field: str) -> Dict[str, float]:
    series = {name: getattr(values, field) for name, values in PAPER_REPORTED.items()}
    series["average"] = sum(series.values()) / len(series)
    return series


def measure_figure(
    figure: Figure,
    settings: Optional[EvaluationSettings] = None,
    *,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> Dict[str, Dict[str, float]]:
    """Variant -> measured series (benchmark -> value, then ``"average"``).

    Each series compares its variant with BASE through
    :func:`~repro.analysis.harness.run_figure_series`; a figure without
    a metric measures nothing.
    """
    if figure.metric is None:
        return {}
    return {
        variant: run_figure_series(variant, figure.metric, settings, jobs=jobs, store=store)
        for variant in figure.variants
    }


def render_figure(figure: Figure, measured: Dict[str, Dict[str, float]]) -> str:
    """The figure's paper-vs-measured tables, as ``repro figure`` prints them."""
    if figure.metric is None:
        return config_for_spec(figure.variants[0]).describe()
    tables = [
        format_series_table(
            figure.title if len(figure.variants) == 1 else variant,
            measured[variant],
            _paper_series(paper),
            unit=figure.unit,
        )
        for variant, paper in zip(figure.variants, figure.paper)
    ]
    if len(tables) == 1:
        return tables[0]
    return figure.title + "\n" + "\n\n".join(tables)


#: Title of the security evaluation's leakage table.
SECURITY_TABLE_TITLE = "Security scenarios: leaked bits (recovered/at stake)"


def aggregate_leakage_rows(outcomes) -> Dict[str, Dict[str, str]]:
    """Fold :class:`ScenarioOutcome` values into table rows.

    Leaked/total bit counts are summed over seeds per (scenario,
    variant) cell; the result maps scenario name -> variant name ->
    ``"leaked/total"``.  The ``attack`` subcommand's table.
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
    flush/purge shares are fractions of fleet busy time.
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
