"""Text reporting helpers for the benchmark harness and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Iterable, Mapping, Optional


def format_series_table(
    title: str,
    measured: Mapping[str, float],
    paper: Optional[Mapping[str, float]] = None,
    *,
    unit: str = "%",
) -> str:
    """Render one figure's series as an aligned text table.

    Args:
        title: Table heading (e.g. ``"Figure 5: FLUSH overhead"``).
        measured: Benchmark -> measured value (should include "average").
        paper: Optional benchmark -> paper-reported value for comparison.
        unit: Unit suffix used in the header.
    """
    lines = [title, "-" * len(title)]
    header = f"{'benchmark':<12} {'measured (' + unit + ')':>16}"
    if paper is not None:
        header += f" {'paper (' + unit + ')':>14}"
    lines.append(header)
    for name, value in measured.items():
        row = f"{name:<12} {value:>16.2f}"
        if paper is not None:
            paper_value = paper.get(name)
            row += f" {paper_value:>14.2f}" if paper_value is not None else f" {'-':>14}"
        lines.append(row)
    return "\n".join(lines)


def format_security_table(title: str, rows: Mapping[str, Mapping[str, str]]) -> str:
    """Render the security evaluation's scenario × variant leakage grid.

    ``rows`` maps scenario name -> variant name -> cell text (e.g.
    ``"3/3"`` leaked-over-at-stake bits); variants become columns in
    first-seen order.
    """
    variants: list = []
    for cells in rows.values():
        for variant in cells:
            if variant not in variants:
                variants.append(variant)
    lines = [title, "-" * len(title)]
    header = f"{'scenario':<16}" + "".join(f" {variant:>12}" for variant in variants)
    lines.append(header)
    for scenario, cells in rows.items():
        row = f"{scenario:<16}"
        for variant in variants:
            row += f" {cells.get(variant, '-'):>12}"
        lines.append(row)
    return "\n".join(lines)


def format_service_table(title: str, rows: Iterable[Mapping]) -> str:
    """Render the serving sweep's policy × variant × load latency grid.

    ``rows`` are flat dicts as produced by
    :func:`repro.analysis.figures.service_latency_rows`: policy,
    variant, load, p50/p95/p99 (cycles), throughput (requests per
    million cycles), utilization, and the charged purge/flush cycle
    share of fleet busy time.
    """
    rows = list(rows)
    width = max([10] + [len(str(row["variant"])) for row in rows])
    lines = [title, "-" * len(title)]
    header = (
        f"{'policy':<10} {'variant':<{width}} {'load':>5} "
        f"{'p50':>9} {'p95':>9} {'p99':>9} {'req/Mcyc':>9} "
        f"{'util':>6} {'purge%':>7} {'flush%':>7}"
    )
    lines.append(header)
    for row in rows:
        lines.append(
            f"{row['policy']:<10} {row['variant']:<{width}} {row['load']:>5.2f} "
            f"{row['p50']:>9} {row['p95']:>9} {row['p99']:>9} "
            f"{row['throughput_rpmc']:>9.1f} {row['utilization']:>6.2f} "
            f"{100.0 * row['purge_share']:>6.1f}% {100.0 * row['flush_share']:>6.1f}%"
        )
    return "\n".join(lines)


def format_fleet_table(title: str, rows: Iterable[Mapping]) -> str:
    """Render the fleet sweep's variant × load goodput grid.

    ``rows`` are flat dicts as produced by
    :func:`repro.analysis.figures.fleet_goodput_rows`: variant, offered
    load, goodput and throughput (requests per million cycles),
    p95/p99 latency (cycles), fleet utilization, and the admission
    counters (queue-full drops, deadline rejections, deadline misses).
    """
    rows = list(rows)
    width = max([10] + [len(str(row["variant"])) for row in rows])
    lines = [title, "-" * len(title)]
    header = (
        f"{'variant':<{width}} {'load':>5} {'offered':>8} {'done':>6} "
        f"{'good/Mcyc':>10} {'p95':>9} {'p99':>9} "
        f"{'util':>6} {'drop':>6} {'rejSLO':>7} {'miss':>6}"
    )
    lines.append(header)
    for row in rows:
        lines.append(
            f"{row['variant']:<{width}} {row['load']:>5.2f} {row['offered']:>8} "
            f"{row['completed']:>6} {row['goodput_rpmc']:>10.1f} "
            f"{row['p95']:>9} {row['p99']:>9} {row['utilization']:>6.2f} "
            f"{row['dropped_queue_full']:>6} {row['rejected_deadline']:>7} "
            f"{row['deadline_misses']:>6}"
        )
    return "\n".join(lines)


def format_breakdown_table(title: str, rows: Iterable[Mapping]) -> str:
    """Render the trace latency breakdown (``repro trace summary``).

    ``rows`` are flat dicts as produced by
    :func:`repro.analysis.figures.latency_breakdown_rows`: span
    category (``sim`` durations are cycles, ``wall`` microseconds),
    phase name, count, and the duration summary.
    """
    rows = list(rows)
    width = max([12] + [len(str(row["phase"])) for row in rows])
    lines = [title, "-" * len(title)]
    header = (
        f"{'category':<8} {'phase':<{width}} {'count':>6} "
        f"{'total':>14} {'mean':>10} {'p50':>10} {'p95':>10} "
        f"{'max':>10} {'share':>6}"
    )
    lines.append(header)
    for row in rows:
        lines.append(
            f"{row['category']:<8} {row['phase']:<{width}} {row['count']:>6} "
            f"{row['total']:>14.1f} {row['mean']:>10.1f} {row['p50']:>10.1f} "
            f"{row['p95']:>10.1f} {row['max']:>10.1f} "
            f"{100.0 * row['share']:>5.1f}%"
        )
    return "\n".join(lines)
