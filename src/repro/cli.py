"""repro-bench: run paper figures, custom sweeps, attacks and serving runs.

Examples::

    repro-bench figure fig13 --jobs 4
    repro-bench figure all --instructions 10000
    repro-bench sweep --variants BASE F+P+M+A --benchmarks gcc mcf --jobs 4
    repro-bench sweep --variants FLUSH+MISS PART+ARB+NONSPEC --benchmarks astar
    repro-bench sweep --seeds 2019 2020 2021 --benchmarks astar --json
    repro-bench attack
    repro-bench attack prime_probe contention --variants BASE PART --jobs 2
    repro-bench attack --num-cores 4 --variants BASE FLUSH+MISS
    repro-bench serve
    repro-bench serve --policy fifo batch --load 0.6 0.9 --profile bursty
    repro-bench serve --variants BASE F+P+M+A --num-cores 8 --tenants 12 --json
    repro-bench serve --daemon --port 8642
    repro-bench sweep --remote 127.0.0.1:8642 --benchmarks gcc --json
    repro-bench fleet
    repro-bench fleet --shards 8 --router least_loaded --admission deadline
    repro-bench fleet --load 0.4 0.8 1.2 1.6 --queue-depth 16 --json
    repro-bench fleet --trace fleet-trace.json --json > fleet.json
    repro-bench trace summary fleet-trace.json
    repro-bench trace validate fleet-trace.json
    repro-bench list

Variants are mitigation specs: any ``+``-combination of FLUSH, PART,
MISS, ARB, and NONSPEC (or the named ``BASE``/``F+P+M+A``), opening the
full 2^5 ablation lattice to sweeps and attacks alike.  Every command
runs through one :class:`repro.api.Session`, so runs are served from the
persistent result store (``.repro_cache/`` by default) and repeating an
invocation is warm-start: the cache summary line at the end reports how
many runs were actually simulated.  Use ``--no-cache`` for a memory-only
store or ``--cache-dir`` to relocate it.

Every sweep/attack/serve/fleet invocation builds its request through the
wire codec (args -> wire document -> typed request), the same documents
``repro-bench serve --daemon`` accepts over HTTP — so ``--remote <addr>``
sends the identical request to a running daemon and decodes the identical
result envelope.

Importing this module, and answering a ``sweep`` from the store, loads
no simulator: the subcommand handlers import the figures, the report
tables, the scenarios, the daemon, the trace exporter and the HTTP
client (``--remote`` only) when they are dispatched, and the engine
imports each simulator inside the function that runs it.
``tests/test_entry_points.py`` holds that line.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from repro.analysis.engine import (
    DEFAULT_FLEET_ADMISSION,
    DEFAULT_FLEET_CLIENT,
    DEFAULT_FLEET_POLICY,
    DEFAULT_FLEET_REQUESTS,
    DEFAULT_FLEET_ROUTER,
    DEFAULT_FLEET_SHARD_CORES,
    DEFAULT_FLEET_TENANTS,
    EvaluationSettings,
)
from repro.analysis.store import DEFAULT_CACHE_DIR, ResultStore
from repro.api import (
    WIRE_VERSION,
    Request,
    Result,
    Session,
    WireError,
    request_from_wire,
    set_default_session,
)
from repro.common.defaults import (
    DEFAULT_FLEET_SHARDS,
    DEFAULT_HOST,
    DEFAULT_MEASUREMENT_CYCLES_PER_PAGE,
    DEFAULT_PORT,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_SERVICE_CORES,
    DEFAULT_SERVICE_INSTRUCTIONS,
    DEFAULT_SERVICE_REQUESTS,
    DEFAULT_SERVICE_TENANTS,
    DEFAULT_SLO_FACTOR,
    DEFAULT_THINK_FACTOR,
    DEFAULT_WIPE_BYTES_PER_CYCLE,
)
from repro.common.errors import ConfigurationError
from repro.common.log import LOG_LEVELS, configure_logging
from repro.core.mitigations import known_compositions, known_mitigations
from repro.lint.cli import add_lint_arguments, command_lint
from repro.obs.trace import Tracer, tracing
from repro.service.arrivals import LOAD_PROFILES
from repro.workloads.spec_cint2006 import benchmark_names

#: Figure name -> callable printing that figure's tables.
_FigureHandler = Callable[[EvaluationSettings, Optional[int]], None]


def _print_series_figure(figure_fn, settings: EvaluationSettings, jobs: Optional[int]) -> None:
    from repro.analysis.report import format_series_table

    title, measured, paper = figure_fn(settings, jobs=jobs)
    print(format_series_table(title, measured, paper))


def _print_pair_figure(
    figure_fn, labels, settings: EvaluationSettings, jobs: Optional[int]
) -> None:
    from repro.analysis.report import format_series_table

    title, measured_a, measured_b, paper_a, paper_b = figure_fn(settings, jobs=jobs)
    print(title)
    print(format_series_table(labels[0], measured_a, paper_a, unit="mpki"))
    print()
    print(format_series_table(labels[1], measured_b, paper_b, unit="mpki"))


def _figure_handlers() -> Dict[str, _FigureHandler]:
    from repro.analysis import figures

    return {
        "fig04": lambda settings, jobs: print(figures.figure04_configuration()),
        "fig05": lambda settings, jobs: _print_series_figure(
            figures.figure05_flush_overhead, settings, jobs
        ),
        "fig06": lambda settings, jobs: _print_series_figure(
            figures.figure06_flush_stall, settings, jobs
        ),
        "fig07": lambda settings, jobs: _print_pair_figure(
            figures.figure07_branch_mpki, ("BASE", "FLUSH"), settings, jobs
        ),
        "fig08": lambda settings, jobs: _print_series_figure(
            figures.figure08_part_overhead, settings, jobs
        ),
        "fig09": lambda settings, jobs: _print_pair_figure(
            figures.figure09_llc_mpki, ("BASE", "PART"), settings, jobs
        ),
        "fig10": lambda settings, jobs: _print_series_figure(
            figures.figure10_mshr_overhead, settings, jobs
        ),
        "fig11": lambda settings, jobs: _print_series_figure(
            figures.figure11_arbiter_overhead, settings, jobs
        ),
        "fig12": lambda settings, jobs: _print_series_figure(
            figures.figure12_nonspec_overhead, settings, jobs
        ),
        "fig13": lambda settings, jobs: _print_series_figure(
            figures.figure13_overall_overhead, settings, jobs
        ),
    }


def _normalize_figure_name(name: str) -> str:
    text = name.strip().lower()
    if text.startswith("figure"):
        text = text[len("figure") :]
    elif text.startswith("fig"):
        text = text[len("fig") :]
    return f"fig{int(text):02d}" if text.isdigit() else name.strip().lower()


def _print_cache_summary(session: Session, wall_time: Optional[float] = None) -> None:
    store = session.store
    print()
    line = (
        f"cache: {store.misses} runs simulated, "
        f"{store.disk_hits} warm from disk, "
        f"{store.memory_hits} reused in memory"
    )
    if wall_time is not None:
        line += f" ({wall_time:.2f}s wall)"
    print(line)


def _cache_summary_dict(session: Session, wall_time: Optional[float] = None) -> Dict:
    """Machine-readable counterpart of :func:`_print_cache_summary`."""
    store = session.store
    summary: Dict = {
        "runs_simulated": store.misses,
        "warm_from_disk": store.disk_hits,
        "reused_in_memory": store.memory_hits,
    }
    if wall_time is not None:
        summary["wall_seconds"] = wall_time
    return summary


def _build_session(args: argparse.Namespace) -> Session:
    if args.no_cache:
        store = ResultStore.in_memory()
    elif args.cache_dir is not None:
        store = ResultStore(args.cache_dir)
    else:
        store = ResultStore.from_environment()
    # One session per invocation, installed as the process default so
    # figure functions (which go through the harness) share it.
    return set_default_session(
        Session(store, jobs=args.jobs, settings=_settings(args))
    )


def _settings(args: argparse.Namespace) -> EvaluationSettings:
    settings = EvaluationSettings.from_environment()
    instructions = getattr(args, "instructions", None)
    if instructions is not None:
        settings = EvaluationSettings(instructions=instructions, seed=settings.seed)
    if args.seed is not None:
        settings = EvaluationSettings(instructions=settings.instructions, seed=args.seed)
    return settings


def _wire_request(kind: str, **fields: Any) -> Request:
    """Build a typed request through the wire codec.

    The one args->request path: CLI flag values become a wire document
    (``None`` values are omitted so request defaults apply) and the
    document is decoded exactly as the daemon decodes an HTTP body —
    including variant-spec validation, which surfaces as
    :class:`WireError` with the registry's own message.
    """
    return request_from_wire(
        {
            "wire_version": WIRE_VERSION,
            "kind": kind,
            "fields": {
                name: value for name, value in fields.items() if value is not None
            },
        }
    )


def _execute(
    args: argparse.Namespace, request: Request, settings: EvaluationSettings
) -> Union[int, Tuple[Result, Optional[Session]]]:
    """Run a request locally, or remotely when ``--remote`` is set.

    Returns the result and the local session (``None`` in remote mode —
    the cache counters live in the daemon's store, reported by its
    health endpoint rather than a local summary line).  A failure is
    reported on stderr and returned as the exit code instead: 2 for a
    request the engine rejects (``ConfigurationError`` covers
    machine-size limits discovered at assembly time, such as bystander
    regions or the Section 5.2 MSHR bound), 1 when the daemon fails or
    cannot be reached.
    """
    try:
        if not getattr(args, "remote", None):
            return _execute_local(args, request)
        from repro.daemon.client import DaemonClient, DaemonError

        try:
            return DaemonClient(args.remote).run(request, settings=settings), None
        except DaemonError as error:
            print(str(error), file=sys.stderr)
            return 1
    except (ValueError, ConfigurationError) as error:
        print(str(error), file=sys.stderr)
        return 2


def _execute_local(args: argparse.Namespace, request: Request) -> Tuple[Result, Session]:
    """Run a request in this process's session.

    With ``--trace`` the run executes under an ambient tracer and the
    captured spans are exported as Chrome-trace-event JSON; outcomes (and
    everything on stdout) are byte-identical either way — only the trace
    file and a stderr footer are added.
    """
    session = _build_session(args)
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return session.run(request), session
    from repro.obs.export import write_chrome_trace

    tracer = Tracer()
    with tracing(tracer):
        result = session.run(request)
    sim_count = len(tracer.sim_spans())
    write_chrome_trace(
        trace_path,
        tracer.spans,
        metadata={
            "command": args.command,
            "sim_spans": sim_count,
            "wall_spans": len(tracer) - sim_count,
        },
    )
    # Footer on stderr: --json stdout stays byte-identical to an
    # untraced invocation (the CI trace-smoke job diffs the two).
    print(f"trace: {len(tracer)} spans -> {trace_path}", file=sys.stderr)
    return result, session


def _reject_remote_trace(args: argparse.Namespace) -> bool:
    """``--trace`` needs the local engine; reject the combination."""
    if getattr(args, "remote", None) and getattr(args, "trace", None):
        print(
            "--trace records in-process spans and cannot be combined with "
            "--remote (capture the trace on the daemon side instead)",
            file=sys.stderr,
        )
        return True
    return False


def _print_run_summary(
    args: argparse.Namespace,
    session: Optional[Session],
    wall_time: Optional[float] = None,
) -> None:
    if session is None:
        print()
        print(f"remote: {args.remote}")
    else:
        _print_cache_summary(session, wall_time)


def _summary_dict(
    args: argparse.Namespace,
    session: Optional[Session],
    wall_time: Optional[float] = None,
) -> Dict:
    if session is None:
        return {"remote": args.remote}
    return _cache_summary_dict(session, wall_time)


def _command_figure(args: argparse.Namespace) -> int:
    handlers = _figure_handlers()
    if "all" in [name.lower() for name in args.names]:
        names = sorted(handlers)
    else:
        names = [_normalize_figure_name(name) for name in args.names]
    unknown = [name for name in names if name not in handlers]
    if unknown:
        print(
            f"unknown figure(s): {', '.join(unknown)} "
            f"(expected one of: {', '.join(sorted(handlers))}, or 'all')",
            file=sys.stderr,
        )
        return 2
    session = _build_session(args)
    settings = _settings(args)
    for position, name in enumerate(names):
        if position:
            print()
        handlers[name](settings, args.jobs)
    _print_cache_summary(session)
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    if _reject_remote_trace(args):
        return 2
    known = set(benchmark_names())
    unknown = [name for name in args.benchmarks or [] if name not in known]
    if unknown:
        print(
            f"unknown benchmark(s): {', '.join(unknown)} "
            f"(expected: {', '.join(benchmark_names())})",
            file=sys.stderr,
        )
        return 2
    settings = _settings(args)
    try:
        request = _wire_request(
            "sweep",
            variants=args.variants or None,
            benchmarks=args.benchmarks or None,
            seeds=args.seeds or [settings.seed],
            instructions=settings.instructions,
        )
    except WireError as error:
        print(str(error), file=sys.stderr)
        return 2
    executed = _execute(args, request, settings)
    if isinstance(executed, int):
        return executed
    result, session = executed

    if args.json:
        entries = []
        for entry in result.entries:
            variant_name, benchmark, seed = entry.key
            run = entry.value
            row = {
                "variant": variant_name,
                "benchmark": benchmark,
                "seed": seed,
                "instructions": run.instructions,
                "cycles": run.cycles,
                "cpi": run.result.cpi,
                "cache_key": entry.provenance.cache_key,
                "origin": entry.provenance.origin,
            }
            entries.append(row)
        print(
            json.dumps(
                {
                    "command": "sweep",
                    "entries": entries,
                    "cache": _summary_dict(args, session, result.wall_time_seconds),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    seeds = {entry.key[2] for entry in result.entries}
    variant_names = []
    for entry in result.entries:
        if entry.key[0] not in variant_names:
            variant_names.append(entry.key[0])
    show_seed = len(seeds) > 1
    has_base = "BASE" in variant_names
    width = max(10, max(len(name) for name in variant_names))
    header = f"{'variant':<{width}} {'benchmark':<12}"
    if show_seed:
        header += f" {'seed':>6}"
    header += f" {'instructions':>13} {'cycles':>10} {'CPI':>7}"
    if has_base:
        header += f" {'vs BASE (%)':>12}"
    print(header)
    print("-" * len(header))
    for entry in result.entries:
        variant_name, benchmark, seed = entry.key
        run = entry.value
        row = f"{variant_name:<{width}} {benchmark:<12}"
        if show_seed:
            row += f" {seed:>6}"
        row += f" {run.instructions:>13} {run.cycles:>10} {run.result.cpi:>7.3f}"
        if has_base:
            if variant_name == "BASE":
                row += f" {'-':>12}"
            else:
                overhead = result.overhead_percent(variant_name, benchmark, seed)
                row += f" {overhead:>12.2f}"
        print(row)
    _print_run_summary(args, session, result.wall_time_seconds)
    return 0


def _command_attack(args: argparse.Namespace) -> int:
    from repro.attacks.scenarios import scenario_names

    known = scenario_names()
    if not args.scenarios or "all" in [name.lower() for name in args.scenarios]:
        names = known
    else:
        names = args.scenarios
        unknown = [name for name in names if name not in known]
        if unknown:
            print(
                f"unknown scenario(s): {', '.join(unknown)} "
                f"(expected one of: {', '.join(known)}, or 'all')",
                file=sys.stderr,
            )
            return 2
    settings = _settings(args)
    try:
        request = _wire_request(
            "scenario",
            scenarios=names,
            variants=args.variants or None,
            seeds=args.seeds or [settings.seed],
            num_cores=args.num_cores,
        )
    except WireError as error:
        print(str(error), file=sys.stderr)
        return 2
    executed = _execute(args, request, settings)
    if isinstance(executed, int):
        return executed
    result, session = executed

    if args.json:
        entries = []
        for entry in result.entries:
            scenario, variant_name, seed = entry.key
            outcome = entry.value
            entries.append(
                {
                    "scenario": scenario,
                    "variant": variant_name,
                    "seed": seed,
                    "num_cores": outcome.num_cores,
                    "leaked_bits": outcome.leaked_bits,
                    "total_bits": outcome.total_bits,
                    "leaked": outcome.leaked,
                    "cycles": outcome.cycles,
                    "cache_key": entry.provenance.cache_key,
                    "origin": entry.provenance.origin,
                }
            )
        print(
            json.dumps(
                {
                    "command": "attack",
                    "entries": entries,
                    "cache": _summary_dict(args, session, result.wall_time_seconds),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    seeds = {entry.key[2] for entry in result.entries}
    show_seed = len(seeds) > 1
    width = max(10, max(len(entry.key[1]) for entry in result.entries))
    header = f"{'scenario':<16} {'variant':<{width}}"
    if show_seed:
        header += f" {'seed':>6}"
    header += f" {'cores':>6} {'leaked':>8} {'at stake':>9} {'channel':>8}"
    print(header)
    print("-" * len(header))
    for entry in result.entries:
        scenario, variant_name, seed = entry.key
        outcome = entry.value
        row = f"{scenario:<16} {variant_name:<{width}}"
        if show_seed:
            row += f" {seed:>6}"
        row += (
            f" {outcome.num_cores:>6}"
            f" {outcome.leaked_bits:>8} {outcome.total_bits:>9}"
            f" {'OPEN' if outcome.leaked else 'closed':>8}"
        )
        print(row)
    print()
    from repro.analysis import figures
    from repro.analysis.report import format_security_table

    rows = figures.aggregate_leakage_rows(result.outcomes)
    print(format_security_table(figures.SECURITY_TABLE_TITLE, rows))
    _print_run_summary(args, session, result.wall_time_seconds)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    if _reject_remote_trace(args):
        return 2
    if args.daemon:
        # Long-running mode: host this session behind the HTTP/JSON API
        # until SIGTERM/SIGINT.  All other serve flags still shape the
        # session (cache dir, jobs, seed).
        from repro.daemon.server import serve_daemon

        session = _build_session(args)
        serve_daemon(session, host=args.host, port=args.port)
        return 0
    # Policy names, the load profile, and the numeric parameters are
    # validated by ServiceSpec.create; its ValueError lands in the
    # except below with the registry's own message.
    settings = _settings(args)
    try:
        request = _wire_request(
            "service",
            policies=args.policy or None,
            variants=args.variants or None,
            loads=args.load or None,
            seeds=args.seeds or [settings.seed],
            load_profile=args.profile,
            num_cores=args.num_cores,
            num_tenants=args.tenants,
            requests=args.requests,
            instructions=args.instructions
            if args.instructions is not None
            else DEFAULT_SERVICE_INSTRUCTIONS,
            churn_every=args.churn_every,
        )
    except WireError as error:
        print(str(error), file=sys.stderr)
        return 2
    executed = _execute(args, request, settings)
    if isinstance(executed, int):
        return executed
    result, session = executed

    if args.json:
        entries = []
        for entry in result.entries:
            policy, variant_name, load, seed = entry.key
            entries.append(
                {
                    "policy": policy,
                    "variant": variant_name,
                    "load": load,
                    "seed": seed,
                    "outcome": entry.value.to_dict(),
                    "cache_key": entry.provenance.cache_key,
                    "origin": entry.provenance.origin,
                    "purge": entry.provenance.purge,
                }
            )
        # No wall time inside the document: outcome payloads are
        # bit-identical across repeated seeded invocations and across
        # --jobs settings (with --no-cache the whole document is), and
        # only "origin"/"cache" distinguish a cold run from a warm one.
        print(
            json.dumps(
                {
                    "command": "serve",
                    "entries": entries,
                    "cache": _summary_dict(args, session),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    from repro.analysis import figures
    from repro.analysis.report import format_service_table

    rows = figures.service_latency_rows(result.service_outcomes)
    print(format_service_table(figures.SERVICE_TABLE_TITLE, rows))
    _print_run_summary(args, session, result.wall_time_seconds)
    return 0


def _command_fleet(args: argparse.Namespace) -> int:
    if _reject_remote_trace(args):
        return 2
    # Registry names (scheduling policy, router, admission, client
    # model, load profile) and the numeric fleet shape are validated by
    # FleetSpec.create; its ValueError lands in the except below.
    settings = _settings(args)
    try:
        request = _wire_request(
            "fleet",
            variants=args.variants or None,
            loads=args.load or None,
            seeds=args.seeds or [settings.seed],
            policy=args.policy,
            router=args.router,
            admission=args.admission,
            client=args.client,
            load_profile=args.profile,
            num_shards=args.shards,
            shard_cores=args.shard_cores,
            num_tenants=args.tenants,
            requests=args.requests,
            queue_depth=args.queue_depth,
            slo_factor=args.slo_factor,
            think_factor=args.think_factor,
            instructions=args.instructions
            if args.instructions is not None
            else DEFAULT_SERVICE_INSTRUCTIONS,
            churn_every=args.churn_every,
            dram_wipe_bytes_per_cycle=args.wipe_bytes_per_cycle,
            measurement_cycles_per_page=args.measurement_cycles,
        )
    except WireError as error:
        print(str(error), file=sys.stderr)
        return 2
    executed = _execute(args, request, settings)
    if isinstance(executed, int):
        return executed
    result, session = executed

    if args.json:
        entries = []
        for entry in result.entries:
            variant_name, load, seed = entry.key
            entries.append(
                {
                    "variant": variant_name,
                    "load": load,
                    "seed": seed,
                    "outcome": entry.value.to_dict(),
                    "cache_key": entry.provenance.cache_key,
                    "origin": entry.provenance.origin,
                    "admission": entry.provenance.purge,
                }
            )
        # As for serve: no wall time inside the document, so outcome
        # payloads are bit-identical across repeated seeded invocations
        # and across --jobs settings; only "origin"/"cache" distinguish
        # a cold run from a warm one.
        print(
            json.dumps(
                {
                    "command": "fleet",
                    "entries": entries,
                    "cache": _summary_dict(args, session),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    from repro.analysis import figures
    from repro.analysis.report import format_fleet_table

    rows = figures.fleet_goodput_rows(result.fleet_outcomes)
    print(format_fleet_table(figures.FLEET_TABLE_TITLE, rows))
    loads = {row["load"] for row in rows}
    if len(loads) > 1:
        print()
        print("measured saturation points (offered load at peak goodput):")
        for variant, load in figures.fleet_saturation_points(rows).items():
            print(f"  {variant:<12} {load:.2f}")
    _print_run_summary(args, session, result.wall_time_seconds)
    return 0


def _command_trace_summary(args: argparse.Namespace) -> int:
    """``repro trace summary``: per-phase latency-breakdown table."""
    from repro.analysis import figures
    from repro.analysis.report import format_breakdown_table
    from repro.obs.export import load_trace

    try:
        document = load_trace(args.file)
    except (OSError, ValueError) as error:
        print(f"cannot load trace {args.file}: {error}", file=sys.stderr)
        return 2
    title, rows = figures.latency_breakdown_table(document, category=args.category)
    if not rows:
        print(f"{args.file}: no complete spans to summarise")
        return 0
    print(format_breakdown_table(title, rows))
    return 0


def _command_trace_validate(args: argparse.Namespace) -> int:
    """``repro trace validate``: schema-check a captured trace file."""
    from repro.obs.export import load_trace, trace_spans, validate_chrome_trace

    try:
        document = load_trace(args.file)
    except (OSError, ValueError) as error:
        print(f"cannot load trace {args.file}: {error}", file=sys.stderr)
        return 2
    problems = validate_chrome_trace(document)
    if problems:
        for problem in problems:
            print(f"{args.file}: {problem}", file=sys.stderr)
        return 1
    events = document.get("traceEvents", [])
    print(f"{args.file}: valid ({len(events)} events, {len(trace_spans(document))} spans)")
    return 0


def _command_list(_args: argparse.Namespace) -> int:
    print("figures:")
    for name in sorted(_figure_handlers()):
        print(f"  {name}")
    print("mitigations (compose freely with '+', e.g. FLUSH+MISS):")
    for mitigation in known_mitigations():
        alias = f" ({mitigation.alias})" if mitigation.alias else ""
        print(f"  {mitigation.name:<8}{alias:<5} {mitigation.description}")
    print("named variants:")
    for name, members in known_compositions().items():
        spelled = "+".join(members) if members else "no mitigations"
        print(f"  {name:<10} = {spelled}")
    print("benchmarks:")
    for name in benchmark_names():
        print(f"  {name}")
    print("scenarios:")
    session = Session(ResultStore.in_memory())
    for name, description in session.scenarios().items():
        print(f"  {name:<16} {description}")
    print("serving policies:")
    for name, description in session.policies().items():
        print(f"  {name:<16} {description}")
    print("fleet routers:")
    for name, description in session.routers().items():
        print(f"  {name:<16} {description}")
    print("fleet admission policies:")
    for name, description in session.admission_policies().items():
        print(f"  {name:<16} {description}")
    print("fleet client models:")
    for name, description in session.client_models().items():
        print(f"  {name:<16} {description}")
    return 0


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Chrome-trace-event (Perfetto) JSON trace of the run; "
        "outcomes are unchanged (not compatible with --remote)",
    )


def _add_remote_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--remote",
        default=None,
        metavar="ADDR",
        help="send the request to a running daemon (host:port or URL) "
        "instead of simulating locally",
    )


def _add_common_arguments(
    parser: argparse.ArgumentParser, *, instructions: bool = True
) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for uncached runs (default 1)",
    )
    if instructions:
        # Scenarios have no run length; the attack subcommand omits the
        # flag entirely rather than accepting and ignoring it.
        parser.add_argument(
            "--instructions",
            type=int,
            default=None,
            help="instructions per run (default $REPRO_BENCH_INSTRUCTIONS or 30000)",
        )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="sweep seed (default $REPRO_BENCH_SEED or 2019)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"result store directory (default $REPRO_CACHE_DIR or {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="use a memory-only result store (no disk reads or writes)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run MI6 reproduction figures and sweeps.",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="warning",
        help="root logging level for the whole process (default warning)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure = subparsers.add_parser(
        "figure", help="reproduce one or more paper figures (fig04..fig13, or all)"
    )
    figure.add_argument("names", nargs="+", metavar="FIGURE")
    _add_common_arguments(figure)
    figure.set_defaults(handler=_command_figure)

    sweep = subparsers.add_parser(
        "sweep", help="run a custom variants x benchmarks x seeds sweep"
    )
    sweep.add_argument(
        "--variants",
        nargs="+",
        default=None,
        help="mitigation specs, e.g. BASE FLUSH+MISS F+P+M+A (default: the paper's seven)",
    )
    sweep.add_argument(
        "--benchmarks", nargs="+", default=None, help="benchmark names (default: all eleven)"
    )
    sweep.add_argument(
        "--seeds", nargs="+", type=int, default=None, help="seeds (default: one, the sweep seed)"
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        help="print entries and the cache summary as JSON (for CI and scripts)",
    )
    _add_common_arguments(sweep)
    _add_remote_argument(sweep)
    _add_trace_argument(sweep)
    sweep.set_defaults(handler=_command_sweep)

    attack = subparsers.add_parser(
        "attack",
        help="run co-scheduled security scenarios (scenarios x variants x seeds)",
    )
    attack.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help="scenario names (default: all registered scenarios)",
    )
    attack.add_argument(
        "--variants",
        nargs="+",
        default=None,
        help="mitigation specs, e.g. BASE FLUSH+MISS (default: BASE and F+P+M+A)",
    )
    attack.add_argument(
        "--seeds", nargs="+", type=int, default=None, help="seeds (default: the sweep seed)"
    )
    attack.add_argument(
        "--num-cores",
        type=int,
        default=2,
        help="machine size; cores beyond attacker+victim host bystander domains (default 2)",
    )
    attack.add_argument(
        "--json",
        action="store_true",
        help="print entries and the cache summary as JSON (for CI and scripts)",
    )
    _add_common_arguments(attack, instructions=False)
    _add_remote_argument(attack)
    attack.set_defaults(handler=_command_attack)

    serve = subparsers.add_parser(
        "serve",
        help="simulate an enclave fleet serving an open-loop request stream",
    )
    serve.add_argument(
        "--policy",
        nargs="+",
        default=None,
        metavar="POLICY",
        help="scheduling policies (default: fifo affinity batch)",
    )
    serve.add_argument(
        "--variants",
        nargs="+",
        default=None,
        help="mitigation specs, e.g. BASE FLUSH+MISS (default: BASE and F+P+M+A)",
    )
    serve.add_argument(
        "--load",
        nargs="+",
        type=float,
        default=None,
        help="offered load points as fractions of fleet capacity (default: 0.7)",
    )
    serve.add_argument(
        "--profile",
        choices=LOAD_PROFILES,
        default="poisson",
        help="arrival process shape (default: poisson)",
    )
    serve.add_argument(
        "--num-cores",
        type=int,
        default=DEFAULT_SERVICE_CORES,
        help=f"serving cores of the machine (default {DEFAULT_SERVICE_CORES})",
    )
    serve.add_argument(
        "--tenants",
        type=int,
        default=DEFAULT_SERVICE_TENANTS,
        help=f"tenant enclaves sharing the machine (default {DEFAULT_SERVICE_TENANTS})",
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=DEFAULT_SERVICE_REQUESTS,
        help=f"open-loop requests per simulation (default {DEFAULT_SERVICE_REQUESTS})",
    )
    serve.add_argument(
        "--churn-every",
        type=int,
        default=0,
        help="destroy+recreate a tenant's enclave after N of its requests (default off)",
    )
    serve.add_argument(
        "--instructions",
        type=int,
        default=None,
        help=f"instructions per request (default {DEFAULT_SERVICE_INSTRUCTIONS}; "
        "short requests are where enclave boundary costs surface)",
    )
    serve.add_argument(
        "--seeds", nargs="+", type=int, default=None, help="seeds (default: the sweep seed)"
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="print entries and the cache summary as JSON (for CI and scripts)",
    )
    serve.add_argument(
        "--daemon",
        action="store_true",
        help="run as a long-lived daemon serving the HTTP/JSON API "
        "instead of one simulation batch",
    )
    serve.add_argument(
        "--host",
        default=DEFAULT_HOST,
        help=f"daemon bind address (default {DEFAULT_HOST}; only with --daemon)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"daemon TCP port, 0 picks a free one (default {DEFAULT_PORT}; "
        "only with --daemon)",
    )
    _add_common_arguments(serve, instructions=False)
    _add_remote_argument(serve)
    _add_trace_argument(serve)
    serve.set_defaults(handler=_command_serve)

    fleet = subparsers.add_parser(
        "fleet",
        help="simulate a sharded fleet with routing, bounded admission, and "
        "closed-loop clients (variants x loads x seeds)",
    )
    fleet.add_argument(
        "--variants",
        nargs="+",
        default=None,
        help="mitigation specs, e.g. BASE FLUSH+MISS (default: BASE and F+P+M+A)",
    )
    fleet.add_argument(
        "--load",
        nargs="+",
        type=float,
        default=None,
        help="offered load points as fractions of per-shard capacity (default: 0.7)",
    )
    fleet.add_argument(
        "--shards",
        type=int,
        default=DEFAULT_FLEET_SHARDS,
        help=f"independent shard machines (default {DEFAULT_FLEET_SHARDS})",
    )
    fleet.add_argument(
        "--shard-cores",
        type=int,
        default=DEFAULT_FLEET_SHARD_CORES,
        help=f"serving cores per shard (default {DEFAULT_FLEET_SHARD_CORES})",
    )
    fleet.add_argument(
        "--router",
        default=DEFAULT_FLEET_ROUTER,
        help="routing policy placing tenants on shards "
        f"(default {DEFAULT_FLEET_ROUTER}; see 'repro-bench list')",
    )
    fleet.add_argument(
        "--admission",
        default=DEFAULT_FLEET_ADMISSION,
        help="admission policy at each shard's bounded queue "
        f"(default {DEFAULT_FLEET_ADMISSION}; see 'repro-bench list')",
    )
    fleet.add_argument(
        "--client",
        default=DEFAULT_FLEET_CLIENT,
        help="client model generating the request stream "
        f"(default {DEFAULT_FLEET_CLIENT}; see 'repro-bench list')",
    )
    fleet.add_argument(
        "--policy",
        default=DEFAULT_FLEET_POLICY,
        help=f"per-shard scheduling policy (default {DEFAULT_FLEET_POLICY})",
    )
    fleet.add_argument(
        "--profile",
        choices=LOAD_PROFILES,
        default="poisson",
        help="arrival process shape for open-loop clients (default: poisson)",
    )
    fleet.add_argument(
        "--queue-depth",
        type=int,
        default=DEFAULT_QUEUE_DEPTH,
        help=f"bounded per-shard queue depth (default {DEFAULT_QUEUE_DEPTH})",
    )
    fleet.add_argument(
        "--tenants",
        type=int,
        default=DEFAULT_FLEET_TENANTS,
        help=f"tenant enclaves across the fleet (default {DEFAULT_FLEET_TENANTS})",
    )
    fleet.add_argument(
        "--requests",
        type=int,
        default=DEFAULT_FLEET_REQUESTS,
        help=f"fleet-wide request budget (default {DEFAULT_FLEET_REQUESTS})",
    )
    fleet.add_argument(
        "--slo-factor",
        type=float,
        default=DEFAULT_SLO_FACTOR,
        help="latency SLO as a multiple of the mean request service time "
        f"(default {DEFAULT_SLO_FACTOR})",
    )
    fleet.add_argument(
        "--think-factor",
        type=float,
        default=DEFAULT_THINK_FACTOR,
        help="closed-loop mean think time as a multiple of the mean service "
        f"time (default {DEFAULT_THINK_FACTOR})",
    )
    fleet.add_argument(
        "--churn-every",
        type=int,
        default=0,
        help="destroy+recreate a tenant's enclave after N of its requests (default off)",
    )
    fleet.add_argument(
        "--wipe-bytes-per-cycle",
        type=int,
        default=DEFAULT_WIPE_BYTES_PER_CYCLE,
        help="DRAM-wipe bandwidth charged on churn teardown "
        f"(default {DEFAULT_WIPE_BYTES_PER_CYCLE} bytes/cycle)",
    )
    fleet.add_argument(
        "--measurement-cycles",
        type=int,
        default=DEFAULT_MEASUREMENT_CYCLES_PER_PAGE,
        help="enclave-measurement cycles per loaded page charged on churn "
        f"re-create (default {DEFAULT_MEASUREMENT_CYCLES_PER_PAGE})",
    )
    fleet.add_argument(
        "--instructions",
        type=int,
        default=None,
        help=f"instructions per request (default {DEFAULT_SERVICE_INSTRUCTIONS})",
    )
    fleet.add_argument(
        "--seeds", nargs="+", type=int, default=None, help="seeds (default: the sweep seed)"
    )
    fleet.add_argument(
        "--json",
        action="store_true",
        help="print entries and the cache summary as JSON (for CI and scripts)",
    )
    _add_common_arguments(fleet, instructions=False)
    _add_remote_argument(fleet)
    _add_trace_argument(fleet)
    fleet.set_defaults(handler=_command_fleet)

    trace = subparsers.add_parser(
        "trace",
        help="inspect Chrome-trace-event files captured with --trace",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary",
        help="print the per-phase latency-breakdown table of a trace",
    )
    trace_summary.add_argument("file", metavar="TRACE", help="trace JSON file")
    trace_summary.add_argument(
        "--category",
        choices=("sim", "wall"),
        default=None,
        help="restrict to simulated-cycle or wall-clock spans (default both)",
    )
    trace_summary.set_defaults(handler=_command_trace_summary)
    trace_validate = trace_sub.add_parser(
        "validate",
        help="schema-check a trace file; exits 1 listing any problems",
    )
    trace_validate.add_argument("file", metavar="TRACE", help="trace JSON file")
    trace_validate.set_defaults(handler=_command_trace_validate)

    lint = subparsers.add_parser(
        "lint",
        help="check the repo-specific invariants (determinism, fast/slow "
        "parity, cache-key completeness, registry hygiene)",
    )
    add_lint_arguments(lint)
    lint.set_defaults(handler=command_lint)

    listing = subparsers.add_parser(
        "list", help="list figures, mitigations, benchmarks, scenarios"
    )
    listing.set_defaults(handler=_command_list)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point (``repro-bench`` / ``python -m repro``)."""
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke sweep
    sys.exit(main())
