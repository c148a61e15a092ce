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

The four request subcommands — ``sweep``, ``attack``, ``serve`` and
``fleet`` — are built from their request types
(:mod:`repro.api.requests`), whose fields declare their flags, and share
one handler: the parsed arguments become a wire document that is
decoded into the typed request (the same documents
``repro-bench serve --daemon`` accepts over HTTP — so ``--remote <addr>``
sends the identical request to a running daemon and decodes the
identical result envelope), and one writer builds every ``--json``
entry from the cell key names, the subcommand's value fields and the
provenance.  Only the text tables are written per subcommand.  The
figures come from one table, :data:`repro.analysis.figures.FIGURES`.
Only ``--instructions`` on ``sweep`` and ``figure`` sets the session's
run length; on ``serve`` and ``fleet`` it is a request field.

Importing this module, and answering a ``sweep`` from the store, loads
no simulator: the subcommand handlers import the figures, the report
tables, the scenarios, the daemon, the trace exporter and the HTTP
client (``--remote`` only) when they are dispatched, and the engine
imports each simulator inside the function that runs it.
``tests/test_entry_points.py`` holds that line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import abc
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_origin,
)

from repro.analysis.engine import EvaluationSettings
from repro.analysis.store import DEFAULT_CACHE_DIR, ResultStore
from repro.api import (
    WIRE_VERSION,
    FleetRequest,
    Request,
    Result,
    ScenarioRequest,
    ServiceRequest,
    Session,
    SweepRequest,
    WireError,
    request_from_wire,
    set_default_session,
)
from repro.api.session import CELL_KEYS, named_choices
from repro.common.defaults import DEFAULT_HOST, DEFAULT_PORT
from repro.common.errors import ConfigurationError
from repro.common.log import LOG_LEVELS, configure_logging
from repro.core.mitigations import known_compositions, known_mitigations
from repro.core.serialization import field_types, optional_inner
from repro.lint.cli import add_lint_arguments, command_lint
from repro.obs.trace import Tracer, tracing
from repro.workloads.spec_cint2006 import benchmark_names


def _print_summary(
    args: argparse.Namespace, session: Optional[Session], wall_time: Optional[float] = None
) -> None:
    """The closing line of a text table (in remote mode the daemon keeps the counters)."""
    print()
    if session is None:
        print(f"remote: {args.remote}")
        return
    store = session.store
    wall = f" ({wall_time:.2f}s wall)" if wall_time is not None else ""
    print(
        f"cache: {store.misses} runs simulated, {store.disk_hits} warm from disk, "
        f"{store.memory_hits} reused in memory{wall}"
    )


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
    """The environment's settings under ``--seed`` and the shared run length.

    The run length comes only from the shared ``--instructions`` of
    ``sweep`` and ``figure`` (``run_length``): on ``serve`` and
    ``fleet`` that flag is a request field, the per-request budget.
    """
    settings = EvaluationSettings.from_environment()
    run_length = getattr(args, "run_length", None)
    return EvaluationSettings(
        instructions=run_length if run_length is not None else settings.instructions,
        seed=args.seed if args.seed is not None else settings.seed,
    )


def _wire_request(
    args: argparse.Namespace, request_type: Any, settings: EvaluationSettings
) -> Request:
    """Build a subcommand's typed request through the wire codec.

    The one args->request path: each request field's parsed value, with
    unset seeds and run length taken from ``settings``, becomes a wire
    document (``None`` values are omitted so request defaults apply),
    and the document is decoded exactly as the daemon decodes an HTTP
    body — including variant-spec validation, which surfaces as
    :class:`WireError` with the registry's own message.
    """
    unset = {"seeds": [settings.seed], "instructions": settings.instructions}
    fields = {}
    for name in field_types(request_type):
        value = getattr(args, name, None)
        if value is None:
            value = unset.get(name)
        if value is not None:
            fields[name] = value
    return request_from_wire(
        {"wire_version": WIRE_VERSION, "kind": request_type.wire_kind, "fields": fields}
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
        if not args.remote:
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


def _check_benchmarks(args: argparse.Namespace) -> Optional[str]:
    """``sweep``: name the unknown benchmarks, if any."""
    known = benchmark_names()
    unknown = [name for name in args.benchmarks or [] if name not in known]
    if not unknown:
        return None
    return f"unknown benchmark(s): {', '.join(unknown)} (expected: {', '.join(known)})"


def _check_scenarios(args: argparse.Namespace) -> Optional[str]:
    """``attack``: expand no scenario or ``all`` to every one; name unknown ones."""
    from repro.attacks.scenarios import scenario_names

    known = scenario_names()
    if not args.scenarios or "all" in [name.lower() for name in args.scenarios]:
        args.scenarios = known
    unknown = [name for name in args.scenarios if name not in known]
    if not unknown:
        return None
    return (
        f"unknown scenario(s): {', '.join(unknown)} "
        f"(expected one of: {', '.join(known)}, or 'all')"
    )


def _sweep_table(result: Result) -> None:
    seeds = {entry.key[2] for entry in result.entries}
    variant_names = list(dict.fromkeys(entry.key[0] for entry in result.entries))
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


def _attack_table(result: Result) -> None:
    from repro.analysis import figures
    from repro.analysis.report import format_security_table

    show_seed = len({entry.key[2] for entry in result.entries}) > 1
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
    rows = figures.aggregate_leakage_rows(result.outcomes)
    print(format_security_table(figures.SECURITY_TABLE_TITLE, rows))


def _serve_table(result: Result) -> None:
    from repro.analysis import figures
    from repro.analysis.report import format_service_table

    rows = figures.service_latency_rows(result.service_outcomes)
    print(format_service_table(figures.SERVICE_TABLE_TITLE, rows))


def _fleet_table(result: Result) -> None:
    from repro.analysis import figures
    from repro.analysis.report import format_fleet_table

    rows = figures.fleet_goodput_rows(result.fleet_outcomes)
    print(format_fleet_table(figures.FLEET_TABLE_TITLE, rows))
    if len({row["load"] for row in rows}) > 1:
        print()
        print("measured saturation points (offered load at peak goodput):")
        for variant, load in figures.fleet_saturation_points(rows).items():
            print(f"  {variant:<12} {load:.2f}")


class _Command(NamedTuple):
    """A request subcommand: its request type and how its results print.

    A ``--json`` entry holds the cell key (named by ``CELL_KEYS[cells]``),
    the values at the attribute paths ``values`` (named by their last
    part) and the provenance.  A serving kind (``audit`` set) holds its
    outcome document and provenance audit instead, and no wall time, so
    its document is bit-identical across seeded reruns and ``--jobs``.
    """

    request_type: Any
    help: str
    cells: str
    table: Callable[[Result], None]
    values: Tuple[str, ...] = ()
    audit: Optional[str] = None
    check: Optional[Callable[[argparse.Namespace], Optional[str]]] = None
    run_length: bool = False
    trace: bool = True


_COMMANDS: Dict[str, _Command] = {
    "sweep": _Command(
        SweepRequest,
        "run a custom variants x benchmarks x seeds sweep",
        "run",
        _sweep_table,
        values=("instructions", "cycles", "result.cpi"),
        check=_check_benchmarks,
        run_length=True,
    ),
    "attack": _Command(
        ScenarioRequest,
        "run co-scheduled security scenarios (scenarios x variants x seeds)",
        "scenario",
        _attack_table,
        values=("num_cores", "leaked_bits", "total_bits", "leaked", "cycles"),
        check=_check_scenarios,
        trace=False,
    ),
    "serve": _Command(
        ServiceRequest,
        "simulate an enclave fleet serving an open-loop request stream",
        "service",
        _serve_table,
        audit="purge",
    ),
    "fleet": _Command(
        FleetRequest,
        "simulate a sharded fleet with routing, bounded admission, and "
        "closed-loop clients (variants x loads x seeds)",
        "fleet",
        _fleet_table,
        audit="admission",
    ),
}


def _json_document(
    args: argparse.Namespace, command: _Command, result: Result, session: Optional[Session]
) -> str:
    """The ``--json`` document of a request subcommand: one entry per result cell."""
    entries = []
    for entry in result.entries:
        row = dict(zip(CELL_KEYS[command.cells], entry.key))
        if command.audit is None:
            for path in command.values:
                row[path.rpartition(".")[2]] = attrgetter(path)(entry.value)
        else:
            row["outcome"] = entry.value.to_dict()
            row[command.audit] = entry.provenance.purge
        row["cache_key"] = entry.provenance.cache_key
        row["origin"] = entry.provenance.origin
        entries.append(row)
    # The cache summary: the store's counters, or the daemon's address.
    if session is None:
        cache: Dict[str, Any] = {"remote": args.remote}
    else:
        store = session.store
        cache = {
            "runs_simulated": store.misses,
            "warm_from_disk": store.disk_hits,
            "reused_in_memory": store.memory_hits,
        }
        if command.audit is None:
            cache["wall_seconds"] = result.wall_time_seconds
    document = {"command": args.command, "entries": entries, "cache": cache}
    return json.dumps(document, indent=2, sort_keys=True)


def _command_request(args: argparse.Namespace) -> int:
    """``sweep``, ``attack``, ``serve`` and ``fleet``: build, run and print a request."""
    command = _COMMANDS[args.command]
    if args.remote and getattr(args, "trace", None):
        print(
            "--trace records in-process spans and cannot be combined with "
            "--remote (capture the trace on the daemon side instead)",
            file=sys.stderr,
        )
        return 2
    if getattr(args, "daemon", False):
        # Long-running mode: host this session behind the HTTP/JSON API
        # until SIGTERM/SIGINT.  The other flags shape the session only
        # (cache dir, jobs, seed).
        from repro.daemon.server import serve_daemon

        serve_daemon(_build_session(args), host=args.host, port=args.port)
        return 0
    problem = command.check(args) if command.check is not None else None
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    # Registry names and numeric parameters are validated when the
    # request resolves into its engine spec; _execute reports that
    # ValueError, with the registry's own message, and exits 2.
    settings = _settings(args)
    try:
        request = _wire_request(args, command.request_type, settings)
    except WireError as error:
        print(str(error), file=sys.stderr)
        return 2
    executed = _execute(args, request, settings)
    if isinstance(executed, int):
        return executed
    result, session = executed
    if args.json:
        print(_json_document(args, command, result, session))
    else:
        command.table(result)
        _print_summary(args, session, result.wall_time_seconds)
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    from repro.analysis.figures import FIGURES, figure_key, measure_figure, render_figure

    if "all" in [name.lower() for name in args.names]:
        names = sorted(FIGURES)
    else:
        names = [figure_key(name) for name in args.names]
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        print(
            f"unknown figure(s): {', '.join(unknown)} "
            f"(expected one of: {', '.join(sorted(FIGURES))}, or 'all')",
            file=sys.stderr,
        )
        return 2
    session = _build_session(args)
    settings = _settings(args)
    for position, name in enumerate(names):
        if position:
            print()
        figure = FIGURES[name]
        print(render_figure(figure, measure_figure(figure, settings, jobs=args.jobs)))
    _print_summary(args, session)
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
    from repro.analysis.figures import FIGURES

    print("figures:")
    for name in sorted(FIGURES):
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
    for heading, _, registry in named_choices():
        print(f"{heading}:")
        for name, description in registry.descriptions.items():
            print(f"  {name:<16} {description}")
    return 0


def _add_request_arguments(parser: argparse.ArgumentParser, request_type: Any) -> None:
    """One argument per request field that declares a flag.

    The field's metadata gives the flag, help text and argparse options;
    a sequence annotation gives ``nargs="+"``, an ``int`` or ``float``
    element the ``type``, and an option's default is the field's.
    """
    annotations = field_types(request_type)
    for field in dataclasses.fields(request_type):
        options = dict(field.metadata)
        flag = options.pop("flag", None)
        if flag is None:
            continue
        annotation = optional_inner(annotations[field.name])
        if get_origin(annotation) is abc.Sequence:
            options.setdefault("nargs", "+")
            (annotation,) = get_args(annotation)
        if annotation in (int, float):
            options["type"] = annotation
        if flag.startswith("-"):
            options.update(dest=field.name, default=field.default)
        parser.add_argument(flag, **options)


def _add_common_arguments(parser: argparse.ArgumentParser, *, run_length: bool) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for uncached runs (default 1)",
    )
    if run_length:
        # The session's run length; attack (no run length) and serve and
        # fleet (whose --instructions is a request field) leave it out.
        parser.add_argument(
            "--instructions",
            type=int,
            default=None,
            dest="run_length",
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
    _add_common_arguments(figure, run_length=True)
    figure.set_defaults(handler=_command_figure)

    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help)
        _add_request_arguments(sub, command.request_type)
        sub.add_argument(
            "--json",
            action="store_true",
            help="print entries and the cache summary as JSON (for CI and scripts)",
        )
        _add_common_arguments(sub, run_length=command.run_length)
        sub.add_argument(
            "--remote",
            default=None,
            metavar="ADDR",
            help="send the request to a running daemon (host:port or URL) "
            "instead of simulating locally",
        )
        if command.trace:
            sub.add_argument(
                "--trace",
                default=None,
                metavar="FILE",
                help="write a Chrome-trace-event (Perfetto) JSON trace of the run; "
                "outcomes are unchanged (not compatible with --remote)",
            )
        sub.set_defaults(handler=_command_request)

    serve = subparsers.choices["serve"]
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
