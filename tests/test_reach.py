"""Reach: every function in ``src/repro`` runs for a user, or is excluded.

A fixed slice of what users run -- the CLI's subcommands, a daemon round
trip and CI's examples -- runs in fresh interpreters under
``sys.setprofile`` and ``threading.setprofile``, one per kernel, and
records every function it enters.  The test fails on a function the
slice never entered that ``REACH_EXCLUSIONS`` does not name, and on an
exclusion that names a function that is gone or is now reached.  A test
is not a user: code that only tests call belongs under ``tests/``.

Skipped unless ``--reach`` is given; CI's ``slow-path`` job passes it::

    PYTHONPATH=src python -m pytest -q tests/test_reach.py --reach

When it fails on an unreached function, delete the function (and port
its tests onto a path users run), or add an exclusion with one of the
reasons in ``REASONS``.  ``python tests/test_reach.py`` runs the slice
and prints the unreached functions without comparing them.

Beside the slice, ``test_every_parameter_is_read`` reads the source
alone, so tier-1 runs it: every parameter of every function is read in
its body, unless the function fills a signature it does not choose
(``UNREAD_PARAMETERS``).
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import types
import urllib.request
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: The reasons an unreached function may stay.  Anything else goes.
ABSTRACT = "abstract"
OTHER_PROCESS = "runs only in a pool worker or in the daemon process"
UNTRIGGERED = "error or safety path the slice cannot trigger"
PERFBENCH = "perfbench calls it"
ITEM_7 = "model branch behind a cache-keyed field (ROADMAP item 7)"
#: The workload generator emits no JUMP or RETURN, so no run drives the
#: return-address stack; ``tests/test_fastpath.py`` runs those kinds on
#: both kernels instead.
NO_WORKLOAD_KIND = "model branch for an instruction kind no workload emits"
REASONS = (ABSTRACT, OTHER_PROCESS, UNTRIGGERED, PERFBENCH, ITEM_7, NO_WORKLOAD_KIND)

_DOWNGRADE = "a downgrade needs a line held in another core's L1, which no scenario produces (ROADMAP item 4)"

#: ``module:qualname`` -> (reason, what keeps the slice from it).
REACH_EXCLUSIONS: Dict[str, Tuple[str, str]] = {
    "repro.analysis.engine:EngineRequest.from_payload": (OTHER_PROCESS, "decodes a worker's requests"),
    "repro.analysis.engine:_pool_worker": (OTHER_PROCESS, "the pool's entry point"),
    "repro.core.serialization:request_from_payload": (OTHER_PROCESS, "decodes a worker's requests"),
    "repro.core.serialization:config_from_dict": (OTHER_PROCESS, "decodes a worker's run configuration"),
    "repro.obs.trace:Tracer.span_dicts": (OTHER_PROCESS, "ships a worker's spans back"),
    "repro.obs.trace:Span.to_dict": (OTHER_PROCESS, "ships a worker's spans back"),
    "repro.daemon.server:serve_daemon": (OTHER_PROCESS, "binds signals, so it needs the main thread"),
    "repro.daemon.server:serve_daemon.<locals>._request_shutdown": (OTHER_PROCESS, "SIGTERM handler"),
    "repro.analysis.engine:FleetShardRequest.workload_requests": (
        UNTRIGGERED,
        "prices a shard that carries no cycle table; a fleet plan always attaches one",
    ),
    "repro.analysis.store:ResultStore._drop_corrupt": (UNTRIGGERED, "a corrupt or mis-keyed store entry"),
    "repro.daemon.server:DaemonRequestHandler._not_found": (UNTRIGGERED, "a request for an unknown path"),
    "repro.daemon.server:DaemonRequestHandler.log_message": (UNTRIGGERED, "http.server's error log"),
    "repro.lint.engine:rule_names": (UNTRIGGERED, "names the rules when --rule names an unknown one"),
    "repro.lint.findings:Finding.fingerprint": (UNTRIGGERED, "a lint finding; src has none"),
    "repro.lint.findings:Finding.render": (UNTRIGGERED, "a lint finding; src has none"),
    "repro.lint.findings:Finding.to_dict": (UNTRIGGERED, "a lint finding; src has none"),
    "repro.mem.hierarchy:MemoryHierarchy._count_blocked_fetch": (
        UNTRIGGERED,
        "the region check blocks a fetch; every run fetches its own code",
    ),
    "repro.mem.hierarchy:MemoryHierarchy._count_page_fault": (
        UNTRIGGERED,
        "a translation faults; every run maps what it touches",
    ),
    "repro.mem.replacement:LruPolicy.invalidate": (
        UNTRIGGERED,
        "a region scrub that finds a line: no run leaves one in a region the monitor re-allocates",
    ),
    "repro.mem.replacement:PseudoRandomPolicy.invalidate": (
        UNTRIGGERED,
        "a region scrub of a pseudo-random cache: the monitor scrubs only the LLC",
    ),
    "repro.mem.replacement:LruPolicy.reset": (
        UNTRIGGERED,
        "a flush of an LRU cache: the purge flushes only the core-private, pseudo-random L1s",
    ),
    "repro.mem.coherence:Directory.revoke": (UNTRIGGERED, _DOWNGRADE),
    "repro.mem.llc_detail:DetailedLlc._run_downgrade_logic": (UNTRIGGERED, _DOWNGRADE),
    "repro.mem.llc_detail:DetailedLlc._send_one_downgrade": (UNTRIGGERED, _DOWNGRADE),
    "repro.mem.llc_detail:DetailedLlc._process_downgrade_response": (UNTRIGGERED, _DOWNGRADE),
    "repro.mem.llc_detail:DetailedLlc._deliver_due_l1_answers": (UNTRIGGERED, _DOWNGRADE),
    "repro.lint.engine:Rule.check": (ABSTRACT, "each rule overrides it"),
    "repro.mem.arbiter:PipelineEntryArbiter.entry_groups": (ABSTRACT, "each arbiter overrides it"),
    "repro.service.schedulers:SchedulingPolicy.pick": (ABSTRACT, "each policy overrides it"),
    "repro.mem.replacement:ReplacementPolicy.victim": (ABSTRACT, "each policy overrides it"),
    "repro.mem.replacement:ReplacementPolicy.touch": (ABSTRACT, "each policy overrides it"),
    "repro.mem.replacement:ReplacementPolicy.invalidate": (ABSTRACT, "each policy overrides it"),
    "repro.mem.replacement:ReplacementPolicy.reset": (ABSTRACT, "each policy overrides it"),
    "repro.mem.replacement:PseudoRandomPolicy.touch": (
        ABSTRACT,
        "the no-op the abstract touch requires; both cache layouts skip calling it",
    ),
    "repro.mem.dram:DramController.bank_of": (
        ITEM_7,
        "the bank-reordering DRAM model: only DramConfig(constant_latency=False) builds it",
    ),
    "repro.ooo.btb:ReturnAddressStack.push": (NO_WORKLOAD_KIND, "JUMP"),
    "repro.ooo.btb:ReturnAddressStack.pop": (NO_WORKLOAD_KIND, "RETURN"),
}


# ----------------------------------------------------------------------
# The functions in src/repro


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _function_nodes(tree: ast.AST) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """``(qualname, node)`` of every function, named as its code object names it."""

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.FunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                yield qualname, child
                yield from walk(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def _definitions(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(qualname, first line)`` of every function, as its code object names it."""
    for qualname, node in _function_nodes(tree):
        yield qualname, min([d.lineno for d in node.decorator_list] + [node.lineno])


def all_functions() -> Dict[Tuple[str, int], str]:
    """``(file, first line)`` -> ``module:qualname`` for every function in ``src/repro``."""
    functions = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(), str(path))
        for qualname, line in _definitions(tree):
            functions[(str(path), line)] = f"{module}:{qualname}"
    return functions


# ----------------------------------------------------------------------
# The slice, run in a fresh interpreter per kernel


def _cli(*argv: str) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"repro {' '.join(argv)} exited {code}")


def _example(name: str, *argv: str) -> None:
    saved = sys.argv
    sys.argv = [name, *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(REPO / "examples" / name), run_name="__main__")
    except SystemExit as stop:
        if stop.code not in (None, 0):
            raise SystemExit(f"examples/{name} exited {stop.code}") from None
    finally:
        sys.argv = saved


def _daemon_round_trip(address: str) -> None:
    """Health, registries, metrics, a sync and an async run, and the CLI's ``--remote``.

    The daemon logs each request at ``--log-level info``.
    """
    from repro.api.requests import ScenarioRequest, SweepRequest
    from repro.common.log import configure_logging
    from repro.daemon import DaemonClient

    configure_logging("info")
    client = DaemonClient(address)
    client.health()
    client.registries()
    with urllib.request.urlopen(f"http://{address}/v1/metrics", timeout=60) as response:
        response.read()
    client.run(SweepRequest(variants=("BASE", "FLUSH"), benchmarks=("gcc",), instructions=2000))
    job = client.submit(ScenarioRequest(scenarios=("prime_probe",), variants=("BASE",)))
    client.wait(job)
    _cli("sweep", "--remote", address, "--benchmarks", "hmmer", "--variants", "BASE", "--json")


def run_slice(cache: Path, fast_extras: bool) -> None:
    """Everything a user runs, in this interpreter, on the kernel the environment selects.

    ``fast_extras`` adds what only the fast kernel's interpreter runs:
    code no kernel changes (more figures, the lint outputs), and CI's
    examples, with ``daemon_client.py`` against this slice's daemon.
    """
    from repro.analysis.store import ResultStore
    from repro.api import Session
    from repro.daemon import ReproDaemonServer
    from repro.fleet import ADMISSION_POLICIES, CLIENT_MODELS, ROUTERS
    from repro.service import LOAD_PROFILES, SCHEDULING_POLICIES

    # 6,000 instructions: one timer trap (the interval floors at 5,000).
    variants = ["BASE", "FLUSH", "PART", "MISS", "ARB", "NONSPEC", "F+P+M+A"]
    sweep = ["sweep", "--variants", *variants, "--instructions", "6000"]
    trace = str(cache / "sweep-trace.json")
    _cli(*sweep, "--benchmarks", "gcc", "--cache-dir", str(cache / "sweep"))
    _cli(*sweep, "--benchmarks", "gcc", "--cache-dir", str(cache / "sweep"), "--json")
    _cli(*sweep, "--benchmarks", "gcc", "--no-cache", "--trace", trace)
    # Two benchmarks make two run groups, which the pool runs.
    _cli(*sweep, "--benchmarks", "gcc", "mcf", "--no-cache", "--jobs", "2")
    _cli("trace", "summary", trace)
    _cli("trace", "validate", trace)

    figures = ["fig04", "fig05", *(["fig06", "fig07", "fig09"] if fast_extras else [])]
    _cli("figure", *figures, "--instructions", "500", "--cache-dir", str(cache / "figures"))
    _cli("attack", "--variants", "BASE", "F+P+M+A", "PART", "FLUSH", "--no-cache")
    _cli("attack", "--variants", "BASE", "F+P+M+A", "--num-cores", "4", "--no-cache", "--json")

    # One store for the serving commands, so each prices a tenant's kernel once.
    small = ["--tenants", "2", "--requests", "20", "--instructions", "300", "--churn-every", "3"]
    stored = [*small, "--cache-dir", str(cache / "serving")]
    for profile in LOAD_PROFILES:
        _cli("serve", "--policy", *SCHEDULING_POLICIES, "--profile", profile, "--num-cores", "2", *stored)
    _cli("serve", "--policy", "fifo", "--variants", "BASE", "--num-cores", "2", "--json", *stored)
    # Serving loops record simulated-cycle spans, which pool workers ship back.
    _cli("serve", "--policy", "fifo", "batch", "--num-cores", "2", *small, "--no-cache", "--jobs", "2",
         "--trace", str(cache / "serve.json"))
    admissions, clients = list(ADMISSION_POLICIES), list(CLIENT_MODELS)
    fleet = ["fleet", "--shards", "2", "--shard-cores", "1", *stored]
    for index, router in enumerate(ROUTERS):
        profile = LOAD_PROFILES[index % len(LOAD_PROFILES)]
        _cli(*fleet, "--router", router, "--admission", admissions[index % len(admissions)],
             "--client", "open_loop", "--profile", profile, "--json")
    for client in clients:  # a load sweep's table names each variant's saturation point
        _cli(*fleet, "--client", client, "--admission", admissions[-1], "--load", "0.5", "0.9")

    _cli("list")
    with contextlib.chdir(REPO):
        _cli("lint", "src")
        if fast_extras:
            _cli("lint", "src", "--json")
            _cli("lint", "src", "--write-baseline", str(cache / "lint-baseline.json"))
            _cli("lint", "--list-rules")

    server = ReproDaemonServer(("127.0.0.1", 0), Session(ResultStore(cache / "daemon"), jobs=1))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = f"127.0.0.1:{server.server_port}"
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            _daemon_round_trip(address)
        if fast_extras:
            os.environ["REPRO_CACHE"] = "off"
            _example("quickstart.py", "gcc", "2000")
            _example("enclave_lifecycle.py")
            _example("side_channel_lab.py")
            _example("enclave_service.py", "40")
            _example("spec_overhead_sweep.py", "2000", "1")
            _example("trace_capture.py", str(cache / "example-trace.json"))
            _example("daemon_client.py", address)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _record_slice(kernel: str, out: Path) -> None:
    """Run the slice under the profilers; write the ``[file, line]`` of each function entered."""
    entered: Set[object] = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    if kernel == "slow":
        os.environ["REPRO_SLOW_PATH"] = "1"
    else:
        os.environ.pop("REPRO_SLOW_PATH", None)
    with tempfile.TemporaryDirectory() as cache:
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            run_slice(Path(cache), fast_extras=kernel == "fast")
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    src = str(SRC / "repro")
    reached = sorted(
        {(code.co_filename, code.co_firstlineno) for code in entered if code.co_filename.startswith(src)}
    )
    out.write_text(json.dumps(reached))


def reached_functions(tmp: Path) -> Set[str]:
    """``module:qualname`` of every function the slice entered, on either kernel."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_CACHE", None)  # tests/conftest.py turns the store off; users run with it
    processes = []
    for kernel in ("fast", "slow"):
        out = tmp / f"reach-{kernel}.json"
        argv = [sys.executable, __file__, "--record", kernel, str(out)]
        processes.append((out, subprocess.Popen(argv, env=env, cwd=tmp)))
    for _, process in processes:
        assert process.wait(timeout=600) == 0, "the reach slice failed"
    functions = all_functions()
    reached = set()
    for out, _ in processes:
        for path, line in json.loads(out.read_text()):
            name = functions.get((path, line))
            if name is not None:
                reached.add(name)
    return reached


# ----------------------------------------------------------------------
# The checks


@pytest.fixture(scope="module")
def reach(request, tmp_path_factory) -> Tuple[Set[str], Set[str]]:
    if not request.config.getoption("reach"):
        pytest.skip("needs --reach (CI's slow-path job)")
    reached = reached_functions(tmp_path_factory.mktemp("reach"))
    return set(all_functions().values()), reached


def test_every_function_is_reached_or_excluded(reach):
    functions, reached = reach
    unexcused = sorted(functions - reached - set(REACH_EXCLUSIONS))
    assert not unexcused, "no user reaches these; delete them or exclude them with a reason:\n" + "\n".join(
        unexcused
    )


def test_every_exclusion_is_still_needed(reach):
    functions, reached = reach
    stale = sorted(name for name in REACH_EXCLUSIONS if name not in functions or name in reached)
    assert not stale, "these exclusions name a function that is gone or reached:\n" + "\n".join(stale)


def _compiled_functions(path: Path) -> Iterator[Tuple[Tuple[str, int], str]]:
    """What the profiler sees: every named function code object in ``path``."""
    module = _module_name(path)
    pending = [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        pending.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
            yield (str(path), code.co_firstlineno), f"{module}:{code.co_qualname}"


def test_the_function_table_names_what_the_profiler_sees():
    # The slice maps each entered code object to a name by file and first
    # line, so the table must hold exactly the compiled functions.
    compiled = dict(
        entry for path in sorted((SRC / "repro").rglob("*.py")) for entry in _compiled_functions(path)
    )
    assert all_functions() == compiled


def test_every_exclusion_gives_an_allowed_reason():
    wrong = sorted(name for name, (reason, _) in REACH_EXCLUSIONS.items() if reason not in REASONS)
    assert not wrong, f"exclusions without an allowed reason: {wrong}"


# ----------------------------------------------------------------------
# Parameters: each is read, or its function fills a signature it does
# not choose

DUNDER = "a dunder protocol method"
SIGNAL_HANDLER = "a signal handler"
IMPLEMENTS_ABSTRACT = "implements an abstract method"
MEMO_KEY = "a memo key kept on purpose"
PARAMETER_REASONS = (DUNDER, SIGNAL_HANDLER, IMPLEMENTS_ABSTRACT, MEMO_KEY)

#: ``module:qualname`` -> (reason, the parameters it leaves unread).
UNREAD_PARAMETERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    # The configuration's repr tells ``True`` from ``1`` in the memo's key.
    "repro.core.serialization:_config_document": (MEMO_KEY, ("spelling",)),
    "repro.daemon.server:serve_daemon.<locals>._request_shutdown": (
        SIGNAL_HANDLER,
        ("signum", "frame"),
    ),
    "repro.mem.cache:SetAssociativeCache.__new__": (
        DUNDER,
        ("name", "geometry", "index_for", "stats"),
    ),
    "repro.mem.replacement:PseudoRandomPolicy.victim": (IMPLEMENTS_ABSTRACT, ("set_index",)),
    "repro.mem.replacement:PseudoRandomPolicy.touch": (IMPLEMENTS_ABSTRACT, ("set_index", "way")),
    "repro.mem.replacement:PseudoRandomPolicy.invalidate": (
        IMPLEMENTS_ABSTRACT,
        ("set_index", "way"),
    ),
    "repro.obs.trace:_NullSpan.__exit__": (DUNDER, ("exc_type", "exc", "tb")),
    "repro.obs.trace:_WallSpan.__exit__": (DUNDER, ("exc_type", "exc", "tb")),
}


def _declares_only(function: ast.FunctionDef) -> bool:
    """True for a body of a docstring, ``pass``, ``...`` or ``raise NotImplementedError``.

    Such a function declares a signature (an abstract method, or a
    library hook silenced by an override) and reads nothing.
    """
    body = function.body[1:] if ast.get_docstring(function) is not None else function.body
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            if statement.value.value is Ellipsis:
                continue
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            raised = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
            if isinstance(raised, ast.Name) and raised.id == "NotImplementedError":
                continue
        return False
    return True


def unread_parameters() -> Dict[str, Tuple[str, ...]]:
    """``module:qualname`` -> the parameters no statement of its body reads.

    A method's ``self`` or ``cls``, a parameter whose name starts with
    ``_`` (which says it goes unread) and the parameters of a function
    that only declares (:func:`_declares_only`) are not counted.  A read
    in a nested function counts.
    """
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        for qualname, node in _function_nodes(ast.parse(path.read_text(), str(path))):
            if _declares_only(node):
                continue
            arguments = node.args
            names = [
                argument.arg
                for argument in (
                    *arguments.posonlyargs,
                    *arguments.args,
                    *arguments.kwonlyargs,
                    arguments.vararg,
                    arguments.kwarg,
                )
                if argument is not None
            ]
            if names[:1] in (["self"], ["cls"]):
                names = names[1:]
            read = {
                name.id
                for statement in node.body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            unread = tuple(name for name in names if name not in read and not name.startswith("_"))
            if unread:
                found[f"{module}:{qualname}"] = unread
    return found


def test_every_parameter_is_read():
    unread = unread_parameters()
    listed = {name: set(parameters) for name, (_, parameters) in UNREAD_PARAMETERS.items()}
    unexcused = sorted(
        f"{name}: {', '.join(parameter for parameter in parameters if parameter not in listed.get(name, ()))}"
        for name, parameters in unread.items()
        if not set(parameters) <= listed.get(name, set())
    )
    assert not unexcused, "nothing reads these parameters; remove them, or exclude the function:\n" + "\n".join(
        unexcused
    )
    stale = sorted(name for name, parameters in listed.items() if not parameters <= set(unread.get(name, ())))
    assert not stale, "these exclusions name a function that is gone or a parameter that is read:\n" + "\n".join(
        stale
    )
    wrong = sorted(name for name, (reason, _) in UNREAD_PARAMETERS.items() if reason not in PARAMETER_REASONS)
    assert not wrong, f"exclusions without an allowed reason: {wrong}"


def main(argv: List[str]) -> int:
    if argv[:1] == ["--record"]:
        _record_slice(argv[1], Path(argv[2]))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        reached = reached_functions(Path(tmp))
    for name in sorted(set(all_functions().values()) - reached):
        marker = "excluded" if name in REACH_EXCLUSIONS else "UNREACHED"
        print(f"{marker:10} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
