"""Golden CLI corpus: pinned output of ``repro.cli.main`` over a fixed argv list.

Each case runs one or more CLI invocations in-process and compares, for
each one, the exit code, stdout and stderr as full text, and the
``to_wire()`` document of every request handed to ``Session.run`` (or
POSTed by ``--remote``), against ``fixtures/golden_cli.json``.  A
failure names the case and shows the line that changed.

Unstable parts are masked, never dropped: the values of
``wall_seconds`` and of the ``(...s wall)`` footer, and the case's
temporary directory.  For argparse's own errors only the exit code and
the final ``error:`` line are pinned (the usage line is ``--help``
wording).  Each subcommand's option strings are pinned too.

Regenerate the fixture only when a CLI output change is intended::

    PYTHONPATH=src python tests/test_golden_cli.py > tests/fixtures/golden_cli.json
"""

import argparse
import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from repro.api import Session, set_default_session
from repro.cli import build_parser, main
from repro.daemon.client import DaemonClient, DaemonError

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_cli.json"

#: Environment the CLI reads; every case starts with all of them unset
#: except the store directory, which points into the case's temp dir.
ENVIRONMENT = (
    "REPRO_BENCH_INSTRUCTIONS",
    "REPRO_BENCH_SEED",
    "REPRO_BENCH_JOBS",
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
)

#: The argv perfbench's ``sweep`` workload runs, cold then warm.
PERFBENCH_SWEEP = (
    "sweep", "--json", "--jobs", "1", "--instructions", "200",
    "--seed", "2019", "--cache-dir", "{tmp}/store",
)

SMALL_SERVE = ("--requests", "24", "--tenants", "2", "--num-cores", "2", "--instructions", "1000")

#: Case id -> the invocations it runs, in order, in one temp dir
#: (``{tmp}`` in an argument names it).
CASES = {
    "sweep/json": (
        ("sweep", "--variants", "BASE", "FLUSH+MISS", "--benchmarks", "hmmer", "mcf",
         "--seeds", "7", "8", "--instructions", "300", "--no-cache", "--json"),
    ),
    "sweep/table": (
        ("sweep", "--variants", "BASE", "ARB", "--benchmarks", "libquantum",
         "--instructions", "300", "--seed", "11", "--no-cache"),
    ),
    "sweep/table-seeds-no-base": (
        ("sweep", "--variants", "MISS+FLUSH", "--benchmarks", "gcc", "--seeds", "1", "2",
         "--instructions", "300", "--no-cache"),
    ),
    "sweep/settings-from-env": (
        ("sweep", "--variants", "BASE", "--benchmarks", "astar", "--no-cache", "--json"),
    ),
    "sweep/flags-beat-env": (
        ("sweep", "--variants", "BASE", "--benchmarks", "astar", "--seed", "6",
         "--instructions", "350", "--no-cache", "--json"),
    ),
    "sweep/settings-default": (
        ("sweep", "--variants", "F+P+M+A", "--benchmarks", "bzip2", "--no-cache", "--json"),
    ),
    "sweep/perfbench-cold-then-warm": (PERFBENCH_SWEEP, PERFBENCH_SWEEP),
    "sweep/trace": (
        ("sweep", "--variants", "BASE", "--benchmarks", "hmmer", "--instructions", "300",
         "--no-cache", "--trace", "{tmp}/sweep-trace.json"),
    ),
    "sweep/remote": (
        ("sweep", "--benchmarks", "gcc", "--remote", "127.0.0.1:9", "--json"),
    ),
    "attack/json": (
        ("attack", "prime_probe", "--variants", "BASE", "F+P+M+A", "--seeds", "3",
         "--num-cores", "3", "--no-cache", "--json"),
    ),
    "attack/table": (
        ("attack", "prime_probe", "contention", "--variants", "BASE", "PART", "--no-cache"),
    ),
    "attack/all-seeds-table": (
        ("attack", "all", "--variants", "BASE", "--seeds", "5", "6", "--seed", "4", "--no-cache"),
    ),
    "attack/remote": (
        ("attack", "spectre", "--remote", "http://127.0.0.1:9/", "--jobs", "1"),
    ),
    "serve/json": (
        ("serve", "--policy", "fifo", "affinity", "--variants", "BASE", "F+P+M+A",
         "--load", "0.6", "0.9", "--profile", "bursty", "--num-cores", "2", "--tenants", "3",
         "--requests", "20", "--churn-every", "4", "--instructions", "1500", "--seeds", "4",
         "--no-cache", "--json"),
    ),
    "serve/table": (("serve", *SMALL_SERVE, "--no-cache"),),
    "serve/remote": (("serve", *SMALL_SERVE, "--seed", "12", "--remote", "127.0.0.1:9"),),
    "fleet/json": (
        ("fleet", "--variants", "BASE", "F+P+M+A", "--load", "0.5", "1.2", "--shards", "2",
         "--shard-cores", "1", "--router", "least_loaded", "--admission", "deadline",
         "--client", "open_loop", "--policy", "fifo", "--profile", "diurnal",
         "--queue-depth", "3", "--tenants", "3", "--requests", "30", "--slo-factor", "5",
         "--think-factor", "1.5", "--churn-every", "3", "--wipe-bytes-per-cycle", "32",
         "--measurement-cycles", "10", "--instructions", "1200", "--seeds", "9",
         "--no-cache", "--json"),
    ),
    "fleet/table-load-sweep": (
        ("fleet", "--load", "0.4", "0.8", "--shards", "2", "--tenants", "2", "--requests", "30",
         "--instructions", "1000", "--no-cache"),
    ),
    "fleet/remote": (
        ("fleet", "--variants", "BASE", "--remote", "127.0.0.1:9", "--json"),
    ),
    "figure/fig04": (("figure", "fig04", "--no-cache"),),
    "figure/series-spellings-and-pair": (
        ("figure", "5", "fig05", "figure5", "fig07", "--instructions", "300", "--seed", "3",
         "--no-cache"),
    ),
    "figure/unknown": (("figure", "fig05", "fig99", "--no-cache"),),
    "list": (("list",),),
    "error/unknown-benchmark": (("sweep", "--benchmarks", "gcc", "nosuch", "--no-cache"),),
    "error/unknown-spec": (("sweep", "--variants", "BASE", "TURBO", "--no-cache"),),
    "error/unknown-scenario": (("attack", "prime_probe", "nosuch", "--no-cache"),),
    "error/trace-with-remote": (
        ("sweep", "--trace", "{tmp}/t.json", "--remote", "127.0.0.1:9"),
        ("serve", "--trace", "{tmp}/t.json", "--remote", "127.0.0.1:9"),
        ("fleet", "--trace", "{tmp}/t.json", "--remote", "127.0.0.1:9"),
    ),
    "error/serve-policy": (("serve", "--policy", "lifo", "--no-cache"),),
    "error/serve-profile": (("serve", "--profile", "weekend", "--no-cache"),),
    "error/fleet-router": (("fleet", "--router", "nope", "--no-cache"),),
    "error/sweep-instructions-zero": (("sweep", "--instructions", "0", "--no-cache"),),
    "error/attack-instructions": (("attack", "--instructions", "300"),),
}

#: Case id -> environment it sets on top of the cleared one.
CASE_ENV = {
    "sweep/settings-from-env": {"REPRO_BENCH_SEED": "5", "REPRO_BENCH_INSTRUCTIONS": "400"},
    "sweep/flags-beat-env": {"REPRO_BENCH_SEED": "5", "REPRO_BENCH_INSTRUCTIONS": "400"},
    "serve/remote": {"REPRO_BENCH_SEED": "5", "REPRO_BENCH_INSTRUCTIONS": "400"},
    "attack/remote": {"REPRO_BENCH_SEED": "21"},
}

#: Stand-in answer of a daemon that is never contacted.
UNREACHED = "daemon not contacted: the golden corpus records the request instead"


@contextlib.contextmanager
def environment(values):
    """Set (or, for ``None``, unset) environment variables for a block."""
    saved = {name: os.environ.get(name) for name in values}
    try:
        for name, value in values.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def mask(text, tmp):
    """Hide the temp dir and wall times, keeping the keys around them."""
    text = text.replace(tmp, "<tmp>")
    text = re.sub(r'("wall_seconds": )[^,\n]+', r'\1"<masked>"', text)
    return re.sub(r"\([0-9.]+s wall\)", "(<masked>s wall)", text)


def invoke(argv, tmp):
    """One in-process CLI invocation: its exit code, output and requests."""
    wires = []
    session_run = Session.run

    def recording_run(session, request):
        wires.append(request.to_wire())
        return session_run(session, request)

    def unreachable(client, document):
        wires.append(document)
        raise DaemonError(UNREACHED)

    stdout, stderr = io.StringIO(), io.StringIO()
    usage_error = False
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(Session, "run", recording_run))
        stack.enter_context(mock.patch.object(DaemonClient, "run_wire", unreachable))
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        try:
            code = main(list(argv))
        except SystemExit as exit:
            code, usage_error = exit.code, True
        finally:
            set_default_session(None)
    errors = mask(stderr.getvalue(), tmp)
    if usage_error:
        errors = errors.strip().splitlines()[-1]
    return {
        "argv": [mask(argument, tmp) for argument in argv],
        "exit": code,
        "stdout": mask(stdout.getvalue(), tmp),
        "stderr": errors,
        "wire": wires,
    }


def run_case(case_id):
    """Every invocation of one case, in a fresh temp dir."""
    with tempfile.TemporaryDirectory() as tmp:
        values = dict.fromkeys(ENVIRONMENT)
        values["REPRO_CACHE_DIR"] = os.path.join(tmp, "default-store")
        values.update(CASE_ENV.get(case_id, {}))
        with environment(values):
            return [
                invoke([argument.replace("{tmp}", tmp) for argument in argv], tmp)
                for argv in CASES[case_id]
            ]


def option_strings():
    """Subcommand (``""`` for the top level) -> its sorted option strings."""
    parser = build_parser()
    (subcommands,) = [
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ]
    parsers = {"": parser, **subcommands.choices}
    return {
        name: sorted(option for action in sub._actions for option in action.option_strings)
        for name, sub in parsers.items()
    }


def current_corpus():
    """The golden document as the current code produces it."""
    return {
        "cases": {case_id: run_case(case_id) for case_id in CASES},
        "options": option_strings(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestGoldenCli:
    def test_fixture_covers_the_cases(self, golden):
        assert sorted(golden["cases"]) == sorted(CASES)
        for case_id, argvs in CASES.items():
            assert len(golden["cases"][case_id]) == len(argvs), case_id

    def test_option_strings_match(self, golden):
        assert option_strings() == golden["options"]

    def test_corpus_sets_every_request_flag(self, golden):
        used = {argument for argvs in CASES.values() for argv in argvs for argument in argv}
        for command in ("sweep", "attack", "serve", "fleet"):
            unused = set(golden["options"][command]) - used
            assert unused <= {"-h", "--help", "--daemon", "--host", "--port"}, (command, unused)

    @pytest.mark.parametrize("case_id", sorted(CASES))
    def test_case_matches_golden(self, golden, case_id):
        for actual, expected in zip(run_case(case_id), golden["cases"][case_id]):
            assert actual["argv"] == expected["argv"]
            assert actual["stderr"] == expected["stderr"], actual["argv"]
            assert actual["stdout"] == expected["stdout"], actual["argv"]
            assert actual["exit"] == expected["exit"], actual["argv"]
            assert actual["wire"] == expected["wire"], actual["argv"]


if __name__ == "__main__":
    json.dump(current_corpus(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
