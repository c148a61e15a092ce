"""Entry points load no simulator code, lazy imports change no registry,
and every name a package exports resolves.

A warm ``repro sweep`` answers every cell from the result store, so the
CLI, the API and the daemon modules must not import the cycle kernel,
the memory hierarchy, the attacks, the serving loops or a process pool
to get there (``repro.common.lazy``; EXPERIMENTS.md, "Simulator
performance").  Each case runs in a fresh interpreter and reads
``sys.modules`` at exit, so function-local imports on the real path
count, however they were made (``-X importtime`` misses modules loaded
through ``importlib.import_module``, which the lazy exports use).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: What no entry point may load: the simulator and the process pool.
SIMULATOR = (
    "repro.ooo",
    "repro.attacks",
    "repro.monitor",
    "repro.os_model",
    "repro.isa",
    "repro.core.processor",
    "repro.mem.hierarchy",
    "repro.mem.cache",
    "repro.mem.llc",
    "repro.mem.llc_detail",
    "repro.workloads.generator",
    "repro.service.simulation",
    "repro.fleet.simulation",
    "multiprocessing",
    "concurrent.futures.process",
)

#: What the CLI may load only when a subcommand needs it: the daemon
#: and the HTTP client stack.
DAEMON = ("repro.daemon", "http.client", "ssl")

SWEEP = [
    "sweep",
    "--variants",
    "BASE",
    "F+P+M+A",
    "--benchmarks",
    "gcc",
    "mcf",
    "--instructions",
    "2000",
    "--json",
]


#: Prepended to every probe: prints the loaded modules as the last
#: stderr line when the interpreter exits.
_AT_EXIT = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
)


def _python(code):
    """Run ``code`` in a fresh interpreter on ``src``: (stdout, loaded modules)."""
    completed = subprocess.run(
        [sys.executable, "-c", _AT_EXIT + code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout, set(json.loads(completed.stderr.splitlines()[-1]))


def _repro(*argv):
    """``python -m repro *argv``, run through :mod:`runpy` as ``-m`` runs it."""
    return _python(
        f"import runpy\nsys.argv = ['repro', *{list(argv)!r}]\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    )


def _among(loaded, names):
    """The modules of ``loaded`` that are, or sit under, one of ``names``."""
    return sorted(
        module
        for module in loaded
        for name in names
        if module == name or module.startswith(name + ".")
    )


def test_importing_the_cli_loads_no_simulator_or_daemon():
    _, loaded = _python("import repro.cli")
    assert "repro.cli" in loaded
    assert _among(loaded, SIMULATOR + DAEMON) == []


def test_importing_the_api_and_daemon_modules_loads_no_simulator():
    _, loaded = _python("import repro.api, repro.daemon.server, repro.daemon.client")
    assert "repro.daemon.server" in loaded
    assert _among(loaded, SIMULATOR) == []


def test_warm_sweep_loads_no_simulator_and_matches_the_cold_one(tmp_path):
    cache = ["--cache-dir", str(tmp_path / "store")]
    cold_out, cold_loaded = _repro(*SWEEP, *cache, "--jobs", "1")
    assert "repro.core.processor" in cold_loaded  # the probe sees real work
    cold = json.loads(cold_out)
    assert cold["cache"]["runs_simulated"] == 4
    for jobs in ("1", "2"):
        warm_out, loaded = _repro(*SWEEP, *cache, "--jobs", jobs)
        warm = json.loads(warm_out)
        assert warm["cache"]["runs_simulated"] == 0
        assert warm["cache"]["warm_from_disk"] == 4
        assert [dict(entry, origin="warm") for entry in cold["entries"]] == warm["entries"]
        assert _among(loaded, SIMULATOR + DAEMON) == []


#: Prints what every registry holds, as ``repro list`` shows it, plus the
#: arrival profiles (which ``repro list`` does not show).
_REGISTRIES = """
import contextlib, io, json
from repro.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["list"])
from repro.core.mitigations import parse_spec
from repro.service.arrivals import LOAD_PROFILES
spec = parse_spec("F+P+M+A")
print(json.dumps({
    "code": code,
    "list": out.getvalue(),
    "profiles": list(LOAD_PROFILES),
    "spec": [spec.name, list(spec.mitigations)],
}))
"""

_IMPORT_EVERYTHING = """
import importlib, pkgutil, repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
"""


def test_registries_do_not_depend_on_what_was_imported_first():
    lean, lean_loaded = _python(_REGISTRIES)
    full, full_loaded = _python(_IMPORT_EVERYTHING + _REGISTRIES)
    assert "repro.lint.parity" in full_loaded
    assert "repro.fleet.simulation" not in lean_loaded
    assert json.loads(lean) == json.loads(full)
    document = json.loads(lean)
    assert document["code"] == 0
    assert document["spec"] == ["F+P+M+A", ["FLUSH", "PART", "MISS", "ARB"]]
    for heading in ("mitigations", "named variants", "benchmarks", "scenarios",
                    "serving policies", "fleet routers", "fleet admission policies",
                    "fleet client models"):
        assert f"\n{heading}" in document["list"]


#: Reads every name each ``repro`` package lists in ``__all__``: the lazy
#: export tables name modules and classes as strings, which no import
#: checks until someone reads the name.
_READ_EVERY_EXPORT = """
import importlib, pkgutil, repro
packages = [repro] + [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]
unresolved = []
for package in packages:
    for name in package.__all__:
        try:
            getattr(package, name)
        except (AttributeError, ImportError) as error:
            unresolved.append(f"{package.__name__}.{name}: {error!r}")
print(json.dumps({"packages": [package.__name__ for package in packages], "unresolved": unresolved}))
"""


def test_every_package_export_resolves():
    out, _ = _python(_READ_EVERY_EXPORT)
    document = json.loads(out)
    assert {"repro", "repro.mem", "repro.ooo", "repro.core"} <= set(document["packages"])
    assert document["unresolved"] == []
