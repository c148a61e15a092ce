"""Obs-purity rule: tracing/metrics stay out of results and sim time.

The observability layer (``repro/obs/``) is contractually inert: traces
and metrics ride alongside a run and may never change what it computes.
This rule forbids the two ways that contract silently breaks:

* **obs state reaching a cache-key digest** — any name imported from
  ``repro.obs`` used inside a ``cache_key``/``*_cache_key`` function
  would make content hashes depend on whether tracing was enabled,
  poisoning the store;
* **wall-clock reads inside simulated-cycle code** — the packages that
  emit simulated-cycle spans (``service``, ``fleet``) must express all
  time as event-loop cycle counts.  Importing ``wall_time``/``wall_span``
  there, or passing a wall-read into a ``sim_span`` call,
  mixes the two clock domains and diverges traced from untraced runs.

``repro/obs/`` itself is exempt (it owns the wall clock), and the
``daemon``/``analysis`` layers may take wall spans freely — they run
outside simulated time.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.engine import LintContext, Rule, SourceModule, register_rule
from repro.lint.findings import Finding

#: Packages whose spans are denominated in simulated cycles; wall-clock
#: reads (even through the sanctioned obs API) are forbidden here.
CYCLE_SPAN_PACKAGES: Tuple[str, ...] = ("service", "fleet")

#: Names that read the wall clock, directly or through the obs API.
WALL_NAMES = frozenset(
    {
        "wall_time",
        "wall_span",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "time_ns",
    }
)

#: Simulated-cycle span emitters whose arguments are checked.
_SIM_EMITTERS = frozenset({"sim_span"})


def _is_obs_import(module: SourceModule, name: str) -> bool:
    """True when ``name`` is bound to anything under ``repro.obs``."""
    target = module.imports.get(name, "")
    return target == "repro.obs" or target.startswith("repro.obs.")


def _is_cache_key_function(name: str) -> bool:
    return name == "cache_key" or name.endswith("_cache_key")


class ObsPurityRule(Rule):
    name = "obs-purity"
    description = (
        "forbid obs names in cache-key functions and wall-clock reads "
        "in simulated-cycle span code"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        for module in context.modules:
            if "repro/obs/" in module.relpath:
                continue
            yield from self._check_cache_key_functions(module)
            if module.in_package(*CYCLE_SPAN_PACKAGES):
                yield from self._check_wall_imports(module)
            yield from self._check_sim_span_args(module)

    # ------------------------------------------------------------------
    # Cache-key digest purity

    def _check_cache_key_functions(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_cache_key_function(node.name):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and _is_obs_import(module, inner.id):
                    yield self.finding(
                        module,
                        inner,
                        f"obs name {inner.id!r} used inside cache-key function "
                        f"{node.name!r}: tracing/metrics state must never "
                        "reach a content-hash digest",
                    )

    # ------------------------------------------------------------------
    # Wall-clock reads in cycle-span packages

    def _check_wall_imports(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                source = node.module or ""
                if not source.startswith("repro.obs"):
                    continue
                for alias in node.names:
                    if alias.name in WALL_NAMES:
                        yield self.finding(
                            module,
                            node,
                            f"import of wall-clock reader {alias.name!r} in a "
                            "simulated-cycle package: spans here must use "
                            "event-loop cycle counts only",
                        )
            elif isinstance(node, ast.Attribute) and node.attr in WALL_NAMES:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read ({node.attr!r}) in a simulated-cycle "
                    "package: spans here must use event-loop cycle counts only",
                )

    # ------------------------------------------------------------------
    # Wall reads flowing into simulated-cycle spans

    def _check_sim_span_args(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in _SIM_EMITTERS):
                continue
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                for inner in ast.walk(argument):
                    bad = None
                    if isinstance(inner, ast.Name) and inner.id in WALL_NAMES:
                        bad = inner.id
                    elif isinstance(inner, ast.Attribute) and inner.attr in WALL_NAMES:
                        bad = inner.attr
                    if bad is not None:
                        yield self.finding(
                            module,
                            inner,
                            f"wall-clock read ({bad!r}) flows into a "
                            f"{func.attr} argument: simulated-cycle spans "
                            "must be built from event-loop time only",
                        )


register_rule(ObsPurityRule())
