"""Determinism rule: no nondeterminism outside ``DeterministicRng``.

Every number the simulator reports must be a pure function of the
request that produced it — that is what the content-hash cache keys and
the serial==parallel guarantee mean.  This rule forbids the ways that
property silently breaks:

* ``import random`` / ``import time`` inside the simulation packages —
  all randomness must flow through :class:`repro.common.rng.DeterministicRng`
  and simulated time is cycle counts, never wall-clock;
* reaching into RNG internals (``._random`` / ``._randbelow`` /
  ``.getrandbits``) — the two sanctioned fast-path taps in
  ``mem/cache.py`` and ``workloads/generator.py`` carry inline
  ``# repro: allow[determinism]`` annotations and the equivalence suite;
  any new tap must earn the same;
* run-time environment reads (``os.environ`` / ``os.getenv``) anywhere
  in the tree — configuration must arrive through explicit request
  fields so cached results can never diverge from their keys.  The
  sanctioned configuration boundaries are listed in
  :data:`ENV_READ_ALLOWLIST` or annotated inline with the reason they
  cannot corrupt a cached result;
* iteration over unordered ``set``/``frozenset`` values and ``id()``
  used as a container key — both make results depend on interpreter
  details (hash seeding, allocation addresses) rather than the spec.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple

from repro.lint.engine import LintContext, Rule, SourceModule, register_rule
from repro.lint.findings import Finding

#: Packages whose code runs inside a simulation (cycle-level or
#: event-level).  ``workloads`` is included: the synthetic generator's
#: draw sequence is part of every run's identity.  ``daemon`` is too —
#: it answers requests straight from sessions and the store, so any
#: wall-clock or RNG use there could leak into a served result.
SIM_PACKAGES: Tuple[str, ...] = (
    "mem",
    "ooo",
    "core",
    "monitor",
    "service",
    "fleet",
    "attacks",
    "isa",
    "os_model",
    "workloads",
    "daemon",
)

#: Modules the whole rule skips, with the justification the catalog in
#: EXPERIMENTS.md documents.  Path-suffix matched.
MODULE_ALLOWLIST: Dict[str, str] = {
    "repro/common/rng.py": (
        "owns the random module for the whole tree; every simulator draw "
        "flows through DeterministicRng seeded from the request"
    ),
}

#: Modules allowed to read the environment, with justifications.
#: Path-suffix matched; anything else needs an inline annotation.
ENV_READ_ALLOWLIST: Dict[str, str] = {
    "repro/common/fastpath.py": (
        "REPRO_SLOW_PATH selects between two bit-identical kernels, so "
        "the choice cannot affect any cached result"
    ),
    "repro/analysis/store.py": (
        "REPRO_CACHE_DIR/REPRO_CACHE_MODE select where results persist, "
        "never what they contain"
    ),
}

#: Attribute names that reach inside a ``random.Random`` instance.
_RNG_INTERNALS = frozenset({"_random", "_randbelow", "getrandbits"})

#: Modules whose import inside simulation packages breaks determinism.
_FORBIDDEN_MODULES = {
    "random": "draw through DeterministicRng instead",
    "time": "simulated time is cycle counts; wall-clock reads diverge runs",
}


def _module_allowed(module: SourceModule, allowlist: Dict[str, str]) -> bool:
    """Suffix entries match a file; ``dir/`` entries match a subtree."""
    anchored = f"/{module.relpath}"
    for suffix in allowlist:
        if suffix.endswith("/"):
            if f"/{suffix}" in anchored:
                return True
        elif module.relpath.endswith(suffix):
            return True
    return False


def _resolves_to(module: SourceModule, node: ast.expr, target: str) -> bool:
    """True when ``node`` is a name bound to the ``target`` module."""
    return (
        isinstance(node, ast.Name)
        and module.imports.get(node.id, "") == target
    )


class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "forbid random/time/os.environ/RNG-internals/unordered iteration "
        "in simulation code"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        for module in context.modules:
            if _module_allowed(module, MODULE_ALLOWLIST):
                continue
            in_sim = module.in_package(*SIM_PACKAGES)
            env_allowed = _module_allowed(module, ENV_READ_ALLOWLIST)
            for node in ast.walk(module.tree):
                if in_sim:
                    yield from self._check_sim_node(module, node)
                if not env_allowed:
                    yield from self._check_env_read(module, node)

    # ------------------------------------------------------------------
    # Simulation-scope checks

    def _check_sim_node(
        self, module: SourceModule, node: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _FORBIDDEN_MODULES:
                    yield self.finding(
                        module,
                        node,
                        f"import of {root!r} in simulation code: "
                        f"{_FORBIDDEN_MODULES[root]}",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] in _FORBIDDEN_MODULES:
                root = (node.module or "").split(".")[0]
                yield self.finding(
                    module,
                    node,
                    f"import from {root!r} in simulation code: "
                    f"{_FORBIDDEN_MODULES[root]}",
                )
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _RNG_INTERNALS
            # ``self._randbelow`` etc. are a class's own cached handles;
            # the tap that *bound* them is where the internals were
            # reached into, and that site is the one flagged.
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            yield self.finding(
                module,
                node,
                f"access to RNG internals ({node.attr!r}) in simulation code; "
                "sanctioned fast-path taps must carry an inline allow "
                "annotation and equivalence-suite coverage",
            )
        elif isinstance(node, (ast.For, ast.comprehension)):
            iterable = node.iter
            if self._is_unordered(iterable):
                yield self.finding(
                    module,
                    iterable,
                    "iteration over an unordered set in simulation code; "
                    "iterate a sorted() or insertion-ordered container instead",
                )
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None and self._is_id_call(key):
                    yield self.finding(
                        module,
                        key,
                        "id()-keyed dict in simulation code: object addresses "
                        "vary across processes; key on a stable identity",
                    )
        elif isinstance(node, ast.Subscript) and self._is_id_call(node.slice):
            yield self.finding(
                module,
                node.slice,
                "id()-keyed container access in simulation code: object "
                "addresses vary across processes; key on a stable identity",
            )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("add", "discard")
                and any(self._is_id_call(argument) for argument in node.args)
            ):
                yield self.finding(
                    module,
                    node,
                    "id() stored in a container in simulation code: object "
                    "addresses vary across processes; use a stable identity",
                )

    @staticmethod
    def _is_unordered(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    @staticmethod
    def _is_id_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    # ------------------------------------------------------------------
    # Tree-wide environment reads

    def _check_env_read(
        self, module: SourceModule, node: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            if _resolves_to(module, node.value, "os"):
                yield self.finding(
                    module,
                    node,
                    f"run-time environment read (os.{node.attr}): route the "
                    "value through an explicit request field, or annotate "
                    "with why it cannot diverge a cached result from its key",
                )
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and node.level == 0:
            for alias in node.names:
                if alias.name in ("environ", "getenv"):
                    yield self.finding(
                        module,
                        node,
                        f"import of os.{alias.name}: route configuration "
                        "through explicit request fields instead",
                    )


register_rule(DeterminismRule())
