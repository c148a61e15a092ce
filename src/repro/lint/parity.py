"""Fast/slow parity rule: every fast lane keeps its reference twin.

The kernel's speed comes from fast lanes (``*_fast`` methods and
``*_slab`` storage paths) that must stay bit-identical to the reference
implementation preserved behind ``REPRO_SLOW_PATH=1``.  The equivalence
suite compares *outputs*; this rule checks the *structure* that makes the
comparison meaningful in every module importing
:mod:`repro.common.fastpath`:

* the module must actually consult :func:`slow_path_enabled` — an import
  without a dispatch point means a lane lost its escape hatch;
* every ``*_fast`` lane needs a ``*_reference`` twin (and every
  ``*_slab`` lane its un-suffixed public twin) defined in the same
  class or module scope, and the twin must be reachable — referenced by
  a dispatcher, or the public default the fast lane overrides;
* counter names registered on a fast lane must be a subset of
  its reference twin's, so the statistics a fast run reports can never
  include a counter the oracle path cannot produce (f-string names are
  compared with their interpolations normalised to ``{}``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import LintContext, Rule, SourceModule, register_rule
from repro.lint.findings import Finding

#: Module whose import marks a file as carrying fast/slow lanes.
FASTPATH_MODULE = "repro.common.fastpath"

#: The dispatch predicate fast lanes must be gated on.
DISPATCH_NAME = "slow_path_enabled"

_FAST_SUFFIX = "_fast"
_SLAB_SUFFIX = "_slab"


@dataclass
class _Lane:
    """One function definition, qualified by its enclosing class."""

    node: ast.FunctionDef
    scope: str  # enclosing class name, or "" at module level

    @property
    def name(self) -> str:
        return self.node.name


def _imports_fastpath(module: SourceModule) -> bool:
    return any(
        target == FASTPATH_MODULE or target.startswith(f"{FASTPATH_MODULE}.")
        for target in module.imports.values()
    )


def _collect_lanes(tree: ast.Module) -> List[_Lane]:
    lanes: List[_Lane] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                lanes.append(_Lane(node=child, scope=scope))
                # Nested defs keep the enclosing scope; the twin of a
                # nested fast lane must live beside it.
                visit(child, scope)
            else:
                visit(child, scope)

    visit(tree, "")
    return lanes


def _referenced_names(tree: ast.Module, *, outside: ast.FunctionDef) -> Set[str]:
    """Every Name/Attribute identifier used outside ``outside``'s body."""
    skip = set()
    for node in ast.walk(outside):
        skip.add(id(node))
    names: Set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _twin_candidates(name: str) -> List[str]:
    if name.endswith(_FAST_SUFFIX):
        base = name[: -len(_FAST_SUFFIX)]
        return [f"{base}_reference", f"{base}_slow", base.lstrip("_")]
    base = name[: -len(_SLAB_SUFFIX)]
    return [base.lstrip("_"), f"{base}_reference"]


def _counter_names(function: ast.FunctionDef) -> Set[str]:
    """Normalised counter name literals registered in a lane."""
    names: Set[str] = set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "counter"
            and node.args
        ):
            literal = _normalise_literal(node.args[0])
            if literal is not None:
                names.add(literal)
    return names


def _normalise_literal(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: List[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append("{}")
        return "".join(parts)
    return None


class FastpathParityRule(Rule):
    name = "fastpath-parity"
    description = (
        "every *_fast/*_slab lane pairs with a reachable reference lane "
        "whose counters cover the fast lane's"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        for module in context.modules:
            if module.path_matches("repro/common/fastpath.py"):
                continue
            if not _imports_fastpath(module):
                continue
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterator[Finding]:
        lanes = _collect_lanes(module.tree)
        by_scope: Dict[Tuple[str, str], _Lane] = {
            (lane.scope, lane.name): lane for lane in lanes
        }
        all_names: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name):
                all_names.add(node.id)
            elif isinstance(node, ast.Attribute):
                all_names.add(node.attr)
        if DISPATCH_NAME not in all_names:
            yield self.finding(
                module,
                module.tree.body[0] if module.tree.body else module.tree,
                f"imports {FASTPATH_MODULE} but never consults "
                f"{DISPATCH_NAME}(): fast lanes here have no reference "
                "dispatch point",
            )
        for lane in lanes:
            if not (
                lane.name.endswith(_FAST_SUFFIX) or lane.name.endswith(_SLAB_SUFFIX)
            ):
                continue
            twin = self._find_twin(lane, by_scope)
            if twin is None:
                yield self.finding(
                    module,
                    lane.node,
                    f"fast lane {lane.name!r} has no reference twin "
                    f"({' / '.join(_twin_candidates(lane.name))}) in scope "
                    f"{lane.scope or 'module'}; every fast lane must keep "
                    "the REPRO_SLOW_PATH oracle alive",
                )
                continue
            if not self._twin_reachable(module, twin):
                yield self.finding(
                    module,
                    twin.node,
                    f"reference lane {twin.name!r} is never dispatched to: "
                    f"no reference outside its own body selects it, so the "
                    "slow path cannot reach it",
                )
            extra = sorted(
                _counter_names(lane.node) - _counter_names(twin.node)
            )
            if extra:
                yield self.finding(
                    module,
                    lane.node,
                    f"fast lane {lane.name!r} registers counters absent from "
                    f"reference lane {twin.name!r}: {', '.join(extra)}",
                )

    @staticmethod
    def _find_twin(
        lane: _Lane, by_scope: Dict[Tuple[str, str], _Lane]
    ) -> Optional[_Lane]:
        for candidate in _twin_candidates(lane.name):
            twin = by_scope.get((lane.scope, candidate))
            if twin is not None and twin.name != lane.name:
                return twin
        return None

    @staticmethod
    def _twin_reachable(module: SourceModule, twin: _Lane) -> bool:
        if not twin.name.startswith("_"):
            # The public default the fast lane overrides: reachable by
            # construction (the override itself happens behind the
            # slow-path check).
            return True
        return twin.name in _referenced_names(module.tree, outside=twin.node)


register_rule(FastpathParityRule())
