"""Registry hygiene rule: registrations at import time, in the owner.

The lint package's own rule registry is filled by ``register_rule``
calls, one per rule module; every other table of named choices is a
module-level literal (:class:`~repro.common.registry.Registry`) that
nothing can add to.  The engine's determinism story assumes a registry
is *identical in every process*: a registration that happens
conditionally, lazily, or from a surprising module can make a pool
worker see a different registry than the parent.  This rule pins the
contract for the registrars of :data:`OWNING_MODULES`:

* a registrar call must be a top-level statement of its module —
  never inside ``if``/``try``/``for``/``while``, a function, or a class
  body — so importing the module *is* the registration;
* a registrar may only be called from its owning modules; third-party
  extension modules registering their own entries are out of scope
  because only ``src/repro`` is linted in CI.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple

from repro.lint.engine import LintContext, Rule, SourceModule, register_rule
from repro.lint.findings import Finding

#: Registrar name -> path suffixes of the modules allowed to call it.
OWNING_MODULES: Dict[str, Tuple[str, ...]] = {
    "register_rule": ("repro/lint/",),
}


def _registrar_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


def _module_owns(module: SourceModule, suffixes: Tuple[str, ...]) -> bool:
    anchored = f"/{module.relpath}"
    for suffix in suffixes:
        if suffix.endswith("/"):
            if f"/{suffix}" in anchored:
                return True
        elif module.relpath.endswith(suffix):
            return True
    return False


class RegistryHygieneRule(Rule):
    name = "registry-hygiene"
    description = (
        "register_* calls happen at import time, top-level, in the "
        "registry's owning module"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        for module in context.modules:
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterator[Finding]:
        top_level_calls = set()
        for statement in module.tree.body:
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Call
            ):
                top_level_calls.add(id(statement.value))
            # ``RULE = register_rule(SomeRule())`` style bindings are
            # also import-time registrations.
            if isinstance(statement, ast.Assign) and isinstance(
                statement.value, ast.Call
            ):
                top_level_calls.add(id(statement.value))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _registrar_name(node)
            if name not in OWNING_MODULES:
                continue
            owners = OWNING_MODULES[name]
            if not _module_owns(module, owners):
                yield self.finding(
                    module,
                    node,
                    f"{name}() called outside its owning module "
                    f"({', '.join(owners)}): registrations must live where "
                    "the registry does, so every process imports the same set",
                )
            elif id(node) not in top_level_calls:
                yield self.finding(
                    module,
                    node,
                    f"{name}() must be an unconditional top-level statement: "
                    "conditional or lazy registration can desynchronise the "
                    "registry across pool workers",
                )


register_rule(RegistryHygieneRule())
