"""Cache-key completeness rule: every spec field reaches its digest.

The result store trusts that two runs sharing a cache key would execute
the identical simulation.  That breaks the moment a new field lands on a
request or spec dataclass without being folded into the corresponding
``*_cache_key`` digest — cached results silently stop matching what a
cold run would produce.  This rule closes the gap structurally:

* every parameter of a ``*_cache_key`` function must be *read* inside
  its body (deleting the ``"seed": seed`` line from ``run_cache_key`` is
  a finding);
* a *field-driven* builder — a ``*_cache_key`` function looping
  ``for field in fields(request)`` — must store every field
  (``document[field.name] = ... getattr(request, field.name) ...``) and
  may skip one only through ``if field.name in <parameter>: continue``;
  any other test in the loop is a finding;
* every field of a dataclass with a ``cache_key`` method (its own, or
  one inherited from a class in the same module) must be consumed
  (``self.<field>``) inside that method — unless the method hands
  ``self`` to a field-driven builder, which consumes every field but
  must be handed exclusions read from ``CACHE_KEY_EXCLUSIONS`` (by
  subscript or ``.get(owner, {})``);
* every field of a ``*Spec`` dataclass must be consumed by its
  ``requests()`` expansion, which is where spec fields become request
  fields and therefore digest inputs.

Deliberate exclusions (derived state like ``ServiceRunRequest.service_cycles``)
are declared in a module-level ``CACHE_KEY_EXCLUSIONS`` table mapping
``owner -> {field: justification}``; empty justifications and stale
entries are themselves findings, so the table stays honest.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import LintContext, Rule, SourceModule, register_rule
from repro.lint.findings import Finding

#: Name of the module-level exclusion table this rule consumes.
EXCLUSION_TABLE = "CACHE_KEY_EXCLUSIONS"

#: Function-name suffix marking a digest builder.
_KEY_SUFFIX = "_cache_key"

#: Parameters of digest builders that are plumbing, not content.
_IGNORED_PARAMS = frozenset({"self", "cls"})

#: Nodes that could drop a field inside a field-driven builder's loop.
_BRANCHES = (
    ast.If, ast.IfExp, ast.For, ast.While, ast.Break, ast.Continue, ast.Return,
    ast.Raise, ast.Try, ast.Match, ast.BoolOp, ast.comprehension,
)

#: A sound field-driven builder: its parameters, and the one naming the
#: fields it skips (``None`` when it skips none).
_Builder = Tuple[List[str], Optional[str]]


def _parse_exclusions(
    module: SourceModule,
) -> Tuple[Optional[Dict[str, Dict[str, str]]], Optional[ast.stmt]]:
    """The module's ``CACHE_KEY_EXCLUSIONS`` literal, if present.

    Returns ``(table, node)``; the table is ``None`` when the assignment
    exists but is not a literal owner -> {field: justification} dict.
    """
    for node in module.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == EXCLUSION_TABLE
        ):
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                return None, node
            if isinstance(value, dict) and all(
                isinstance(owner, str) and isinstance(fields, dict)
                for owner, fields in value.items()
            ):
                return {
                    owner: {str(name): str(why) for name, why in fields.items()}
                    for owner, fields in value.items()
                }, node
            return None, node
    return {}, None


def _read_names(body: List[ast.stmt]) -> Set[str]:
    names: Set[str] = set()
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
    return names


def _self_attribute_reads(function: ast.FunctionDef) -> Set[str]:
    reads: Set[str] = set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            reads.add(node.attr)
    return reads


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign]]:
    fields: List[Tuple[str, ast.AnnAssign]] = []
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            annotation = ast.unparse(statement.annotation)
            if "ClassVar" in annotation:
                continue
            name = statement.target.id
            if name.startswith("_"):
                continue
            fields.append((name, statement))
    return fields


def _method(node: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for statement in node.body:
        if isinstance(statement, ast.FunctionDef) and statement.name == name:
            return statement
    return None


def _inherited_method(
    node: ast.ClassDef, name: str, classes: Dict[str, ast.ClassDef]
) -> Optional[ast.FunctionDef]:
    """``node``'s method ``name``, its own or from a base in the module."""
    method = _method(node, name)
    for base in node.bases:
        if method is None and isinstance(base, ast.Name) and base.id in classes:
            method = _inherited_method(classes[base.id], name, classes)
    return method


def _parameters(function: ast.FunctionDef) -> List[str]:
    arguments = function.args
    return [
        argument.arg
        for argument in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
    ]


def _field_builder(function: ast.FunctionDef) -> Optional[Tuple[Optional[_Builder], List[str]]]:
    """Check a builder's ``for <field> in fields(<request>)`` loop.

    ``None`` without such a loop; otherwise the builder (``None`` when
    unsound) and the loop's problems.  The loop must store
    ``getattr(<request>, <field>.name)`` under ``<field>.name`` and may
    skip a field only through ``if <field>.name in <parameter>: continue``.
    """
    parameters = _parameters(function)
    for loop in ast.walk(function):
        if isinstance(loop, ast.For) and isinstance(loop.target, ast.Name):
            found = re.fullmatch(r"(?:dataclasses\.)?fields\((\w+)\)", ast.unparse(loop.iter))
            if found is not None and found.group(1) in parameters:
                break
    else:
        return None
    assert isinstance(loop, ast.For) and found is not None
    field, request = ast.unparse(loop.target), found.group(1)
    store = rf"\w+\[{field}\.name\] = .*\bgetattr\({request}, {field}\.name\).*"
    skipped_on: Optional[str] = None
    stored = False
    problems: List[str] = []
    for statement in loop.body:
        source = ast.unparse(statement)
        skip = re.fullmatch(rf"if {field}\.name in (\w+):\n    continue", source)
        if skip is not None and skip.group(1) in parameters and skipped_on is None:
            skipped_on = skip.group(1)
            continue
        stored = stored or re.fullmatch(store, source) is not None
        branch = next((node for node in ast.walk(statement) if isinstance(node, _BRANCHES)), None)
        if branch is not None:
            shown = ast.unparse(getattr(branch, "test", branch))
            problems.append(f"drops fields by a test other than its exclusions: `{shown}`")
    if not stored:
        problems.append(f"never stores `getattr({request}, {field}.name)` under `{field}.name`")
    return (None if problems else (parameters, skipped_on)), problems


def _handoff(
    method: ast.FunctionDef, builders: Dict[str, Optional[_Builder]]
) -> Optional[Tuple[Optional[_Builder], Optional[ast.expr]]]:
    """Where ``method`` hands ``self`` to a field-looping builder: that
    builder (``None`` when unsound) and the exclusions handed to it."""
    for call in ast.walk(method):
        if not isinstance(call, ast.Call) or not any(
            isinstance(arg, ast.Name) and arg.id == "self" for arg in call.args
        ):
            continue
        name = ast.unparse(call.func).split(".")[-1]
        if name not in builders:
            continue
        builder = builders[name]
        skipped_on = builder[1] if builder is not None else None
        if builder is None or skipped_on is None:
            return builder, None
        index = builder[0].index(skipped_on)
        passed = [keyword.value for keyword in call.keywords if keyword.arg == skipped_on]
        passed += call.args[index : index + 1]
        return builder, (passed[0] if passed else None)
    return None


def _table_owner(node: Optional[ast.expr], default: str) -> Optional[str]:
    """The owner whose entries ``node`` reads from the exclusion table.

    ``CACHE_KEY_EXCLUSIONS[owner]`` or ``CACHE_KEY_EXCLUSIONS.get(owner,
    {})``; a non-literal owner (``type(self).__name__``) means
    ``default``.  ``None`` when ``node`` is anything else.
    """
    owner: Optional[ast.expr] = None
    if isinstance(node, ast.Subscript) and ast.unparse(node.value) == EXCLUSION_TABLE:
        owner = node.slice
    elif (
        isinstance(node, ast.Call)
        and ast.unparse(node.func) == f"{EXCLUSION_TABLE}.get"
        and not node.keywords
        and [ast.unparse(arg) for arg in node.args[1:]] in ([], ["{}"])
    ):
        owner = node.args[0]
    if owner is None:
        return None
    if isinstance(owner, ast.Constant) and isinstance(owner.value, str):
        return str(owner.value)
    return default


class CacheKeyRule(Rule):
    name = "cache-key"
    description = (
        "spec/request dataclass fields and *_cache_key parameters must all "
        "reach the digest (or sit in CACHE_KEY_EXCLUSIONS with a reason)"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        builders: Dict[str, Optional[_Builder]] = {}
        for module in context.modules:
            for node in module.tree.body:
                if isinstance(node, ast.FunctionDef) and node.name.endswith(_KEY_SUFFIX):
                    checked = _field_builder(node)
                    if checked is not None:
                        builders[node.name] = checked[0]

        for module in context.modules:
            parsed, table_node = _parse_exclusions(module)
            if parsed is None and table_node is not None:
                yield self.finding(
                    module,
                    table_node,
                    f"{EXCLUSION_TABLE} must be a literal dict of "
                    "owner -> {field: justification}",
                )
            exclusions = parsed or {}
            used_entries: Set[Tuple[str, str]] = set()
            known_owners: Set[str] = set()
            classes = {
                node.name: node for node in module.tree.body if isinstance(node, ast.ClassDef)
            }

            for node in module.tree.body:
                if isinstance(node, ast.FunctionDef) and node.name.endswith(
                    _KEY_SUFFIX
                ):
                    known_owners.add(node.name)
                    yield from self._check_key_function(
                        module, node, exclusions, used_entries
                    )
                elif isinstance(node, ast.ClassDef):
                    yield from self._check_handoff(module, node, builders)
                    if _is_dataclass(node):
                        yield from self._check_dataclass(
                            module, node, classes, builders, exclusions, used_entries, known_owners
                        )

            if table_node is not None and parsed is not None:
                yield from self._check_table(
                    module, table_node, exclusions, used_entries, known_owners
                )

    # ------------------------------------------------------------------

    def _check_key_function(
        self,
        module: SourceModule,
        function: ast.FunctionDef,
        exclusions: Dict[str, Dict[str, str]],
        used_entries: Set[Tuple[str, str]],
    ) -> Iterator[Finding]:
        checked = _field_builder(function)
        for problem in checked[1] if checked is not None else []:
            yield self.finding(
                module,
                function,
                f"{function.name}() {problem}: a field-driven builder must hash "
                "every field but the exclusions its callers read from "
                f"{EXCLUSION_TABLE}",
            )
        parameters = [
            parameter
            for parameter in _parameters(function)
            if parameter not in _IGNORED_PARAMS
        ]
        reads = _read_names(function.body)
        excluded = exclusions.get(function.name, {})
        for parameter in parameters:
            if parameter in excluded:
                used_entries.add((function.name, parameter))
                continue
            if parameter not in reads:
                yield self.finding(
                    module,
                    function,
                    f"{function.name}() parameter {parameter!r} never reaches "
                    "the digest: every key input must be hashed or excluded "
                    f"in {EXCLUSION_TABLE} with a justification",
                )

    def _check_handoff(
        self,
        module: SourceModule,
        node: ast.ClassDef,
        builders: Dict[str, Optional[_Builder]],
    ) -> Iterator[Finding]:
        """A ``cache_key`` handing ``self`` over must hand table exclusions."""
        method = _method(node, "cache_key")
        handoff = _handoff(method, builders) if method is not None else None
        if method is None or handoff is None or handoff[0] is None or handoff[0][1] is None:
            return
        passed = handoff[1]
        if _table_owner(passed, node.name) is None:
            shown = ast.unparse(passed) if passed is not None else "nothing"
            yield self.finding(
                module,
                method,
                f"{node.name}.cache_key() hands its field-driven builder the "
                f"exclusions `{shown}`, which do not come from {EXCLUSION_TABLE}: "
                "every exclusion needs a justified table entry",
            )

    def _check_dataclass(
        self,
        module: SourceModule,
        node: ast.ClassDef,
        classes: Dict[str, ast.ClassDef],
        builders: Dict[str, Optional[_Builder]],
        exclusions: Dict[str, Dict[str, str]],
        used_entries: Set[Tuple[str, str]],
        known_owners: Set[str],
    ) -> Iterator[Finding]:
        consumer: Optional[ast.FunctionDef] = _inherited_method(node, "cache_key", classes)
        consumer_label = "cache_key()"
        if consumer is None and node.name.endswith("Spec"):
            consumer = _method(node, "requests")
            consumer_label = "requests()"
        if consumer is None:
            return
        handoff = _handoff(consumer, builders) if consumer_label == "cache_key()" else None
        if handoff is not None:
            # Field-driven: every field reaches the digest except the
            # owner's table entries, which must still name real fields.
            owner = _table_owner(handoff[1], node.name) or node.name
            known_owners.add(owner)
            names = {name for name, _ in _dataclass_fields(node)}
            used_entries.update((owner, name) for name in exclusions.get(owner, {}) if name in names)
            return
        known_owners.add(node.name)
        consumed = _self_attribute_reads(consumer)
        excluded = exclusions.get(node.name, {})
        for field_name, field_node in _dataclass_fields(node):
            if field_name in excluded:
                used_entries.add((node.name, field_name))
                continue
            if field_name not in consumed:
                yield self.finding(
                    module,
                    field_node,
                    f"{node.name}.{field_name} is not consumed by "
                    f"{consumer_label}: a field that can change the outcome "
                    "must reach the cache key, or be excluded in "
                    f"{EXCLUSION_TABLE} with a justification",
                )

    def _check_table(
        self,
        module: SourceModule,
        table_node: ast.stmt,
        exclusions: Dict[str, Dict[str, str]],
        used_entries: Set[Tuple[str, str]],
        known_owners: Set[str],
    ) -> Iterator[Finding]:
        for owner, fields in exclusions.items():
            if owner not in known_owners:
                yield self.finding(
                    module,
                    table_node,
                    f"{EXCLUSION_TABLE} names unknown owner {owner!r}: stale "
                    "entries hide future gaps; delete or fix the name",
                )
                continue
            for field_name, justification in fields.items():
                if not justification.strip():
                    yield self.finding(
                        module,
                        table_node,
                        f"{EXCLUSION_TABLE}[{owner!r}][{field_name!r}] has an "
                        "empty justification: say why the field cannot "
                        "change the outcome",
                    )
                if (owner, field_name) not in used_entries:
                    yield self.finding(
                        module,
                        table_node,
                        f"{EXCLUSION_TABLE}[{owner!r}] excludes {field_name!r} "
                        "which is not a field/parameter of that owner: stale "
                        "entries hide future gaps; delete it",
                    )


register_rule(CacheKeyRule())
