"""Shared parse/symbol pass, rule registry, and the lint driver.

Every rule consumes the same :class:`LintContext`: each source file is
read, parsed, and scanned for suppressions exactly once, and rules see
the whole module set at once (the cache-key and registry rules are
cross-module by nature).  Rules register themselves at import time via
:func:`register_rule` — the same import-time-registry contract the
``registry-hygiene`` rule enforces on the simulator's own registries.

Suppressions are inline comments of the form::

    counter = policy._rng._random  # repro: allow[determinism]: sanctioned tap

A finding is suppressed when the annotation names its rule (or ``*``)
and sits on the flagged line, the line directly above it, or in a
comment block whose first code line is the flagged line.  The
justification after the colon is optional but encouraged; EXPERIMENTS.md
documents the catalog.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set

from repro.lint.findings import SEVERITY_ERROR, Finding

#: Inline-suppression comment, e.g. ``# repro: allow[determinism]: why``.
_ALLOW_PATTERN = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Za-z0-9_*,\- ]+)\](?::\s*(?P<why>.*))?"
)


@dataclass
class SourceModule:
    """One parsed source file plus its per-line suppression map."""

    path: Path
    relpath: str
    text: str
    tree: ast.Module
    lines: List[str]
    suppressions: Dict[int, Set[str]]
    imports: Dict[str, str] = field(default_factory=dict)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when an allow annotation covers ``rule`` at ``line``."""
        for candidate in (line, line - 1):
            allowed = self.suppressions.get(candidate)
            if allowed is not None and (rule in allowed or "*" in allowed):
                return True
        return False

    def path_matches(self, *suffixes: str) -> bool:
        """True when the module's posix path ends with any suffix."""
        return any(self.relpath.endswith(suffix) for suffix in suffixes)

    def in_package(self, *packages: str) -> bool:
        """True when the path contains ``repro/<package>/`` for any name."""
        return any(f"repro/{package}/" in self.relpath for package in packages)


@dataclass
class LintContext:
    """Everything a rule may consult: the fully parsed module set."""

    modules: List[SourceModule]

    def module_at(self, *suffixes: str) -> Optional[SourceModule]:
        """The first module whose path ends with any of ``suffixes``."""
        for module in self.modules:
            if module.path_matches(*suffixes):
                return module
        return None


class Rule:
    """Base class for lint rules.

    Subclasses set ``name``/``description`` and implement :meth:`check`,
    yielding findings over the whole context.  Suppressions and the
    baseline are applied by the driver, not by rules.
    """

    name: str = ""
    description: str = ""

    def check(self, context: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: SourceModule,
        node: ast.AST,
        message: str,
        *,
        severity: str = SEVERITY_ERROR,
    ) -> Finding:
        """A finding of this rule anchored at ``node`` in ``module``."""
        return Finding(
            rule=self.name,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            message=message,
            severity=severity,
        )


#: The modules whose import registers the shipped rules.  The registry
#: imports them, in this order, before it answers, so every entry point
#: sees every rule and ``repro.cli`` need not import them to build its
#: parser.
RULE_MODULES = (
    "repro.lint.cache_keys",
    "repro.lint.determinism",
    "repro.lint.obs_purity",
    "repro.lint.parity",
    "repro.lint.registries",
)

_RULES: Dict[str, Rule] = {}


def _registry() -> Dict[str, Rule]:
    """The rule registry, with every shipped rule module imported."""
    for module in RULE_MODULES:
        import_module(module)
    return _RULES


def register_rule(rule: Rule) -> Rule:
    """Register a rule instance under its name (import-time only)."""
    if not rule.name:
        raise ValueError("rule name must be non-empty")
    if rule.name in _RULES:
        raise ValueError(f"lint rule {rule.name!r} already registered")
    _RULES[rule.name] = rule
    return rule


def rule_names() -> List[str]:
    """All registered rule names, in registration order."""
    return list(_registry())


def rule_descriptions() -> Dict[str, str]:
    """Rule name -> one-line description, in registration order."""
    return {name: rule.description for name, rule in _registry().items()}


# ----------------------------------------------------------------------
# Parse pass


def _scan_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    suppressions: Dict[int, Set[str]] = {}
    for number, line in enumerate(lines, start=1):
        if "repro:" not in line:
            continue
        match = _ALLOW_PATTERN.search(line)
        if match is None:
            continue
        names = {name.strip() for name in match.group("rules").split(",")}
        names = {name for name in names if name}
        suppressions.setdefault(number, set()).update(names)
        # A comment-only annotation covers the whole comment block it
        # opens: extend through following comment/blank lines onto the
        # first code line, so multi-line justifications above a statement
        # (or a decorated ``def``) still suppress the finding there.
        if line.lstrip().startswith("#"):
            cursor = number
            while cursor < len(lines):
                cursor += 1
                stripped = lines[cursor - 1].strip()
                suppressions.setdefault(cursor, set()).update(names)
                if stripped and not stripped.startswith("#"):
                    break
    return suppressions


def _scan_imports(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted module, for plain and from-imports."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def parse_module(path: Path, relpath: str) -> SourceModule:
    """Read, parse, and index one source file (the shared pass)."""
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    module = SourceModule(
        path=path,
        relpath=relpath,
        text=text,
        tree=tree,
        lines=lines,
        suppressions=_scan_suppressions(lines),
    )
    module.imports = _scan_imports(tree)
    return module


def collect_files(paths: Iterable[Path]) -> List[Path]:
    """All ``.py`` files under ``paths`` (files pass through), sorted."""
    found: List[Path] = []
    for path in paths:
        if path.is_dir():
            found.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
                and not any(part.startswith(".") for part in candidate.parts)
            )
        elif path.suffix == ".py":
            found.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return found


def build_context(paths: Sequence[Path], *, root: Optional[Path] = None) -> LintContext:
    """Parse every file under ``paths`` into a :class:`LintContext`.

    ``root`` anchors the repo-relative paths findings report (defaults
    to the current working directory; files outside it keep their full
    posix path).
    """
    base = (root or Path.cwd()).resolve()
    modules: List[SourceModule] = []
    for file_path in collect_files(paths):
        resolved = file_path.resolve()
        try:
            relpath = resolved.relative_to(base).as_posix()
        except ValueError:
            relpath = resolved.as_posix()
        modules.append(parse_module(resolved, relpath))
    return LintContext(modules=modules)


# ----------------------------------------------------------------------
# Driver


@dataclass
class LintReport:
    """Outcome of one lint run, after suppressions and the baseline."""

    findings: List[Finding]
    suppressed: int
    baselined: int
    rules: List[str]

    @property
    def gating(self) -> List[Finding]:
        """Findings that fail the run (``error`` severity only)."""
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]


def run_rules(
    context: LintContext,
    *,
    rules: Optional[Sequence[str]] = None,
    baseline: FrozenSet[str] = frozenset(),
) -> LintReport:
    """Run the selected rules over ``context``.

    Unknown rule names raise ``ValueError``; suppressed findings and
    findings fingerprint-matched by ``baseline`` are counted but not
    reported.
    """
    registry = _registry()
    selected = list(rules) if rules is not None else list(registry)
    unknown = [name for name in selected if name not in registry]
    if unknown:
        raise ValueError(
            f"unknown lint rule(s): {', '.join(unknown)} "
            f"(expected: {', '.join(rule_names())})"
        )
    by_path = {module.relpath: module for module in context.modules}
    kept: List[Finding] = []
    suppressed = 0
    baselined = 0
    for name in selected:
        for finding in registry[name].check(context):
            module = by_path.get(finding.path)
            if module is not None and module.is_suppressed(finding.rule, finding.line):
                suppressed += 1
            elif finding.fingerprint() in baseline:
                baselined += 1
            else:
                kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return LintReport(
        findings=kept, suppressed=suppressed, baselined=baselined, rules=selected
    )
