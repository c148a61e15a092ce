"""``repro.lint``: AST-based invariant linter for this repository.

The reproduction's guarantees — bit-identical numbers from deterministic
simulations, a fast kernel with a living slow-path oracle, content-hash
cache keys that cover every input — are invariants no off-the-shelf tool
checks.  This package checks them statically, as a rule registry over a
shared parse pass (:mod:`repro.lint.engine`):

* ``determinism`` — no ``random``/``time``/env reads/RNG internals or
  unordered iteration in simulation code (:mod:`repro.lint.determinism`);
* ``fastpath-parity`` — every fast lane keeps a reachable
  ``REPRO_SLOW_PATH`` reference twin with covering counters
  (:mod:`repro.lint.parity`);
* ``cache-key`` — every spec/request field reaches its content-hash
  digest or is excluded with a justification
  (:mod:`repro.lint.cache_keys`);
* ``registry-hygiene`` — registrations happen at import time in their
  owning module (:mod:`repro.lint.registries`);
* ``obs-purity`` — tracing/metrics state never reaches a cache-key
  digest, and wall-clock reads never enter simulated-cycle span code
  (:mod:`repro.lint.obs_purity`).

Run it as ``repro lint src`` (or ``repro-bench lint``); sanctioned
exceptions are ``# repro: allow[rule]: reason`` annotations or a
committed ``lint-baseline.json``.  EXPERIMENTS.md documents the catalog.
"""

from __future__ import annotations

from repro.common.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "repro.lint.cli": ("add_lint_arguments", "command_lint"),
        "repro.lint.engine": (
            "LintContext",
            "LintReport",
            "Rule",
            "SourceModule",
            "build_context",
            "register_rule",
            "rule_descriptions",
            "rule_names",
            "run_rules",
        ),
        "repro.lint.findings": ("Finding", "load_baseline", "write_baseline"),
    },
)
