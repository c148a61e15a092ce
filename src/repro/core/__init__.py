"""The MI6 core contribution: secure-enclave support for a speculative OoO processor.

This package layers the MI6 mechanisms on top of the RiscyOO substrate:

* :mod:`repro.core.config` — the machine configuration (Figure 4) plus the
  MI6 security switches, with the core's and the LLC's parameters;
* :mod:`repro.core.protection` — protection domains and the per-core
  DRAM-region access bitvector (Section 5.3);
* :mod:`repro.core.purge` — the ``purge`` instruction: what it scrubs, how
  long it stalls, and the indistinguishability audit (Section 6.1);
* :mod:`repro.core.mitigations` — the composable mitigation registry:
  each defence is a registered config transform, arbitrary combinations
  (``FLUSH+MISS``) are first-class, and the paper's named variants are
  declared compositions; the seven evaluation variants of Section 7
  (BASE, FLUSH, PART, MISS, ARB, NONSPEC, F+P+M+A) are spec strings;
* :mod:`repro.core.processor` — :class:`MI6Processor`, the single-core
  evaluation vehicle that runs synthetic workloads under a chosen variant
  (the experiment engine assembles one per run request, in
  :func:`repro.analysis.engine.execute_run_group`);
* :mod:`repro.core.results` — what a run produces
  (:class:`~repro.core.results.WorkloadRun`), readable without importing
  the simulator;
* :mod:`repro.core.serialization` — stable dict/JSON round-trips for
  configurations and results, plus the content-hash cache keys;
* :mod:`repro.core.isolation` — checkers used by tests and examples to
  demonstrate Property 1 (strong isolation).
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.core.config": ("MI6Config",),
        "repro.core.mitigations": (
            "Mitigation",
            "MitigationSet",
            "VariantLike",
            "as_spec",
            "config_for_spec",
            "known_compositions",
            "known_mitigations",
            "parse_spec",
            "register_composition",
            "register_mitigation",
            "spec_name",
        ),
        "repro.core.isolation": (
            "llc_sets_disjoint",
            "timing_independence_report",
            "verify_purged_state",
        ),
        "repro.core.processor": ("MI6Processor",),
        "repro.core.protection": ("ProtectionDomain", "RegionBitvector"),
        "repro.core.purge": ("PurgeUnit",),
        "repro.core.results": ("WorkloadRun",),
        "repro.core.serialization": (
            "config_digest",
            "config_from_dict",
            "config_to_dict",
            "run_cache_key",
            "run_from_dict",
            "run_to_dict",
        ),
    },
)
