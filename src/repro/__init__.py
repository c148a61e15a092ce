"""MI6: Secure Enclaves in a Speculative Out-of-Order Processor — reproduction.

A from-scratch Python model of the MI6 system (Bourgeat et al., MICRO
2019): the RiscyOO out-of-order core and memory hierarchy, the MI6
isolation mechanisms (LLC set partitioning, MSHR partitioning and sizing,
the strong-timing-independence LLC, the ``purge`` instruction and the
DRAM-region access checks), a security monitor and an untrusted OS
implementing enclaves, synthetic SPEC CINT2006 workloads,
attack models, and a benchmark harness reproducing Figures 4-13.

Typical entry points — the Session API is the public front door:

>>> from repro import Session
>>> session = Session()
>>> result = session.workload("FLUSH+MISS", "gcc", instructions=20_000)
>>> result.value.result.cpi  # doctest: +SKIP

Variants are composable mitigation specs (any ``+``-combination of
FLUSH, PART, MISS, ARB, NONSPEC); the paper's seven processors are the
named points BASE … F+P+M+A of that 2^5 lattice.

The names below are imported on first use (:mod:`repro.common.lazy`),
so ``import repro`` loads no simulator module.
"""

from repro.common.lazy import lazy_exports

__version__ = "1.2.0"

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "repro.analysis.engine": (
            "EvaluationSettings",
            "ExperimentResult",
            "ExperimentSpec",
            "ParallelRunner",
            "RunRequest",
        ),
        "repro.analysis.store": ("ResultStore",),
        "repro.api.requests": (
            "ScenarioRequest",
            "ServiceRequest",
            "SweepRequest",
            "WorkloadRequest",
        ),
        "repro.api.results": ("Provenance", "Result"),
        "repro.api.session": ("Session", "default_session", "set_default_session"),
        "repro.core.config": ("MI6Config",),
        "repro.core.mitigations": (
            "Mitigation",
            "MitigationSet",
            "config_for_spec",
            "known_mitigations",
            "parse_spec",
        ),
        "repro.core.processor": ("MI6Processor",),
        "repro.core.protection": ("ProtectionDomain", "RegionBitvector"),
        "repro.core.purge": ("PurgeUnit",),
        "repro.core.results": ("WorkloadRun",),
        "repro.monitor.security_monitor": ("SecurityMonitor",),
        "repro.os_model.kernel": ("MaliciousOS", "UntrustedOS"),
        "repro.os_model.machine": ("Machine",),
        "repro.service.simulation": ("ServiceOutcome", "run_service"),
        "repro.workloads.generator": ("SyntheticWorkload",),
        "repro.workloads.spec_cint2006": ("SPEC_CINT2006", "benchmark_names", "profile_for"),
    },
)
