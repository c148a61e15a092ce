"""Synthetic SPEC CINT2006 workload substrate.

The paper evaluates MI6 by running eleven SPEC CINT2006 benchmarks (ref
inputs) under Linux on an FPGA prototype.  Neither the benchmarks nor the
FPGA are available to this reproduction, so this package provides
*calibrated synthetic analogues*: per-benchmark profiles describing the
instruction mix, branch population, memory footprint and locality,
dependency structure, and system-call rate, plus a deterministic generator
that turns a profile into the abstract instruction stream consumed by the
core timing model.

The profile parameters are tuned so that the *baseline* (BASE) processor
reproduces the per-benchmark characteristics the paper reports (branch
MPKI in Figure 7, LLC MPKI in Figure 9); the MI6 overheads then emerge
from the mechanisms rather than from the calibration.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "repro.workloads.characteristics": ("PAPER_REPORTED", "PaperFigures"),
        "repro.workloads.generator": ("SyntheticWorkload",),
        "repro.workloads.profiles": ("WorkloadProfile",),
        "repro.workloads.spec_cint2006": ("SPEC_CINT2006", "benchmark_names", "profile_for"),
    },
)
