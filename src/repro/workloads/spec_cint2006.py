"""Calibrated profiles for the eleven SPEC CINT2006 benchmarks.

The paper runs the SPEC CINT2006 suite (ref inputs, excluding perlbench
which does not cross-compile to RISC-V).  The profiles below describe
synthetic analogues whose *baseline* behaviour on the BASE processor
approximates the per-benchmark characteristics reported in the paper
(branch MPKI of Figure 7 and LLC MPKI of Figure 9) and whose qualitative
nature (memory-bound, branchy, streaming, syscall-heavy, ...) matches the
well-known behaviour of each benchmark.

Calibration recipe (documented so the numbers are not magic):

* ``new_line_fraction`` is chosen so that ``memory_fraction * 1000 *
  new_line_fraction`` lands near the paper's baseline LLC MPKI (Figure 9);
* ``reuse_far_fraction`` controls how many additional conflict misses the
  MI6 set-partitioned index produces (Figure 8/9 deltas);
* ``hard branch`` fraction is chosen so that ``branch_fraction * 1000 *
  (hard * 0.4 + ~0.045)`` lands near the paper's baseline branch MPKI
  (Figure 7);
* the dependency fields shape memory-level parallelism (Figures 10/12).

The numbers are calibration inputs, not measurements; EXPERIMENTS.md
records how closely the resulting baseline matches the paper.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.workloads.profiles import WorkloadProfile

KIB = 1024
MIB = 1024 * 1024


def _mix(load: float, store: float, branch: float, mul_div: float = 0.02, fp: float = 0.01) -> Dict[str, float]:
    alu = round(1.0 - load - store - branch - mul_div - fp, 6)
    return {
        "alu": alu,
        "load": load,
        "store": store,
        "branch": branch,
        "mul_div": mul_div,
        "fp": fp,
    }


def _reuse(new: float, far: float, llc: float) -> Dict[str, float]:
    return {
        "new_line_fraction": new,
        "reuse_far_fraction": far,
        "reuse_llc_fraction": llc,
        "reuse_l1_fraction": round(1.0 - new - far - llc, 6),
    }


SPEC_CINT2006: Dict[str, WorkloadProfile] = {
    "bzip2": WorkloadProfile(
        name="bzip2",
        instruction_mix=_mix(load=0.26, store=0.09, branch=0.15),
        static_branches=160,
        easy_branch_fraction=0.60,
        biased_branch_fraction=0.28,
        code_footprint_bytes=48 * KIB,
        **_reuse(new=0.017, far=0.006, llc=0.12),
        llc_window_lines=1536,
        total_footprint_bytes=8 * MIB,
        dependency_mean_distance=6.0,
        load_use_fraction=0.40,
        description="block-sorting compression: mixed compute and medium working set",
    ),
    "gcc": WorkloadProfile(
        name="gcc",
        instruction_mix=_mix(load=0.26, store=0.13, branch=0.19),
        static_branches=256,
        easy_branch_fraction=0.70,
        biased_branch_fraction=0.255,
        code_footprint_bytes=192 * KIB,
        **_reuse(new=0.235, far=0.016, llc=0.10),
        total_footprint_bytes=24 * MIB,
        dependency_mean_distance=5.5,
        load_use_fraction=0.40,
        description="compiler: large code and data footprint, very LLC-intensive on ref inputs",
    ),
    "mcf": WorkloadProfile(
        name="mcf",
        instruction_mix=_mix(load=0.31, store=0.09, branch=0.17),
        static_branches=96,
        easy_branch_fraction=0.50,
        biased_branch_fraction=0.29,
        code_footprint_bytes=16 * KIB,
        **_reuse(new=0.11, far=0.008, llc=0.12),
        total_footprint_bytes=32 * MIB,
        dependency_mean_distance=3.5,
        load_use_fraction=0.70,
        description="network simplex: pointer chasing over a huge working set",
    ),
    "gobmk": WorkloadProfile(
        name="gobmk",
        instruction_mix=_mix(load=0.25, store=0.10, branch=0.21),
        static_branches=320,
        easy_branch_fraction=0.52,
        biased_branch_fraction=0.26,
        code_footprint_bytes=128 * KIB,
        **_reuse(new=0.006, far=0.002, llc=0.10),
        llc_window_lines=1024,
        total_footprint_bytes=4 * MIB,
        dependency_mean_distance=6.0,
        load_use_fraction=0.35,
        description="go engine: branch-heavy search with data-dependent branches",
    ),
    "hmmer": WorkloadProfile(
        name="hmmer",
        instruction_mix=_mix(load=0.29, store=0.12, branch=0.08),
        static_branches=64,
        easy_branch_fraction=0.62,
        biased_branch_fraction=0.21,
        code_footprint_bytes=24 * KIB,
        **_reuse(new=0.0025, far=0.002, llc=0.06),
        llc_window_lines=768,
        total_footprint_bytes=2 * MIB,
        dependency_mean_distance=9.0,
        load_use_fraction=0.25,
        description="profile HMM search: regular compute loops, very predictable",
    ),
    "sjeng": WorkloadProfile(
        name="sjeng",
        instruction_mix=_mix(load=0.24, store=0.08, branch=0.20),
        static_branches=288,
        easy_branch_fraction=0.54,
        biased_branch_fraction=0.26,
        code_footprint_bytes=96 * KIB,
        **_reuse(new=0.0016, far=0.001, llc=0.05),
        llc_window_lines=768,
        total_footprint_bytes=4 * MIB,
        dependency_mean_distance=6.5,
        load_use_fraction=0.35,
        description="chess engine: alpha-beta search with hard branches",
    ),
    "libquantum": WorkloadProfile(
        name="libquantum",
        instruction_mix=_mix(load=0.27, store=0.10, branch=0.13),
        static_branches=48,
        easy_branch_fraction=0.97,
        biased_branch_fraction=0.02,
        code_footprint_bytes=12 * KIB,
        **_reuse(new=0.068, far=0.008, llc=0.09),
        total_footprint_bytes=32 * MIB,
        dependency_mean_distance=10.0,
        load_use_fraction=0.20,
        description="quantum simulation: long sequential streams over large arrays",
    ),
    "h264ref": WorkloadProfile(
        name="h264ref",
        instruction_mix=_mix(load=0.30, store=0.13, branch=0.10, mul_div=0.03, fp=0.02),
        static_branches=128,
        easy_branch_fraction=0.68,
        biased_branch_fraction=0.23,
        code_footprint_bytes=96 * KIB,
        **_reuse(new=0.0047, far=0.003, llc=0.08),
        llc_window_lines=1024,
        total_footprint_bytes=6 * MIB,
        dependency_mean_distance=10.0,
        load_use_fraction=0.22,
        description="video encoder: high-ILP compute kernels with dense memory traffic",
    ),
    "omnetpp": WorkloadProfile(
        name="omnetpp",
        instruction_mix=_mix(load=0.29, store=0.14, branch=0.18),
        static_branches=224,
        easy_branch_fraction=0.56,
        biased_branch_fraction=0.27,
        code_footprint_bytes=160 * KIB,
        **_reuse(new=0.042, far=0.012, llc=0.12),
        total_footprint_bytes=16 * MIB,
        dependency_mean_distance=4.5,
        load_use_fraction=0.55,
        description="discrete event simulation: pointer-heavy with a large heap",
    ),
    "astar": WorkloadProfile(
        name="astar",
        instruction_mix=_mix(load=0.28, store=0.09, branch=0.20),
        static_branches=192,
        easy_branch_fraction=0.50,
        biased_branch_fraction=0.30,
        code_footprint_bytes=32 * KIB,
        **_reuse(new=0.016, far=0.008, llc=0.14),
        llc_window_lines=1536,
        total_footprint_bytes=8 * MIB,
        dependency_mean_distance=4.0,
        load_use_fraction=0.60,
        description="path finding: data-dependent branches and pointer chasing",
    ),
    "xalancbmk": WorkloadProfile(
        name="xalancbmk",
        instruction_mix=_mix(load=0.28, store=0.12, branch=0.19),
        static_branches=256,
        easy_branch_fraction=0.66,
        biased_branch_fraction=0.28,
        code_footprint_bytes=160 * KIB,
        **_reuse(new=0.011, far=0.007, llc=0.11),
        llc_window_lines=1280,
        total_footprint_bytes=12 * MIB,
        dependency_mean_distance=5.0,
        load_use_fraction=0.45,
        syscall_interval=6500,
        description="XSLT processor: branchy, and makes many write syscalls to stdout",
    ),
}


def benchmark_names() -> List[str]:
    """Names of the SPEC CINT2006 benchmarks the paper evaluates."""
    return list(SPEC_CINT2006.keys())


def tenant_benchmarks(num_tenants: int) -> Tuple[str, ...]:
    """The workload profile of each serving tenant (paper benchmarks, cycled)."""
    names = benchmark_names()
    return tuple(names[index % len(names)] for index in range(num_tenants))


def profile_for(name: str) -> WorkloadProfile:
    """Profile for one benchmark; raises ``KeyError`` for unknown names."""
    return SPEC_CINT2006[name]
