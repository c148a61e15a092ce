"""Workload profile description.

A :class:`WorkloadProfile` captures everything the synthetic generator
needs to know about a benchmark.  The fields map directly onto the
microarchitectural behaviours the MI6 evaluation depends on:

* the *branch population* (count, bias classes, loop structure) determines
  the baseline misprediction rate and how expensive it is to re-train the
  predictor after a purge (Figures 5 and 7);
* the *memory reuse-distance mix* determines the baseline L1 and LLC miss
  rates, how sensitive the benchmark is to the set-partitioned index
  function that shrinks the reachable LLC (Figures 8 and 9), the
  memory-level parallelism the MSHR partitioning constrains (Figure 10),
  and the number of LLC accesses the arbiter delays (Figure 11);
* the *system-call rate* determines how often the FLUSH variant purges
  (Figures 5 and 6);
* the *dependency structure* determines how much instruction-level
  parallelism is lost when speculation is disabled (Figure 12).

The reuse-distance mix describes each memory access as one of four kinds:

``l1``   — re-touches one of the most recently used lines (L1 resident);
``llc``  — reuse distance of a few thousand lines: misses L1 but hits the
           LLC under either index function;
``far``  — reuse distance close to the full LLC capacity: hits the LLC
           under the baseline index but falls out of the smaller reachable
           set under MI6 set partitioning (the Figure 8/9 conflict misses);
``new``  — touches a line not seen before (walks sequentially through the
           footprint), missing the whole hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class WorkloadProfile:
    """Parameters of one synthetic benchmark.

    Attributes:
        name: Benchmark name (e.g. ``"gcc"``).
        instruction_mix: Fractions per instruction class; keys are
            ``alu``, ``load``, ``store``, ``branch``, ``mul_div``, ``fp``.
            Must sum to 1.
        static_branches: Number of static branches in the hot code.
        easy_branch_fraction: Fraction of loop-like branches with long
            regular patterns (predictable to a few percent error).
        biased_branch_fraction: Fraction of short-pattern branches
            (predictable once the local history warms up).
            The remainder are hard, data-dependent branches.
        hard_branch_bias: Taken probability of the hard branches.
        code_footprint_bytes: Size of the hot instruction footprint.
        reuse_l1_fraction / reuse_llc_fraction / reuse_far_fraction /
            new_line_fraction: The reuse-distance mix (must sum to 1).
        l1_window_lines / llc_window_lines / far_window_lines: Reuse
            windows, in 64-byte lines, for the three reuse classes.
        total_footprint_bytes: Total data footprint (drives how many
            physical pages the OS hands out and where ``new`` lines land).
        dependency_mean_distance: Mean distance (in instructions) between
            a value producer and its consumer; smaller means more serial.
        load_use_fraction: Fraction of loads whose result feeds a nearby
            dependent instruction (limits memory-level parallelism).
        syscall_interval: Committed instructions between system calls
            (0 disables syscalls).
        description: Human-readable summary of what the benchmark stresses.
    """

    name: str
    instruction_mix: Dict[str, float]
    static_branches: int = 512
    easy_branch_fraction: float = 0.6
    biased_branch_fraction: float = 0.3
    hard_branch_bias: float = 0.6
    code_footprint_bytes: int = 64 * 1024
    reuse_l1_fraction: float = 0.80
    reuse_llc_fraction: float = 0.12
    reuse_far_fraction: float = 0.04
    new_line_fraction: float = 0.04
    l1_window_lines: int = 192
    llc_window_lines: int = 2048
    far_window_lines: int = 12288
    total_footprint_bytes: int = 8 * 1024 * 1024
    dependency_mean_distance: float = 6.0
    load_use_fraction: float = 0.4
    syscall_interval: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        total = sum(self.instruction_mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(
                f"instruction mix of {self.name} sums to {total}, expected 1.0"
            )
        unknown = set(self.instruction_mix) - {"alu", "load", "store", "branch", "mul_div", "fp"}
        if unknown:
            raise ConfigurationError(f"unknown instruction classes in mix: {sorted(unknown)}")
        if not 0.0 <= self.easy_branch_fraction + self.biased_branch_fraction <= 1.0:
            raise ConfigurationError("branch difficulty fractions must sum to at most 1")
        reuse_total = (
            self.reuse_l1_fraction
            + self.reuse_llc_fraction
            + self.reuse_far_fraction
            + self.new_line_fraction
        )
        if abs(reuse_total - 1.0) > 1e-6:
            raise ConfigurationError(
                f"reuse-distance mix of {self.name} sums to {reuse_total}, expected 1.0"
            )
        if not self.l1_window_lines <= self.llc_window_lines <= self.far_window_lines:
            raise ConfigurationError("reuse windows must be ordered l1 <= llc <= far")
        if self.far_window_lines * 64 > self.total_footprint_bytes:
            raise ConfigurationError("far reuse window exceeds the data footprint")
