"""What one simulation run produces: the core's result and the run record.

:class:`CoreResult` is the timing model's answer (cycles, committed
instructions, every structure's counters), :class:`WorkloadRun` the
record of one benchmark run on one configuration that the engine, the
result store and the API pass around, and :class:`WarmState` the warmed
hierarchy one machine hands to the rest of its warm class.  They live in
this leaf module, apart from the core model
(:mod:`repro.ooo.core`) and the machine (:mod:`repro.core.processor`)
that produce them, so the store, the wire codec and a warm
``repro sweep`` can read results without importing a simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.stats import StatsRegistry


@dataclass
class CoreResult:
    """Summary of one simulation run.

    Attributes:
        cycles: Total execution time in cycles.
        instructions: Committed instruction count.
        stats: The statistics registry with every structure's counters.
    """

    cycles: int
    instructions: int
    stats: StatsRegistry

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        """Cycles per committed instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    def per_kilo_instruction(self, counter_name: str) -> float:
        """A counter normalised per 1000 committed instructions."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.stats.value(counter_name) / self.instructions

    @property
    def branch_mpki(self) -> float:
        """Branch mispredictions per 1000 instructions (Figure 7 metric)."""
        return self.per_kilo_instruction("bp.mispredictions")

    @property
    def llc_mpki(self) -> float:
        """LLC misses per 1000 instructions (Figure 9 metric)."""
        return self.per_kilo_instruction("llc.miss")

    @property
    def l1d_mpki(self) -> float:
        """L1 data-cache misses per 1000 instructions."""
        return self.per_kilo_instruction("l1d.miss")

    @property
    def flush_stall_cycles(self) -> int:
        """Cycles spent stalled waiting for purge flushes (Figure 6 metric)."""
        return self.stats.value("core.flush_stall_cycles")


@dataclass
class WorkloadRun:
    """Result of running one workload on one configuration.

    Attributes:
        benchmark: Benchmark name.
        config_name: Machine configuration name (variant).
        instructions: Committed instructions.
        result: Full core timing result (cycles, counters).
    """

    benchmark: str
    config_name: str
    instructions: int
    result: CoreResult

    @property
    def cycles(self) -> int:
        """Total execution time in cycles."""
        return self.result.cycles

    def overhead_vs(self, baseline: WorkloadRun) -> float:
        """Increased runtime relative to ``baseline``, as a percentage."""
        if baseline.cycles == 0:
            return 0.0
        return 100.0 * (self.cycles - baseline.cycles) / baseline.cycles


@dataclass(frozen=True)
class WarmState:
    """A warmed machine's hierarchy, copied out for machines of its warm class.

    Attributes:
        hierarchy: Per-structure copies
            (:meth:`~repro.mem.hierarchy.MemoryHierarchy.capture_warm_state`).
        counters: Names of the counters warm-up registered.  A machine
            loading the state registers them too, at zero as the
            post-warm-up reset leaves them, so it reports the same
            counter set as a machine that warmed itself.
        histograms: Likewise for histograms.
    """

    hierarchy: tuple
    counters: Tuple[str, ...]
    histograms: Tuple[str, ...]
