"""The MI6 ``purge`` instruction.

``purge`` scrubs every core-private structure that can hold
program-dependent state so that nothing survives a protection-domain
switch (Section 6.1):

* in-flight instruction bookkeeping (ROB, issue queues, rename table,
  load-store queue, store buffer).  The timing model holds ROB
  occupancy, register readiness and outstanding misses in each kernel's
  locals, and a trap restarts fetch only after the trapping instruction
  commits, so the purge has no pipeline object to squash;
* branch predictor, BTB and return-address stack — reset to their initial
  public state;
* L1 instruction and data caches, L1/L2 TLBs and the translation cache —
  invalidated.

The stall cost follows Section 7.1: structures are scrubbed in parallel,
the slowest being the 512-line L1 caches at one line per cycle (the MSI
protocol requires notifying the LLC even for clean-line invalidations), so
the purge stalls the core for 512 cycles regardless of program state.
Only the host work follows what the core holds: a predictor nothing has
trained and an L1 that holds no line are left as they are.  A purge
returns only its stall: what each structure flushed goes to that
structure's own ``flush_*`` counter, and the ``purge.*`` and ``flush_*``
counters keep their handles after first use.  The shared LLC is *not*
flushed: its sets are partitioned by DRAM region and are scrubbed only
when physical memory changes owner
(:meth:`repro.mem.llc.LastLevelCache.scrub_region_sets`).
"""

from __future__ import annotations

from typing import Optional

from repro.common.stats import StatsRegistry
from repro.mem.hierarchy import MemoryHierarchy
from repro.ooo.core import OutOfOrderCore


class PurgeUnit:
    """Executes ``purge`` against a core and its private memory structures."""

    def __init__(
        self,
        core: OutOfOrderCore,
        hierarchy: Optional[MemoryHierarchy] = None,
        *,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.core = core
        self.hierarchy = hierarchy or core.hierarchy
        self.stats = stats or core.stats
        # Data independent, so computed once.
        self._stall_cycles = max(
            self.hierarchy.l1i.flush_stall_cycles(),
            self.hierarchy.l1d.flush_stall_cycles(),
            self.hierarchy.l2tlb.num_sets,
            core.frontend.predictor.flush_stall_cycles(),
            1,
        )
        self._c_executions: Optional[object] = None
        self._c_stall_cycles: Optional[object] = None

    # ------------------------------------------------------------------

    def execute(self) -> int:
        """Scrub all core-private state; returns the stall cycles.

        Matches the ``purge_callback`` signature of
        :class:`repro.ooo.core.OutOfOrderCore`.
        """
        # Prediction structures, then core-private memory structures.
        self.core.frontend.flush_predictors()
        self.hierarchy.flush_core_private_state()

        stall = self._stall_cycles
        counter = self._c_executions
        if counter is None:
            counter = self._c_executions = self.stats.counter("purge.executions")
        counter.value += 1
        counter = self._c_stall_cycles
        if counter is None:
            counter = self._c_stall_cycles = self.stats.counter("purge.stall_cycles")
        counter.value += stall
        return stall
