"""The MI6 ``purge`` instruction.

``purge`` scrubs every core-private structure that can hold
program-dependent state so that nothing survives a protection-domain
switch (Section 6.1):

* in-flight instruction bookkeeping (ROB, issue queues, rename table,
  free list, load-store queue, store buffer) — squashed/drained to an
  "empty pipeline" state whose residual differences are not observable by
  software;
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

from typing import Dict, Optional

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

    def stall_cycles(self) -> int:
        """Cycles the purge stalls the core (data independent).

        All structures are flushed in parallel; the duration is the
        maximum of the individual flush times (Section 7.1): 512 cycles
        for each L1 (one line per cycle), 256 cycles for the L2 TLB (one
        set of 4 entries per cycle), 512 cycles for the largest predictor
        table (8 entries per cycle), one cycle for the fully associative
        L1 TLBs.
        """
        return self._stall_cycles

    def execute(self) -> int:
        """Scrub all core-private state; returns the stall cycles.

        Matches the ``purge_callback`` signature of
        :class:`repro.ooo.core.OutOfOrderCore`.
        """
        core = self.core
        # In-flight instruction bookkeeping.
        core.rob.squash_all()
        for queue in core.issue_queues.values():
            queue.squash_all()
        core.lsq.squash_all()
        core.store_buffer.drain_all()
        core.rename_table.reset()
        core.free_list.reset()
        # Prediction structures, then core-private memory structures.
        core.frontend.flush_predictors()
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

    # ------------------------------------------------------------------
    # Indistinguishability audit (Section 6.1)

    def observable_state(self) -> Dict[str, tuple]:
        """Software-observable projection of every purged structure.

        The purge need not canonicalise states that software cannot
        distinguish (e.g. permutations of a complete free list, or the
        head/tail pointer value of an empty circular issue queue); the
        audit therefore compares these projections rather than the raw
        snapshots.
        """
        core = self.core
        projection: Dict[str, tuple] = {
            "rob": core.rob.observable_projection(),
            "lsq": core.lsq.observable_projection(),
            "store_buffer": core.store_buffer.observable_projection(),
            "rename_table": core.rename_table.observable_projection(),
            "free_list": core.free_list.observable_projection(),
            "predictor": core.frontend.predictor.snapshot(),
            "btb": core.frontend.btb.snapshot(),
            "ras": core.frontend.ras.snapshot(),
        }
        for name, queue in core.issue_queues.items():
            projection[f"issue_queue.{name}"] = queue.observable_projection()
        projection["l1i_valid_lines"] = (self.hierarchy.l1i.cache.valid_line_count(),)
        projection["l1d_valid_lines"] = (self.hierarchy.l1d.cache.valid_line_count(),)
        projection["itlb_entries"] = (self.hierarchy.itlb.resident_entries(),)
        projection["dtlb_entries"] = (self.hierarchy.dtlb.resident_entries(),)
        projection["l2tlb_entries"] = (self.hierarchy.l2tlb.resident_entries(),)
        return projection
