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
trained and an L1 that holds no line are left as they are.  The shared
LLC is *not* flushed: its sets are partitioned by DRAM region and are
scrubbed only when physical memory changes owner
(:meth:`repro.mem.llc.LastLevelCache.scrub_region_sets`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.stats import StatsRegistry
from repro.mem.hierarchy import MemoryHierarchy
from repro.ooo.core import OutOfOrderCore


@dataclass(frozen=True)
class PurgeResult:
    """Summary of one purge execution.

    Attributes:
        stall_cycles: Cycles the core is stalled while structures flush.
        flushed: Per-structure counts of entries scrubbed.
    """

    stall_cycles: int
    flushed: Dict[str, int]


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

    def execute(self) -> PurgeResult:
        """Scrub all core-private state and return the cost summary."""
        flushed: Dict[str, int] = {}

        # In-flight instruction bookkeeping.
        flushed["rob_entries"] = self.core.rob.squash_all()
        flushed["issue_queue_entries"] = sum(
            queue.squash_all() for queue in self.core.issue_queues.values()
        )
        flushed["lsq_entries"] = self.core.lsq.squash_all()
        flushed["store_buffer_entries"] = len(self.core.store_buffer.drain_all())
        self.core.rename_table.reset()
        self.core.free_list.reset()

        # Prediction structures.
        predictor_lookups_before = self.core.frontend.predictor.lookup_count
        self.core.frontend.flush_predictors()
        flushed["predictor_tables"] = 1
        flushed["predictor_lookups_before_flush"] = predictor_lookups_before

        # Core-private memory structures.
        flushed.update(self.hierarchy.flush_core_private_state())

        stall = self._stall_cycles
        self.stats.counter("purge.executions").increment()
        self.stats.counter("purge.stall_cycles").increment(stall)
        return PurgeResult(stall_cycles=stall, flushed=flushed)

    def stall_only(self) -> int:
        """Execute a purge and return just the stall cycles.

        Convenience adapter matching the ``purge_callback`` signature of
        :class:`repro.ooo.core.OutOfOrderCore`.
        """
        return self.execute().stall_cycles

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
