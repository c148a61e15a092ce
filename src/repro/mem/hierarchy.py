"""Per-core view of the memory hierarchy.

The out-of-order core timing model performs every instruction fetch, data
access, and page-table walk through a :class:`MemoryHierarchy`, which owns
the core-private structures (L1 I/D caches, L1 I/D TLBs, the L2 TLB and
translation cache) and references the shared structures (LLC, DRAM
controller).  Every physical address produced here — including the
addresses touched by page-table walks — is passed through the protection
domain's DRAM-region check, mirroring the MI6 hardware of Section 5.3.

Two access surfaces are exposed:

* the descriptive methods (:meth:`MemoryHierarchy.data_access`,
  :meth:`MemoryHierarchy.fetch_access`) return a full
  :class:`HierarchyAccess` record — tests, attack models, and the
  reference (slow-path) core loop use these;
* the timing methods (:meth:`MemoryHierarchy.data_access_timing`,
  :meth:`MemoryHierarchy.fetch_access_timing`) perform *identical* state
  and statistics updates but return only the scalars the fast core loop
  consumes, skipping the per-access record construction.  They also serve
  as the warm-up fast-forward: priming runs through them because warm-up
  discards every latency anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.rng import DeterministicRng
from repro.common.stats import StatsRegistry
from repro.mem.address import AddressMap
from repro.mem.dram import DramController
from repro.mem.l1 import L1Cache
from repro.mem.llc import LastLevelCache
from repro.mem.page_table import PageTable
from repro.mem.tlb import TranslationCache, Tlb

#: Latency of an L2 TLB hit on top of an L1 TLB miss, in cycles.
L2_TLB_HIT_LATENCY = 4


@dataclass(frozen=True)
class HierarchyAccess:
    """Timing and event summary of one memory-hierarchy access.

    Attributes:
        latency: Total load-to-use (or fetch) latency in cycles, excluding
            MSHR-availability stalls which the core model adds.
        physical_address: Translated physical address (None if the access
            faulted or was suppressed by the protection check).
        l1_hit: Whether the access hit in its L1 cache.
        llc_accessed: Whether the access reached the LLC.
        llc_hit: Whether the LLC access hit (meaningless if not accessed).
        llc_set: LLC set index touched (for attack/partition analysis).
        llc_bank: MSHR bank a miss would occupy.
        llc_writeback: Whether the LLC fill evicted a dirty line.
        tlb_walk_accesses: Memory accesses performed by the page walk.
        page_fault: True when translation failed.
        blocked_by_protection: True when the DRAM-region check suppressed
            the access (the speculative case of Section 5.3: the access is
            simply not emitted).
    """

    latency: int
    physical_address: Optional[int] = None
    l1_hit: bool = True
    llc_accessed: bool = False
    llc_hit: bool = False
    llc_set: int = -1
    llc_bank: int = 0
    llc_writeback: bool = False
    tlb_walk_accesses: int = 0
    page_fault: bool = False
    blocked_by_protection: bool = False


class MemoryHierarchy:
    """Core-private caches/TLBs plus references to the shared LLC and DRAM.

    Args:
        core_id: Index of the owning core.
        llc: Shared last-level cache.
        dram: Shared DRAM controller.
        address_map: Physical address map (for region computation).
        rng: Deterministic random source for replacement policies.
        stats: Statistics registry (shared with the core model).
    """

    def __init__(
        self,
        core_id: int,
        llc: LastLevelCache,
        dram: DramController,
        address_map: AddressMap,
        *,
        rng: Optional[DeterministicRng] = None,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.core_id = core_id
        self.llc = llc
        self.dram = dram
        self.address_map = address_map
        self._stats = stats or StatsRegistry()
        rng = rng or DeterministicRng(0)
        self.l1i = L1Cache("l1i", rng=rng.fork("l1i", core_id), stats=self._stats)
        self.l1d = L1Cache("l1d", rng=rng.fork("l1d", core_id), stats=self._stats)
        self.itlb = Tlb("itlb", entries=32, stats=self._stats)
        self.dtlb = Tlb("dtlb", entries=32, stats=self._stats)
        self.l2tlb = Tlb("l2tlb", entries=1024, ways=4, stats=self._stats)
        self.translation_cache = TranslationCache(stats=self._stats)
        # Current translation context; installed by the OS / security
        # monitor on a context switch.  None means bare physical mode.
        self.page_table: Optional[PageTable] = None
        # DRAM-region access check installed by the protection domain.
        self.region_allowed: Optional[Callable[[int], bool]] = None
        # Owner label recorded on cache lines (protection-domain id).
        self.owner: Optional[int] = None
        # Hot-path handles: the L1 tag arrays' access entry points bound
        # once, and lazily cached counters.
        self._l1i_access_parts = self.l1i.cache.access_parts
        self._l1d_probe = self.l1d.cache.probe
        self._l1i_probe = self.l1i.cache.probe
        self._dram_bytes = address_map.dram_bytes
        self._c_blocked_accesses: Optional[object] = None
        self._c_blocked_fetches: Optional[object] = None
        self._c_page_faults: Optional[object] = None
        self._c_instruction_page_faults: Optional[object] = None
        self._c_data_llc_access: Optional[object] = None
        self._c_ptw_llc_access: Optional[object] = None

    @property
    def stats(self) -> StatsRegistry:
        """Statistics registry used by this hierarchy."""
        return self._stats

    # ------------------------------------------------------------------
    # Translation

    def _check_region(self, physical_address: int) -> bool:
        """True if the access to ``physical_address`` is permitted."""
        if self.region_allowed is None:
            return True
        return self.region_allowed(physical_address)

    def _translate(
        self, virtual_address: int, tlb: Tlb
    ) -> tuple[Optional[int], int, int, bool]:
        """Translate through the given L1 TLB.

        Returns ``(physical_address, extra_latency, walk_accesses, fault)``.
        """
        page_table = self.page_table
        if page_table is None:
            physical = virtual_address % self._dram_bytes
            return physical, 0, 0, False

        # Inlined L1-TLB hit path (state/stats-identical to ``tlb.access``):
        # the access counter bumps on every probe, a hit bumps the hit
        # counter and moves the entry to the front of its LRU list — a
        # no-op when it is already frontmost, which is the common case
        # thanks to page-level locality.
        vpn = virtual_address // tlb.page_bytes
        entries = tlb._sets[vpn % tlb.num_sets]
        counter = tlb._c_access
        if counter is None:
            counter = tlb._c_access = tlb._stats.counter(f"{tlb.name}.access")
        counter.value += 1
        if vpn in entries and tlb._asid_of.get(vpn, 0) == 0:
            if entries[0] != vpn:
                entries.remove(vpn)
                entries.insert(0, vpn)
            counter = tlb._c_hit
            if counter is None:
                counter = tlb._c_hit = tlb._stats.counter(f"{tlb.name}.hit")
            counter.value += 1
            page_bytes = page_table.page_bytes
            ppn = page_table.mappings.get(virtual_address // page_bytes)
            if ppn is None:
                return None, 0, 0, True
            return ppn * page_bytes + virtual_address % page_bytes, 0, 0, False
        counter = tlb._c_miss
        if counter is None:
            counter = tlb._c_miss = tlb._stats.counter(f"{tlb.name}.miss")
        counter.value += 1
        tlb.fill(virtual_address, 0)
        return self._translate_miss_tail(virtual_address)

    def _translate_miss_tail(
        self, virtual_address: int
    ) -> tuple[Optional[int], int, int, bool]:
        """L2-TLB / page-walk tail of a translation (after an L1-TLB miss).

        The L1-TLB probe, miss accounting, and refill have already
        happened; this resolves through the L2 TLB or a (possibly
        translation-cache-shortened) page walk.
        """
        page_table = self.page_table
        if self.l2tlb.access(virtual_address):
            physical = page_table.translate(virtual_address)
            return physical, L2_TLB_HIT_LATENCY, 0, physical is None

        # Full (possibly shortened) page-table walk.
        skipped = self.translation_cache.deepest_hit_level(virtual_address)
        levels = max(1, page_table.walk_levels - skipped)
        extra_latency = L2_TLB_HIT_LATENCY
        walk_accesses = 0
        root = page_table.root_physical_address
        page_bytes = page_table.page_bytes
        for level in range(levels):
            pte_address = (root + level * page_bytes) % self._dram_bytes
            walk_accesses += 1
            extra_latency += self._physical_data_timing(
                pte_address, is_write=False, is_ptw=True
            )[0]
        self.translation_cache.fill(virtual_address)
        physical = page_table.translate(virtual_address)
        return physical, extra_latency, walk_accesses, physical is None

    # ------------------------------------------------------------------
    # Physical-side accesses

    def _count_blocked_access(self) -> None:
        """Count a data access the DRAM-region check suppressed."""
        counter = self._c_blocked_accesses
        if counter is None:
            counter = self._c_blocked_accesses = self._stats.counter(
                "protection.blocked_accesses"
            )
        counter.value += 1

    def _count_blocked_fetch(self) -> None:
        """Count an instruction fetch the DRAM-region check suppressed."""
        counter = self._c_blocked_fetches
        if counter is None:
            counter = self._c_blocked_fetches = self._stats.counter(
                "protection.blocked_fetches"
            )
        counter.value += 1

    def _physical_data_timing(
        self, physical_address: int, *, is_write: bool, is_ptw: bool = False
    ) -> tuple:
        """Access the data-side hierarchy with an already translated address.

        Returns ``(latency, llc_parts, blocked)`` where ``llc_parts`` is
        the LLC's ``access_parts`` tuple when the access reached the LLC
        and ``None`` otherwise.  This is the single implementation behind
        every data access after translation (reference, timing, page
        walk, and the core's fused lane on an L1D miss), so the state and
        statistics effects are identical on every path.
        """
        if self.region_allowed is not None and not self.region_allowed(physical_address):
            self._count_blocked_access()
            return (0, None, True)
        if self._l1d_probe(physical_address, is_write, self.owner):
            return (self.l1d.hit_latency, None, False)
        llc_parts = self.llc.access_parts(
            physical_address, is_write=is_write, core=self.core_id, owner=self.owner
        )
        latency = self.l1d.hit_latency + llc_parts[1]
        if is_ptw:
            counter = self._c_ptw_llc_access
            if counter is None:
                counter = self._c_ptw_llc_access = self._stats.counter("ptw.llc_access")
        else:
            counter = self._c_data_llc_access
            if counter is None:
                counter = self._c_data_llc_access = self._stats.counter("data.llc_access")
        counter.value += 1
        return (latency, llc_parts, False)

    def _physical_fetch_timing(self, physical_address: int) -> tuple:
        """Fetch one line with an already translated address: ``(latency, l1_hit)``.

        The I-side twin of :meth:`_physical_data_timing`, behind
        :meth:`fetch_access_timing` and the core's fused lane on an L1I
        miss.  A suppressed fetch reports a hit: it stalls nothing.
        """
        if self.region_allowed is not None and not self.region_allowed(physical_address):
            self._count_blocked_fetch()
            return (0, True)
        hit_latency = self.l1i.hit_latency
        if self._l1i_probe(physical_address, False, self.owner):
            return (hit_latency, True)
        llc_parts = self.llc.access_parts(physical_address, core=self.core_id, owner=self.owner)
        return (hit_latency + llc_parts[1], False)

    # ------------------------------------------------------------------
    # Public access points used by the core model

    def data_access_timing(self, virtual_address: int, *, is_write: bool = False) -> tuple:
        """Timing of a load/store: ``(latency, llc_miss, llc_bank)``.

        Identical state and statistics effects to :meth:`data_access`,
        returning only what the core's stage loop consumes: the total
        latency, whether the access missed in the LLC (and therefore needs
        an MSHR), and the MSHR bank a miss occupies.
        """
        physical, extra, _walk, fault = self._translate(virtual_address, self.dtlb)
        if fault:
            counter = self._c_page_faults
            if counter is None:
                counter = self._c_page_faults = self._stats.counter("mem.page_faults")
            counter.value += 1
            return (extra, False, 0)
        latency, llc_parts, _blocked = self._physical_data_timing(physical, is_write=is_write)
        if llc_parts is None or llc_parts[0]:
            return (latency + extra, False, 0)
        return (latency + extra, True, llc_parts[3])

    def prime_data_timing(self, addresses) -> None:
        """Warm-up prime of the data-side hierarchy (fast kernel only).

        State- and statistics-identical to calling
        :meth:`data_access_timing` on every address in ``addresses`` and
        discarding the results, which is exactly what the processor's
        warm-up loop does: every hot handle (TLB set lists, page-table
        mappings, L1 probe, LLC tag access) is bound once for the whole
        batch instead of per access.  The common case — a D-TLB hit — is
        handled in the loop; anything else (TLB miss, page fault, blocked
        region) falls back to the full accessor, whose counter bumps then
        happen exactly once per access, as in the reference.
        """
        page_table = self.page_table
        data_access_timing = self.data_access_timing
        if page_table is None:
            for virtual_address in addresses:
                data_access_timing(virtual_address)
            return
        tlb = self.dtlb
        tlb_page_bytes = tlb.page_bytes
        tlb_num_sets = tlb.num_sets
        tlb_sets = tlb._sets
        asid_get = tlb._asid_of.get
        page_bytes = page_table.page_bytes
        mappings_get = page_table.mappings.get
        region_allowed = self.region_allowed
        l1d_probe = self._l1d_probe
        llc = self.llc
        llc_cache_access_parts = llc._cache_access_parts
        owner = self.owner
        c_tlb_access = tlb._c_access
        c_tlb_hit = tlb._c_hit
        c_llc_access = self._c_data_llc_access
        for virtual_address in addresses:
            vpn = virtual_address // tlb_page_bytes
            entries = tlb_sets[vpn % tlb_num_sets]
            if vpn not in entries or asid_get(vpn, 0) != 0:
                data_access_timing(virtual_address)
                continue
            if c_tlb_access is None:
                c_tlb_access = tlb._c_access = tlb._stats.counter(f"{tlb.name}.access")
            c_tlb_access.value += 1
            if entries[0] != vpn:
                entries.remove(vpn)
                entries.insert(0, vpn)
            if c_tlb_hit is None:
                c_tlb_hit = tlb._c_hit = tlb._stats.counter(f"{tlb.name}.hit")
            c_tlb_hit.value += 1
            ppn = mappings_get(virtual_address // page_bytes)
            if ppn is None:
                counter = self._c_page_faults
                if counter is None:
                    counter = self._c_page_faults = self._stats.counter("mem.page_faults")
                counter.value += 1
                continue
            physical = ppn * page_bytes + virtual_address % page_bytes
            if region_allowed is not None and not region_allowed(physical):
                self._count_blocked_access()
                continue
            if l1d_probe(physical, False, owner):
                continue
            # Inlined ``LastLevelCache.access_parts`` minus the latency and
            # bank values the warm-up discards.
            parts = llc_cache_access_parts(physical, False, owner)
            if not parts[0] and parts[4]:
                counter = llc._c_replacement_writeback
                if counter is None:
                    counter = llc._c_replacement_writeback = llc._stats.counter(
                        "llc.replacement_writeback"
                    )
                counter.value += 1
            if c_llc_access is None:
                c_llc_access = self._c_data_llc_access = self._stats.counter(
                    "data.llc_access"
                )
            c_llc_access.value += 1

    def prime_fetch_timing(self, addresses) -> None:
        """Warm-up prime of the instruction side (fast kernel only).

        The I-side twin of :meth:`prime_data_timing`: identical state and
        statistics effects to :meth:`fetch_access_timing` per address,
        with the I-TLB hit case fused into the loop and everything else
        delegated to the full accessor.
        """
        page_table = self.page_table
        fetch_access_timing = self.fetch_access_timing
        if page_table is None:
            for virtual_address in addresses:
                fetch_access_timing(virtual_address)
            return
        tlb = self.itlb
        tlb_page_bytes = tlb.page_bytes
        tlb_num_sets = tlb.num_sets
        tlb_sets = tlb._sets
        asid_get = tlb._asid_of.get
        page_bytes = page_table.page_bytes
        mappings_get = page_table.mappings.get
        region_allowed = self.region_allowed
        l1i_probe = self._l1i_probe
        llc = self.llc
        llc_cache_access_parts = llc._cache_access_parts
        owner = self.owner
        c_tlb_access = tlb._c_access
        c_tlb_hit = tlb._c_hit
        for virtual_address in addresses:
            vpn = virtual_address // tlb_page_bytes
            entries = tlb_sets[vpn % tlb_num_sets]
            if vpn not in entries or asid_get(vpn, 0) != 0:
                fetch_access_timing(virtual_address)
                continue
            if c_tlb_access is None:
                c_tlb_access = tlb._c_access = tlb._stats.counter(f"{tlb.name}.access")
            c_tlb_access.value += 1
            if entries[0] != vpn:
                entries.remove(vpn)
                entries.insert(0, vpn)
            if c_tlb_hit is None:
                c_tlb_hit = tlb._c_hit = tlb._stats.counter(f"{tlb.name}.hit")
            c_tlb_hit.value += 1
            ppn = mappings_get(virtual_address // page_bytes)
            if ppn is None:
                counter = self._c_instruction_page_faults
                if counter is None:
                    counter = self._c_instruction_page_faults = self._stats.counter(
                        "mem.instruction_page_faults"
                    )
                counter.value += 1
                continue
            physical = ppn * page_bytes + virtual_address % page_bytes
            if region_allowed is not None and not region_allowed(physical):
                self._count_blocked_fetch()
                continue
            if l1i_probe(physical, False, owner):
                continue
            parts = llc_cache_access_parts(physical, False, owner)
            if not parts[0] and parts[4]:
                counter = llc._c_replacement_writeback
                if counter is None:
                    counter = llc._c_replacement_writeback = llc._stats.counter(
                        "llc.replacement_writeback"
                    )
                counter.value += 1

    def data_access(self, virtual_address: int, *, is_write: bool = False) -> HierarchyAccess:
        """Perform a load or store through the data-side hierarchy."""
        physical, extra, walk_accesses, fault = self._translate(virtual_address, self.dtlb)
        if fault:
            counter = self._c_page_faults
            if counter is None:
                counter = self._c_page_faults = self._stats.counter("mem.page_faults")
            counter.value += 1
            return HierarchyAccess(latency=extra, tlb_walk_accesses=walk_accesses, page_fault=True)
        latency, llc_parts, blocked = self._physical_data_timing(physical, is_write=is_write)
        if blocked:
            return HierarchyAccess(
                latency=extra, tlb_walk_accesses=walk_accesses, blocked_by_protection=True
            )
        if llc_parts is None:
            return HierarchyAccess(
                latency=latency + extra,
                physical_address=physical,
                l1_hit=True,
                tlb_walk_accesses=walk_accesses,
            )
        return HierarchyAccess(
            latency=latency + extra,
            physical_address=physical,
            l1_hit=False,
            llc_accessed=True,
            llc_hit=llc_parts[0],
            llc_set=llc_parts[2],
            llc_bank=llc_parts[3],
            llc_writeback=llc_parts[4],
            tlb_walk_accesses=walk_accesses,
        )

    def llc_probe_access(self, physical_address: int, *, is_write: bool = False) -> HierarchyAccess:
        """Access the shared LLC directly, bypassing the private L1.

        This models the flush+access idiom attack code relies on (a
        ``clflush``-ed or uncached load): the line is looked up in — and
        on a miss installed into — the shared LLC without ever being
        served from or allocated in the core's L1D, so the measured
        latency reflects LLC state alone.  The DRAM-region protection
        check still applies: MI6 suppresses disallowed probes exactly
        like ordinary accesses (Section 5.3).
        """
        if not self._check_region(physical_address):
            self._count_blocked_access()
            return HierarchyAccess(latency=0, blocked_by_protection=True)
        outcome = self.llc.access(
            physical_address, is_write=is_write, core=self.core_id, owner=self.owner
        )
        return HierarchyAccess(
            latency=self.l1d.hit_latency + outcome.latency,
            physical_address=physical_address,
            l1_hit=False,
            llc_accessed=True,
            llc_hit=outcome.hit,
            llc_set=outcome.set_index,
            llc_bank=outcome.bank,
            llc_writeback=outcome.writeback,
        )

    def fetch_access_timing(self, virtual_address: int) -> tuple:
        """Timing of an instruction fetch: ``(latency, l1_hit)``.

        Identical state and statistics effects to :meth:`fetch_access`,
        returning only the fetch latency and the L1I hit bit the front
        end's stall computation consumes (the latency only matters on a
        miss).
        """
        physical, extra, _walk, fault = self._translate(virtual_address, self.itlb)
        if fault:
            counter = self._c_instruction_page_faults
            if counter is None:
                counter = self._c_instruction_page_faults = self._stats.counter(
                    "mem.instruction_page_faults"
                )
            counter.value += 1
            return (extra, True)
        latency, l1_hit = self._physical_fetch_timing(physical)
        return (latency + extra, l1_hit)

    def fetch_access(self, virtual_address: int) -> HierarchyAccess:
        """Perform an instruction fetch (one cache line) through the I-side."""
        physical, extra, walk_accesses, fault = self._translate(virtual_address, self.itlb)
        if fault:
            counter = self._c_instruction_page_faults
            if counter is None:
                counter = self._c_instruction_page_faults = self._stats.counter(
                    "mem.instruction_page_faults"
                )
            counter.value += 1
            return HierarchyAccess(latency=extra, tlb_walk_accesses=walk_accesses, page_fault=True)
        if not self._check_region(physical):
            self._count_blocked_fetch()
            return HierarchyAccess(latency=0, blocked_by_protection=True)
        l1_hit = self._l1i_access_parts(physical, owner=self.owner)[0]
        latency = self.l1i.hit_latency + extra
        if l1_hit:
            return HierarchyAccess(
                latency=latency, physical_address=physical, tlb_walk_accesses=walk_accesses
            )
        llc_parts = self.llc.access_parts(physical, core=self.core_id, owner=self.owner)
        return HierarchyAccess(
            latency=latency + llc_parts[1],
            physical_address=physical,
            l1_hit=False,
            llc_accessed=True,
            llc_hit=llc_parts[0],
            llc_set=llc_parts[2],
            llc_bank=llc_parts[3],
            tlb_walk_accesses=walk_accesses,
        )

    # ------------------------------------------------------------------
    # Purge support

    def flush_core_private_state(self) -> dict:
        """Scrub all core-private memory structures.

        Returns a dictionary of entries flushed per structure.  The stall
        cycles charged for the flush are computed by the purge cost model
        (:mod:`repro.core.purge`), which knows the per-cycle flush
        bandwidth of each structure.
        """
        return {
            "l1i_lines": self.l1i.flush_all(),
            "l1d_lines": self.l1d.flush_all(),
            "itlb_entries": self.itlb.flush_all(),
            "dtlb_entries": self.dtlb.flush_all(),
            "l2tlb_entries": self.l2tlb.flush_all(),
            "translation_cache_entries": self.translation_cache.flush_all(),
        }

    # ------------------------------------------------------------------
    # Warm-state sharing (fast kernel only)

    def _warm_structures(self) -> tuple:
        """Every structure warm-up changes, in a fixed order."""
        return (
            self.l1i.cache,
            self.l1d.cache,
            self.llc.cache,
            self.itlb,
            self.dtlb,
            self.l2tlb,
            self.translation_cache,
        )

    def capture_warm_state(self) -> tuple:
        """Copy of every structure warm-up changes (see :meth:`load_warm_state`).

        Warm-up touches the L1 I/D caches (slabs and replacement-RNG
        position), the LLC (slabs and LRU stacks), the three TLBs and the
        translation cache; latencies, MSHRs and DRAM are never touched.
        """
        return tuple(structure.capture_warm_state() for structure in self._warm_structures())

    def load_warm_state(self, state: tuple) -> None:
        """Copy a captured warm state into this hierarchy's structures.

        The source must have had the same geometry, LLC index function
        and seed-derived replacement RNGs; the engine guarantees it by
        sharing only within one warm class of one (benchmark, seed).
        """
        for structure, structure_state in zip(self._warm_structures(), state):
            structure.load_warm_state(structure_state)

    def install_context(
        self,
        page_table: Optional[PageTable],
        region_allowed: Optional[Callable[[int], bool]],
        owner: Optional[int],
    ) -> None:
        """Install a new translation/protection context (context switch)."""
        self.page_table = page_table
        self.region_allowed = region_allowed
        self.owner = owner
