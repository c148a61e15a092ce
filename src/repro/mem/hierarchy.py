"""Per-core view of the memory hierarchy.

The out-of-order core timing model performs every instruction fetch, data
access, and page-table walk through a :class:`MemoryHierarchy`, which owns
the core-private structures (L1 I/D caches, L1 I/D TLBs, the L2 TLB and
translation cache) and references the shared LLC, which holds the DRAM
controller.  Every physical address produced here — including the
addresses touched by page-table walks — is passed through the protection
domain's DRAM-region check, mirroring the MI6 hardware of Section 5.3.

Each side has one accessor: :meth:`MemoryHierarchy.data_access` for a
load or store (or, with ``l1_bypass``, the flush+access idiom's direct
LLC probe) and :meth:`MemoryHierarchy.fetch_access` for an instruction
fetch.  Both return a plain tuple; the core loops, warm-up, the
co-scheduled attack executor and the OS model share them.

Warm-up discards every latency, so the fast kernel primes through the
fused warm-up lanes (:meth:`MemoryHierarchy.prime_data_timing`,
:meth:`MemoryHierarchy.prime_fetch_timing`): one loop per side that
applies the TLB, L1 and LLC effects of each address in place, with the
accessors' state and statistics.  It tallies the counts it applies
and adds them when it ends, deriving its evictions from its misses and
the lines the caches hold, and hands an access to the accessors only
where the path it takes needs a counter not registered yet.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.common.rng import DeterministicRng
from repro.common.stats import StatsRegistry
from repro.mem.address import AddressMap
from repro.mem.cache import _NO_TAGS, SetAssociativeCache
from repro.mem.l1 import L1Cache
from repro.mem.llc import LastLevelCache
from repro.mem.page_table import PageTable
from repro.mem.tlb import TranslationCache, Tlb

#: Latency of an L2 TLB hit on top of an L1 TLB miss, in cycles.
L2_TLB_HIT_LATENCY = 4


class MemoryHierarchy:
    """Core-private caches/TLBs plus a reference to the shared LLC.

    Args:
        core_id: Index of the owning core (it seeds the L1s' replacement).
        llc: Shared last-level cache (it holds the DRAM controller).
        address_map: Physical address map (for region computation).
        rng: Deterministic random source for replacement policies.
        stats: Statistics registry (shared with the core model).
    """

    def __init__(
        self,
        core_id: int,
        llc: LastLevelCache,
        address_map: AddressMap,
        *,
        rng: Optional[DeterministicRng] = None,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.llc = llc
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
        # Hot-path handles: the L1 tag arrays' access entry points bound
        # once, and lazily cached counters.
        self._l1i_access_parts = self.l1i.cache.access_parts
        self._l1d_access_parts = self.l1d.cache.access_parts
        self._dram_bytes = address_map.dram_bytes
        self._c_blocked_accesses: Optional[object] = None
        self._c_blocked_fetches: Optional[object] = None
        self._c_page_faults: Optional[object] = None
        self._c_instruction_page_faults: Optional[object] = None
        self._c_data_llc_access: Optional[object] = None
        self._c_ptw_llc_access: Optional[object] = None

    # ------------------------------------------------------------------
    # Translation

    def _translate(self, virtual_address: int, tlb: Tlb) -> tuple[Optional[int], int]:
        """Translate through the given L1 TLB.

        Returns ``(physical_address, extra_latency)``; the address is
        None when the translation faults.
        """
        page_table = self.page_table
        if page_table is None:
            return virtual_address % self._dram_bytes, 0

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
        if vpn in entries:
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
                return None, 0
            return ppn * page_bytes + virtual_address % page_bytes, 0
        counter = tlb._c_miss
        if counter is None:
            counter = tlb._c_miss = tlb._stats.counter(f"{tlb.name}.miss")
        counter.value += 1
        tlb.fill(virtual_address)
        return self._translate_miss_tail(virtual_address)

    def _translate_miss_tail(self, virtual_address: int) -> tuple[Optional[int], int]:
        """L2-TLB / page-walk tail of a translation (after an L1-TLB miss).

        The L1-TLB probe, miss accounting, and refill have already
        happened; this resolves through the L2 TLB or a (possibly
        translation-cache-shortened) page walk.
        """
        page_table = self.page_table
        if self.l2tlb.access(virtual_address):
            return page_table.translate(virtual_address), L2_TLB_HIT_LATENCY

        # Full (possibly shortened) page-table walk.
        skipped = self.translation_cache.deepest_hit_level(virtual_address)
        levels = max(1, page_table.walk_levels - skipped)
        extra_latency = L2_TLB_HIT_LATENCY
        root = page_table.root_physical_address
        page_bytes = page_table.page_bytes
        for level in range(levels):
            pte_address = (root + level * page_bytes) % self._dram_bytes
            extra_latency += self._physical_data_timing(pte_address, is_ptw=True)[0]
        self.translation_cache.fill(virtual_address)
        return page_table.translate(virtual_address), extra_latency

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

    def _count_page_fault(self) -> None:
        """Count a data access whose translation faulted."""
        counter = self._c_page_faults
        if counter is None:
            counter = self._c_page_faults = self._stats.counter("mem.page_faults")
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
        self, physical_address: int, *, is_write: bool = False, is_ptw: bool = False
    ) -> tuple:
        """Access the data-side hierarchy with an already translated address.

        Returns :meth:`data_access`'s ``(latency, llc_hit, llc_bank,
        blocked)`` without the translation.  This is the single
        implementation behind every data access after translation (the
        accessor, the page walk, and the core's fused lane on an L1D
        miss), so the state and statistics effects are identical on
        every path.
        """
        if self.region_allowed is not None and not self.region_allowed(physical_address):
            self._count_blocked_access()
            return (0, None, 0, True)
        if self._l1d_access_parts(physical_address, is_write)[0]:
            return (self.l1d.hit_latency, None, 0, False)
        llc_hit, llc_latency, llc_bank = self.llc.access_parts(physical_address, is_write)
        if is_ptw:
            counter = self._c_ptw_llc_access
            if counter is None:
                counter = self._c_ptw_llc_access = self._stats.counter("ptw.llc_access")
        else:
            counter = self._c_data_llc_access
            if counter is None:
                counter = self._c_data_llc_access = self._stats.counter("data.llc_access")
        counter.value += 1
        return (self.l1d.hit_latency + llc_latency, llc_hit, llc_bank, False)

    def _physical_fetch_timing(self, physical_address: int) -> tuple:
        """Fetch one line with an already translated address: ``(latency, l1_hit)``.

        The I-side twin of :meth:`_physical_data_timing`, behind
        :meth:`fetch_access` and the core's fused lane on an L1I miss.
        A suppressed fetch reports a hit: it stalls nothing.
        """
        if self.region_allowed is not None and not self.region_allowed(physical_address):
            self._count_blocked_fetch()
            return (0, True)
        hit_latency = self.l1i.hit_latency
        if self._l1i_access_parts(physical_address)[0]:
            return (hit_latency, True)
        return (hit_latency + self.llc.access_parts(physical_address)[1], False)

    # ------------------------------------------------------------------
    # Public access points

    def data_access(
        self, address: int, *, is_write: bool = False, l1_bypass: bool = False
    ) -> tuple:
        """A load or store: ``(latency, llc_hit, llc_bank, blocked)``.

        ``address`` is virtual: it is translated through the D-TLB, and a
        faulting translation counts ``mem.page_faults`` and emits
        nothing.  ``latency`` is the load-to-use latency, excluding
        MSHR-availability stalls, which the core models add.
        ``llc_hit`` is None when the access did not reach the LLC (an L1
        hit, a fault, or an access the DRAM-region check suppressed, for
        which ``blocked`` is True: the speculative case of Section 5.3,
        where the access is simply not emitted); otherwise it tells a
        hit from a miss, and ``llc_bank`` is the MSHR bank a miss
        occupies (0 when there is none).

        With ``l1_bypass`` it accesses the shared LLC directly at a
        physical ``address``, modelling the flush+access idiom attack
        code relies on (a ``clflush``-ed or uncached load): the line is
        looked up in, and on a miss installed into, the shared LLC
        without ever being served from or allocated in the core's L1D,
        so the latency reflects LLC state alone.  The DRAM-region check
        still applies: MI6 suppresses disallowed probes exactly like
        ordinary accesses.
        """
        if l1_bypass:
            if self.region_allowed is not None and not self.region_allowed(address):
                self._count_blocked_access()
                return (0, None, 0, True)
            llc_hit, llc_latency, llc_bank = self.llc.access_parts(address, is_write)
            return (self.l1d.hit_latency + llc_latency, llc_hit, llc_bank, False)
        physical, extra = self._translate(address, self.dtlb)
        if physical is None:
            self._count_page_fault()
            return (extra, None, 0, False)
        latency, llc_hit, llc_bank, blocked = self._physical_data_timing(
            physical, is_write=is_write
        )
        return (latency + extra, llc_hit, llc_bank, blocked)

    def fetch_access(self, virtual_address: int) -> tuple:
        """An instruction fetch of one cache line: ``(latency, l1_hit)``.

        The latency matters only on an L1I miss, when the fetch stream
        stalls for it; a faulting or suppressed fetch reports a hit.
        """
        physical, extra = self._translate(virtual_address, self.itlb)
        if physical is None:
            counter = self._c_instruction_page_faults
            if counter is None:
                counter = self._c_instruction_page_faults = self._stats.counter(
                    "mem.instruction_page_faults"
                )
            counter.value += 1
            return (extra, True)
        latency, l1_hit = self._physical_fetch_timing(physical)
        return (latency + extra, l1_hit)

    def prime_data_timing(self, addresses: Iterable[int]) -> None:
        """Warm-up prime of the data side (fast kernel only).

        State- and statistics-identical to calling
        :meth:`data_access` on every address in ``addresses`` and
        discarding the results, which is what the processor's warm-up
        does; see :meth:`_prime_lane`.
        """
        self._prime_lane(addresses, data_side=True)

    def prime_fetch_timing(self, addresses: Iterable[int]) -> None:
        """Warm-up prime of the instruction side (fast kernel only).

        State- and statistics-identical to calling
        :meth:`fetch_access` on every address; see
        :meth:`_prime_lane`.
        """
        self._prime_lane(addresses, data_side=False)

    def _prime_ready(self, tlb: Tlb, l1: SetAssociativeCache, data_side: bool) -> tuple:
        """Which paths :meth:`_prime_lane` may apply in place, as the counters stand.

        A path runs in place only once its structure holds every counter
        it bumps; until then an accessor takes it and registers them.
        ``(tlb_hit, l1_hit, l1_fill, l1_evict, llc_hit, llc_fill,
        llc_evict, llc_dirty_evict)``: on the data side an L1 miss also
        bumps ``data.llc_access``, and a dirty LLC victim bumps the LLC's
        two writeback counters on top of an eviction's.
        """
        llc_cache = self.llc.cache
        side = not data_side or self._c_data_llc_access is not None
        llc_evict = llc_cache._c_eviction is not None
        return (
            tlb._c_hit is not None,
            l1._c_hit is not None,
            side and l1._c_miss is not None,
            side and l1._c_eviction is not None,
            llc_cache._c_hit is not None,
            llc_cache._c_miss is not None,
            llc_evict,
            llc_evict
            and llc_cache._c_writeback is not None
            and self.llc._c_replacement_writeback is not None,
        )

    @staticmethod
    def _eviction_balance(cache: SetAssociativeCache) -> int:
        """``cache``'s counted misses minus its counted evictions minus the lines it holds.

        Every miss that allocates fills a free way or evicts a line, so
        the balance holds still while nothing invalidates a line.  The
        warm-up lane counts only its misses: the evictions that bring
        the balance back are its own.
        """
        stats = cache._stats
        return (
            stats.value(f"{cache.name}.miss")
            - stats.value(f"{cache.name}.eviction")
            - sum(cache._valid_counts)
        )

    def _prime_lane(self, addresses: Iterable[int], data_side: bool) -> None:
        """Fused warm-up lane of one side: the TLB, the L1 and the LLC in one loop.

        The data side is the D-TLB, the L1D and the ``data.llc_access``
        count; the instruction side is the I-TLB and the L1I.  Warm-up
        discards every latency, so the loop applies each access's state
        and statistics effects in place and computes no latency:

        * a hit on a resident, mapped TLB entry moves it to the front and
          bumps the TLB's counters.  While consecutive addresses stay on
          that front page, the loop reuses its translation and its
          region verdict.  Only an allowing verdict is reused: the
          region check changes and counts nothing when it allows, and a
          page never straddles two DRAM regions.  A denied access is
          counted by the check and by :meth:`_count_blocked_access` /
          :meth:`_count_blocked_fetch`, once per access, as in the
          accessors;
        * the L1 slab is looked up and filled in place, a full set drawing
          its victim with the pseudo-random policy's ``getrandbits``
          rejection loop, as :meth:`SetAssociativeCache._access_parts_slab`
          does;
        * on an L1 miss the LRU LLC slab access is applied in place, its
          set index computed inline: the masked line address, or-ed
          under set partitioning with the front page's DRAM-region bits,
          taken once per page.  A set still on the policy's shared
          initial recency stack gets a copy of its own before it is
          reordered.

        Every other case takes an accessor, as the core's fused lanes
        do.  A TLB miss or a page fault takes :meth:`data_access` /
        :meth:`fetch_access`.  Each path checks only the counters
        it bumps (:meth:`_prime_ready`).  One its structure does not
        hold yet, or an address outside DRAM under set partitioning
        (whose index function raises), takes :meth:`_physical_data_timing`
        / :meth:`_physical_fetch_timing` before the L1 changes; an LLC
        counter found missing after the L1 fill takes
        :meth:`LastLevelCache.access_parts` for the LLC part.  So every
        counter is registered where the accessors register it.  The one
        exception is the L1 victim's writeback counter: the victim is
        known only after its draw, so a dirty victim registers it in
        place.  The loop tallies its TLB hits (every address no accessor
        took), its L1 hits, and its LLC hits and misses, and adds them
        to the counters when it ends, or when an accessor raises; its L1
        misses are its LLC accesses.  Its evictions are its misses minus
        its fills, taken at the end from :meth:`_eviction_balance`.
        Without a page table, or with the reference cache layout, every
        address takes the full accessor.
        """
        if data_side:
            tlb, l1 = self.dtlb, self.l1d.cache
            access = self.data_access
            physical_timing = self._physical_data_timing
            count_blocked = self._count_blocked_access
        else:
            tlb, l1 = self.itlb, self.l1i.cache
            access = self.fetch_access
            physical_timing = self._physical_fetch_timing
            count_blocked = self._count_blocked_fetch
        page_table = self.page_table
        llc = self.llc
        llc_cache = llc.cache
        if (
            page_table is None
            or page_table.page_bytes != tlb.page_bytes
            or self.address_map.region_bytes % tlb.page_bytes
            or l1._victim_getrandbits is None
            or l1._fast_offset_bits is None
            or llc_cache._lru_stacks is None
        ):
            for virtual_address in addresses:
                access(virtual_address)
            return
        page_bytes = tlb.page_bytes
        tlb_num_sets = tlb.num_sets
        tlb_sets = tlb._sets
        mappings_get = page_table.mappings.get
        region_allowed = self.region_allowed
        l1_shift = l1._fast_offset_bits
        l1_set_mask = l1._fast_set_mask
        l1_ways = l1._ways
        l1_ways_bits = l1._ways_bits
        l1_getrandbits = l1._victim_getrandbits
        indexer = llc.indexer
        llc_shift = indexer._offset_bits
        llc_baseline = indexer._baseline
        llc_region_bytes = indexer._region_bytes
        llc_region_mask = indexer._region_mask
        llc_low_bits = indexer._low_bits
        llc_dram_bytes = indexer._dram_bytes
        # The LLC set of a line is its page's region bits (none under the
        # baseline index, -1 for a page outside DRAM under set
        # partitioning) or-ed with its masked line address.
        llc_line_mask = indexer._set_mask if llc_baseline else indexer._low_mask
        llc_ways = llc_cache._ways
        llc_stacks = llc_cache._lru_stacks
        llc_access_parts = llc.access_parts
        (
            tlb_ready, l1_hit_ready, l1_fill_ready, l1_evict_ready,
            llc_hit_ready, llc_fill_ready, llc_evict_ready, llc_dirty_ready,
        ) = self._prime_ready(tlb, l1, data_side)
        # A flush or a warm-state load replaces the slab lists; nothing
        # in this loop does.
        l1_tags = l1._slab_tags
        l1_dirty = l1._slab_dirty
        l1_tag_maps = l1._tag_maps
        l1_valid_counts = l1._valid_counts
        llc_tags = llc_cache._slab_tags
        llc_dirty = llc_cache._slab_dirty
        llc_tag_maps = llc_cache._tag_maps
        llc_valid_counts = llc_cache._valid_counts
        l1_balance = self._eviction_balance(l1)
        llc_balance = self._eviction_balance(llc_cache)
        # The page of the last access this loop translated itself: at
        # the front of its TLB set, mapped ``front_delta`` bytes from its
        # virtual address, allowed, its LLC region bits ``llc_region``.
        front = None
        front_delta = llc_region = 0
        # What the loop applies in place is tallied here and added to the
        # counters when it ends; the accessors bump them directly.  Every
        # address the full accessor does not take hits the TLB, and every
        # L1 miss applied in place accesses the LLC.
        seen = full_accesses = l1_hits = llc_hits = llc_misses = llc_accessor_calls = 0
        try:
            for seen, virtual_address in enumerate(addresses, 1):
                vpn = virtual_address // page_bytes
                if vpn != front:
                    entries = tlb_sets[vpn % tlb_num_sets]
                    ppn = mappings_get(vpn) if tlb_ready and vpn in entries else None
                    if ppn is None:
                        full_accesses += 1
                        access(virtual_address)
                        front = None
                        (
                            tlb_ready, l1_hit_ready, l1_fill_ready, l1_evict_ready,
                            llc_hit_ready, llc_fill_ready, llc_evict_ready, llc_dirty_ready,
                        ) = self._prime_ready(tlb, l1, data_side)
                        continue
                    if entries[0] != vpn:
                        entries.remove(vpn)
                        entries.insert(0, vpn)
                    front_delta = (ppn - vpn) * page_bytes
                    physical = virtual_address + front_delta
                    if region_allowed is not None and not region_allowed(physical):
                        count_blocked()
                        front = None
                        continue
                    front = vpn
                    frame_base = ppn * page_bytes
                    if llc_baseline:
                        llc_region = 0
                    elif 0 <= frame_base < llc_dram_bytes:
                        llc_region = (
                            (frame_base // llc_region_bytes) & llc_region_mask
                        ) << llc_low_bits
                    else:
                        llc_region = -1
                else:
                    physical = virtual_address + front_delta

                tag = physical >> l1_shift
                set_index = tag & l1_set_mask
                tag_map = l1_tag_maps[set_index]
                if tag in tag_map:
                    if l1_hit_ready:
                        l1_hits += 1
                        continue
                    physical_timing(physical)
                else:
                    line = physical >> llc_shift
                    llc_set = llc_region | (line & llc_line_mask)
                    l1_valid = l1_valid_counts[set_index]
                    if llc_set >= 0 and (l1_fill_ready if l1_valid < l1_ways else l1_evict_ready):
                        # The L1 fill (SetAssociativeCache._access_parts_slab).
                        base = set_index * l1_ways
                        if l1_valid < l1_ways:
                            if not l1_valid and tag_map is _NO_TAGS:
                                tag_map = l1_tag_maps[set_index] = {}
                            slot = l1_tags.index(None, base, base + l1_ways)
                            l1_valid_counts[set_index] = l1_valid + 1
                        else:
                            way = l1_getrandbits(l1_ways_bits)
                            while way >= l1_ways:
                                way = l1_getrandbits(l1_ways_bits)
                            slot = base + way
                            del tag_map[l1_tags[slot]]
                            if l1_dirty[slot]:
                                counter = l1._c_writeback
                                if counter is None:
                                    counter = l1._c_writeback = l1._stats.counter(
                                        f"{l1.name}.writeback"
                                    )
                                counter.value += 1
                        l1_tags[slot] = tag
                        l1_dirty[slot] = False
                        tag_map[tag] = slot - base
                        # The LLC access (SetAssociativeCache._access_parts_slab
                        # under LastLevelCache.access_parts); ``ready`` is
                        # whether the LLC holds the counters of its path.
                        llc_map = llc_tag_maps[llc_set]
                        llc_way = llc_map.get(line)
                        stack = llc_stacks[llc_set]
                        if llc_way is not None:
                            ready = llc_hit_ready
                            if ready:
                                llc_hits += 1
                        else:
                            base = llc_set * llc_ways
                            llc_valid = llc_valid_counts[llc_set]
                            if llc_valid < llc_ways:
                                ready = llc_fill_ready
                                if ready:
                                    if not llc_valid and llc_map is _NO_TAGS:
                                        llc_map = llc_tag_maps[llc_set] = {}
                                    slot = llc_tags.index(None, base, base + llc_ways)
                                    llc_valid_counts[llc_set] = llc_valid + 1
                            else:
                                slot = base + stack[-1]
                                victim_dirty = llc_dirty[slot]
                                ready = llc_dirty_ready if victim_dirty else llc_evict_ready
                                if ready:
                                    del llc_map[llc_tags[slot]]
                                    if victim_dirty:
                                        llc_cache._c_writeback.value += 1
                                        llc._c_replacement_writeback.value += 1
                            if ready:
                                llc_misses += 1
                                llc_way = slot - base
                                llc_tags[slot] = line
                                llc_dirty[slot] = False
                                llc_map[line] = llc_way
                        if ready:
                            if stack[0] != llc_way:
                                if not isinstance(stack, bytearray):
                                    stack = llc_stacks[llc_set] = bytearray(stack)
                                stack.remove(llc_way)
                                stack.insert(0, llc_way)
                            continue
                        # An LLC counter not registered yet: the LLC part
                        # through its accessor.
                        llc_accessor_calls += 1
                        llc_access_parts(physical)
                    else:
                        physical_timing(physical)
                # A counter the structures did not hold yet, or an index
                # function that raises, took an accessor after translation.
                (
                    tlb_ready, l1_hit_ready, l1_fill_ready, l1_evict_ready,
                    llc_hit_ready, llc_fill_ready, llc_evict_ready, llc_dirty_ready,
                ) = self._prime_ready(tlb, l1, data_side)
        finally:
            tlb_hits = seen - full_accesses
            if tlb_hits:
                tlb._c_access.value += tlb_hits
                tlb._c_hit.value += tlb_hits
            l1_misses = llc_hits + llc_misses + llc_accessor_calls
            for cache, hits, misses, balance in (
                (l1, l1_hits, l1_misses, l1_balance),
                (llc_cache, llc_hits, llc_misses, llc_balance),
            ):
                if hits or misses:
                    cache._c_access.value += hits + misses
                if hits:
                    cache._c_hit.value += hits
                if misses:
                    cache._c_miss.value += misses
                    evictions = self._eviction_balance(cache) - balance
                    if evictions:
                        cache._c_eviction.value += evictions
            if data_side and l1_misses:
                self._c_data_llc_access.value += l1_misses

    # ------------------------------------------------------------------
    # Purge support

    def flush_core_private_state(self) -> None:
        """Scrub all core-private memory structures.

        Each structure counts what it flushed in its own ``flush_*``
        counter.  The stall cycles charged for the flush are computed by
        the purge cost model (:mod:`repro.core.purge`), which knows the
        per-cycle flush bandwidth of each structure.
        """
        self.l1i.flush_all()
        self.l1d.flush_all()
        self.itlb.flush_all()
        self.dtlb.flush_all()
        self.l2tlb.flush_all()
        self.translation_cache.flush_all()

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
    ) -> None:
        """Install a new translation/protection context (context switch).

        ``region_allowed`` is the DRAM-region check (in-tree, always a
        :class:`~repro.core.protection.RegionBitvector`'s ``is_allowed``):
        its verdict must depend only on the address's region, and an
        allowing call must change nothing, because the warm-up lanes
        reuse an allowing verdict across a page (:meth:`_prime_lane`).
        """
        self.page_table = page_table
        self.region_allowed = region_allowed
