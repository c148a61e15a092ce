"""TLBs and the translation cache.

RiscyOO (Figure 4) has fully associative 32-entry L1 instruction and data
TLBs, a private 1024-entry 4-way L2 TLB, and a translation cache with 24
fully associative entries per intermediate translation step.  All of them
are core private and are flushed by the purge instruction.

The models here are functional: they record which translations are
resident so that miss counts (and therefore page-walk latencies) emerge
from the workload's page-level locality, and they expose ``flush_all`` so
the purge model can scrub them and account for the stall and the cold
misses that follow.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.stats import StatsRegistry


class Tlb:
    """A TLB with bounded capacity and LRU replacement.

    Fully associative TLBs are the special case of one set.  Each set is
    a list of virtual page numbers, most recent first, created when the
    set is first filled; an empty set is the shared empty tuple, so a
    fresh or flushed TLB holds no per-set list (an L2 TLB has 256 sets
    per core).  Readers need no case for it: no page is ``in ()``.

    Args:
        name: Statistics prefix (``"itlb"``, ``"dtlb"``, ``"l2tlb"``).
        entries: Total number of entries.
        ways: Associativity (``entries`` for fully associative).
        page_bytes: Page size used to derive the virtual page number.
        stats: Statistics registry.
    """

    def __init__(
        self,
        name: str,
        entries: int,
        ways: Optional[int] = None,
        page_bytes: int = 4096,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.name = name
        self.entries = entries
        self.ways = ways if ways is not None else entries
        if entries % self.ways != 0:
            raise ValueError("TLB entries must be a multiple of associativity")
        self.num_sets = entries // self.ways
        self.page_bytes = page_bytes
        self._stats = stats or StatsRegistry()
        # Per set: virtual page numbers, most recent first; () while empty.
        self._sets: List[Sequence[int]] = [()] * self.num_sets
        self._asid_of: Dict[int, int] = {}
        # Lazily cached counter handles (registration stays on first use).
        self._c_access: Optional[object] = None
        self._c_hit: Optional[object] = None
        self._c_miss: Optional[object] = None
        self._c_flush_entries: Optional[object] = None

    @property
    def stats(self) -> StatsRegistry:
        """Statistics registry used by this TLB."""
        return self._stats

    def _vpn(self, virtual_address: int) -> int:
        return virtual_address // self.page_bytes

    def _set_of(self, vpn: int) -> int:
        return vpn % self.num_sets

    def lookup(self, virtual_address: int) -> bool:
        """Probe without refilling; True on a hit."""
        vpn = self._vpn(virtual_address)
        return vpn in self._sets[self._set_of(vpn)]

    def access(self, virtual_address: int, asid: int = 0) -> bool:
        """Translate ``virtual_address``; refill on a miss.  True on a hit."""
        vpn = virtual_address // self.page_bytes
        entries = self._sets[vpn % self.num_sets]
        counter = self._c_access
        if counter is None:
            counter = self._c_access = self._stats.counter(f"{self.name}.access")
        counter.value += 1
        if vpn in entries and self._asid_of.get(vpn, asid) == asid:
            # Move-to-front is a no-op when the entry is already frontmost
            # (the common case under page-level locality).
            if entries[0] != vpn:
                entries.remove(vpn)
                entries.insert(0, vpn)
            counter = self._c_hit
            if counter is None:
                counter = self._c_hit = self._stats.counter(f"{self.name}.hit")
            counter.value += 1
            return True
        counter = self._c_miss
        if counter is None:
            counter = self._c_miss = self._stats.counter(f"{self.name}.miss")
        counter.value += 1
        self.fill(virtual_address, asid)
        return False

    def fill(self, virtual_address: int, asid: int = 0) -> None:
        """Insert a translation (evicting the LRU entry if the set is full)."""
        vpn = self._vpn(virtual_address)
        set_index = self._set_of(vpn)
        entries = self._sets[set_index]
        self._asid_of[vpn] = asid
        if not entries:
            self._sets[set_index] = [vpn]
            return
        if vpn in entries:
            entries.remove(vpn)
        entries.insert(0, vpn)
        if len(entries) > self.ways:
            evicted = entries.pop()
            self._asid_of.pop(evicted, None)

    def flush_all(self) -> int:
        """Discard every translation; returns the number of entries flushed.

        Corresponds to the purge of TLB state and to the TLB shootdown the
        security monitor forces when protection domains change
        (Section 6.2).  Only the sets holding a resident translation are
        touched, so a near-empty TLB flushes in time proportional to its
        contents rather than its size.
        """
        asid_of = self._asid_of
        flushed = len(asid_of)
        sets = self._sets
        num_sets = self.num_sets
        for vpn in asid_of:
            sets[vpn % num_sets] = ()
        asid_of.clear()
        counter = self._c_flush_entries
        if counter is None:
            counter = self._c_flush_entries = self._stats.counter(f"{self.name}.flush_entries")
        counter.value += flushed
        return flushed

    def capture_warm_state(self) -> tuple:
        """Copy of the resident translations and their LRU order."""
        return [list(entries) if entries else () for entries in self._sets], dict(self._asid_of)

    def load_warm_state(self, state: tuple) -> None:
        """Become a copy of the TLB :meth:`capture_warm_state` read."""
        sets, asid_of = state
        self._sets = [list(entries) if entries else () for entries in sets]
        self._asid_of = dict(asid_of)

    def resident_entries(self) -> int:
        """Number of translations currently resident.

        Every resident VPN has exactly one ASID entry (a VPN maps to one
        set and appears there at most once), so this is the ASID map's
        size.
        """
        return len(self._asid_of)

    @property
    def miss_count(self) -> int:
        """Total misses recorded so far."""
        return self._stats.value(f"{self.name}.miss")


class TranslationCache:
    """Cache of intermediate page-table-walk steps.

    RiscyOO's translation cache holds 24 fully associative entries for
    each intermediate step of the (three-level) walk.  A hit at level *k*
    skips *k* memory accesses of the walk.  The model keeps one small LRU
    array per level.
    """

    def __init__(
        self,
        name: str = "tcache",
        entries_per_level: int = 24,
        levels: int = 2,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.name = name
        self.entries_per_level = entries_per_level
        self.levels = levels
        self._stats = stats or StatsRegistry()
        self._levels: List[List[int]] = [[] for _ in range(levels)]
        self._c_lookup: Optional[object] = None
        self._c_hit: Optional[object] = None
        self._c_miss: Optional[object] = None
        self._c_flush_entries: Optional[object] = None

    @property
    def stats(self) -> StatsRegistry:
        """Statistics registry used by this translation cache."""
        return self._stats

    def deepest_hit_level(self, virtual_address: int, page_bytes: int = 4096) -> int:
        """Deepest walk level whose intermediate entry is cached.

        Returns 0 when nothing is cached (full walk needed) up to
        ``levels`` when the deepest intermediate step is cached.
        """
        best = 0
        for level in range(self.levels, 0, -1):
            key = self._key(virtual_address, level, page_bytes)
            if key in self._levels[level - 1]:
                best = level
                break
        counter = self._c_lookup
        if counter is None:
            counter = self._c_lookup = self._stats.counter(f"{self.name}.lookup")
        counter.value += 1
        if best:
            counter = self._c_hit
            if counter is None:
                counter = self._c_hit = self._stats.counter(f"{self.name}.hit")
            counter.value += 1
        else:
            counter = self._c_miss
            if counter is None:
                counter = self._c_miss = self._stats.counter(f"{self.name}.miss")
            counter.value += 1
        return best

    def fill(self, virtual_address: int, page_bytes: int = 4096) -> None:
        """Record all intermediate steps of a completed walk."""
        for level in range(1, self.levels + 1):
            key = self._key(virtual_address, level, page_bytes)
            entries = self._levels[level - 1]
            if key in entries:
                entries.remove(key)
            entries.insert(0, key)
            if len(entries) > self.entries_per_level:
                entries.pop()

    def flush_all(self) -> int:
        """Discard all cached walk steps; returns entries flushed."""
        flushed = 0
        for entries in self._levels:
            flushed += len(entries)
            entries.clear()
        counter = self._c_flush_entries
        if counter is None:
            counter = self._c_flush_entries = self._stats.counter(f"{self.name}.flush_entries")
        counter.value += flushed
        return flushed

    def capture_warm_state(self) -> tuple:
        """Copy of the cached walk steps, per level in LRU order."""
        return tuple(list(entries) for entries in self._levels)

    def load_warm_state(self, state: tuple) -> None:
        """Become a copy of the cache :meth:`capture_warm_state` read."""
        self._levels = [list(entries) for entries in state]

    def _key(self, virtual_address: int, level: int, page_bytes: int) -> int:
        # Each level covers 512x more address space than the one below it
        # (RISC-V Sv39-style 9-bit levels).
        span = page_bytes * (512 ** level)
        return virtual_address // span
