"""Shared last-level cache (LLC): functional/timing model.

This is the model the approximate core timing simulator talks to.  It
captures the properties the evaluation depends on:

* the tag array, indexed either with the baseline function or the MI6
  set-partitioned function (Figures 8 and 9),
* the MSHR file organisation (shared / partitioned / banked) used to
  bound memory-level parallelism and model bank-conflict stalls
  (Figure 10),
* an extra pipeline-entry latency that models the round-robin arbiter of
  the MI6 LLC (Figure 11, ``N/2`` cycles for an ``N``-core machine).

The message-level microarchitecture of the LLC (UQ/DQ FIFOs, Downgrade-L1
logic, retry bit, per-core entry muxes) lives in
:mod:`repro.mem.llc_detail` and is used for the strong-timing-independence
demonstrations rather than for the SPEC-style overhead runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.rng import DeterministicRng
from repro.common.stats import StatsRegistry
from repro.core.config import LlcConfig
from repro.mem.address import AddressMap, IndexFunction, LlcIndexer
from repro.mem.cache import SetAssociativeCache
from repro.mem.dram import DramController
from repro.mem.mshr import MshrFile
from repro.mem.replacement import LruPolicy


@dataclass(frozen=True)
class LlcAccessOutcome:
    """Result of one LLC access by the timing model.

    Attributes:
        hit: True if the line was resident.
        latency: Cycles from the L1 miss reaching the LLC to data return,
            excluding any MSHR-availability waiting (the core model adds
            that because it depends on what else is in flight).
        set_index: LLC set accessed.
        bank: MSHR bank the request would occupy on a miss.
        writeback: True if the fill evicted a dirty line (two DRAM
            requests instead of one).
        evicted_owner: Owner label of the evicted line, if any.
    """

    hit: bool
    latency: int
    set_index: int
    bank: int
    writeback: bool = False
    evicted_owner: Optional[int] = None


class LastLevelCache:
    """Shared LLC with configurable indexing, MSHRs, and arbiter latency."""

    def __init__(
        self,
        config: LlcConfig,
        address_map: AddressMap,
        dram: DramController,
        *,
        rng: Optional[DeterministicRng] = None,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        """Build the tag array, its index function and the MSHR file.

        The tag array is an LRU :class:`SetAssociativeCache` whose tags
        are line addresses.  Under the baseline index function its set
        index is the cache's default shift-and-mask, the function
        :meth:`LlcIndexer.set_index` computes there, so the slab access
        paths compute it inline and only set-partitioned accesses call
        the indexer.  (The memory hierarchy's warm-up lanes compute both
        functions inline.)
        """
        self.config = config
        self.address_map = address_map
        self.dram = dram
        self._stats = stats or StatsRegistry()
        if config.mshr.partitioned or config.mshr.banks > 1:
            # The insecure baseline is allowed to violate the sizing rule
            # (16 MSHRs with a 24-request DRAM controller); the secured
            # organisations must respect it (Section 5.2).
            config.mshr.validate_against_dram(dram.max_outstanding)
        self._indexer = LlcIndexer(
            geometry=config.geometry,
            address_map=address_map,
            index_function=config.index_function,
            region_index_bits=config.region_index_bits,
        )
        # The LLC keeps an LRU recency order so that a protection domain's
        # recently reused lines are not randomly evicted by its own
        # streaming traffic; the L1s keep RiscyOO's stateless
        # pseudo-random policy (Section 6.1).
        self._cache = SetAssociativeCache(
            name="llc",
            geometry=config.geometry,
            policy=LruPolicy(config.geometry.num_sets, config.geometry.ways),
            index_for=(
                None
                if config.index_function is IndexFunction.BASELINE
                else self._indexer.set_index
            ),
            stats=self._stats,
        )
        self._mshrs = MshrFile(config.mshr)
        # Hot-path constants and lazily cached counter handles.  The tag
        # array's access entry point is bound once (in the fast kernel it
        # is the slab-backed implementation installed at construction).
        self._cache_access_parts = self._cache.access_parts
        self._hit_latency = config.hit_latency + config.extra_pipeline_latency
        self._mshr_banks = config.mshr.banks
        self._dram_latency = dram.config.latency_cycles
        self._c_replacement_writeback: Optional[object] = None

    @property
    def stats(self) -> StatsRegistry:
        """Statistics registry used by this cache."""
        return self._stats

    @property
    def cache(self) -> SetAssociativeCache:
        """Underlying tag-array model."""
        return self._cache

    @property
    def mshrs(self) -> MshrFile:
        """MSHR file model."""
        return self._mshrs

    @property
    def indexer(self) -> LlcIndexer:
        """Index-function helper in use."""
        return self._indexer

    def set_index(self, physical_address: int) -> int:
        """LLC set index of a physical address under the active indexing."""
        return self._indexer.set_index(physical_address)

    def access_parts(
        self,
        physical_address: int,
        is_write: bool = False,
        core: int = 0,
        owner: Optional[int] = None,
    ) -> tuple:
        """Access the LLC; return plain ``(hit, latency, set_index, bank,
        writeback, evicted_owner)`` values.

        Hot entry point used by the memory hierarchy: identical state and
        statistics effects to :meth:`access` without constructing an
        :class:`LlcAccessOutcome`.
        """
        hit, set_index, _way, _tag, evicted_dirty, evicted_owner = self._cache_access_parts(
            physical_address, is_write, owner
        )
        bank = set_index % self._mshr_banks
        latency = self._hit_latency
        if hit:
            return (True, latency, set_index, bank, False, None)
        latency += self._dram_latency
        if evicted_dirty:
            counter = self._c_replacement_writeback
            if counter is None:
                counter = self._c_replacement_writeback = self._stats.counter(
                    "llc.replacement_writeback"
                )
            counter.value += 1
        return (False, latency, set_index, bank, evicted_dirty, evicted_owner)

    def access(
        self,
        physical_address: int,
        *,
        is_write: bool = False,
        core: int = 0,
        owner: Optional[int] = None,
    ) -> LlcAccessOutcome:
        """Access the LLC and return the hit/miss outcome and base latency.

        The latency includes the arbiter's extra pipeline-entry latency and
        the DRAM latency on a miss, but not MSHR-availability stalls: the
        core timing model accounts for those because they depend on the
        set of misses already outstanding.
        """
        hit, latency, set_index, bank, writeback, evicted_owner = self.access_parts(
            physical_address, is_write=is_write, core=core, owner=owner
        )
        return LlcAccessOutcome(
            hit=hit,
            latency=latency,
            set_index=set_index,
            bank=bank,
            writeback=writeback,
            evicted_owner=evicted_owner,
        )

    def lookup(self, physical_address: int) -> bool:
        """Probe the tag array without modifying state (attack models)."""
        return self._cache.lookup(physical_address)

    def scrub_region_sets(self, region: int) -> int:
        """Invalidate every line whose address belongs to ``region``.

        Section 6.1: L2 sets only need scrubbing when physical memory is
        re-allocated to a new protection domain; the security monitor
        calls this before handing a DRAM region to a new owner.  Returns
        the number of lines invalidated.

        Tags are line addresses and regions are contiguous, so the
        region's lines are exactly the tags in one half-open range (a
        line belongs to the region holding its first byte).
        """
        offset_bits = self.config.geometry.offset_bits
        region_bytes = self.address_map.region_bytes
        # Ceiling shifts: the first line address at or past each bound.
        low_tag = -(-(region * region_bytes) >> offset_bits)
        high_tag = -(-((region + 1) * region_bytes) >> offset_bits)
        scrubbed = self._cache.invalidate_tag_range(low_tag, high_tag)
        self._stats.counter("llc.region_scrub_lines").increment(scrubbed)
        return scrubbed

    @property
    def miss_count(self) -> int:
        """Total misses recorded so far."""
        return self._cache.miss_count

    @property
    def access_count(self) -> int:
        """Total accesses recorded so far."""
        return self._cache.access_count
