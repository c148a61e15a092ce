"""Generic set-associative cache model.

The same structural model backs the L1 instruction/data caches and the
tag array of the shared LLC.  It tracks a tag and a dirty bit per line;
like MI6's hardware, it labels no line with a protection domain.

This module sits on the simulator's hottest path (every instruction fetch
and data access lands here), so the access machinery avoids per-access
allocations: counter handles are cached after first use (registration
stays lazy, so the set of counters a run reports is unchanged), the
index/tag decomposition is a precomputed shift-and-mask whenever the
default index function is in use (the L1s, and the LLC under the
baseline index function), and :meth:`SetAssociativeCache.access_parts`
returns a plain tuple.

Two storage layouts back the same entry points (``access_parts``,
``invalidate_tag_range`` and ``flush_all``):

* the reference layout — one :class:`CacheLine` object per line — is
  used when ``REPRO_SLOW_PATH=1`` selects the reference kernel;
* the default fast path stores the tag array as flat parallel slabs
  (``tags`` / ``dirty`` lists indexed ``set * ways + way``)
  plus a per-set ``{tag: way}`` map and a per-set valid count, so a hit
  is one dict probe instead of a way scan and victim selection never
  builds a per-access ``valid`` list: a set with a free way fills the
  first one, found with ``list.index`` over the set's tag slots, and a
  full set takes the policy's victim.  A set that has never been filled
  (since construction or the last flush) points at one shared, never
  written empty map, and gets a dict of its own on its first fill, so
  building or flushing a 1,024-set LLC allocates one list, not 1,024
  dicts.  A region scrub skips unfilled sets; warm-state capture and
  load keep the shared map for empty sets.
  Replacement decisions consume the
  policy objects' own state (the LRU recency stacks, the pseudo-random
  RNG draw sequence) so every policy-visible effect — including which
  RNG values are drawn and when — is bit-identical to the reference
  layout.  The equivalence suite (``tests/test_fastpath.py``) enforces
  this across the mitigation lattice.

The memory hierarchy's warm-up lanes
(:meth:`repro.mem.hierarchy.MemoryHierarchy.prime_data_timing` and
``prime_fetch_timing``) apply the slab lookup, fill and LRU update of
:meth:`SetAssociativeCache.access_parts` to the L1 and LLC slabs in
place; ``tests/test_warmup_lanes.py`` checks that they leave the slabs
as these methods do.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Dict, List, Optional, Union

from repro.common.fastpath import slow_path_enabled
from repro.common.stats import StatsRegistry
from repro.mem.address import CacheGeometry
from repro.mem.replacement import (
    LruPolicy,
    PseudoRandomPolicy,
    ReplacementPolicy,
)


#: Tag map of every slab set without a dict of its own; never written.
_NO_TAGS: Dict[int, int] = {}


@dataclass(slots=True)
class CacheLine:
    """One cache line's bookkeeping state."""

    valid: bool = False
    tag: int = 0
    dirty: bool = False


class SetAssociativeCache:
    """A set-associative cache with pluggable indexing and replacement.

    Args:
        name: Statistics prefix (e.g. ``"l1d"``).
        geometry: Cache geometry.
        policy: Replacement policy instance (owned by this cache).
        index_for: Maps a physical address to a set index.  Defaults to the
            low-order line-address bits; the LLC passes the MI6
            set-partitioned index function here.  The stored tag is the
            full line address, so lines are unambiguous regardless of the
            index function.
        stats: Statistics registry to record hits/misses/evictions into.

    The storage layout is chosen by class before ``__init__`` runs: in the
    fast kernel a cache whose policy is one of the in-tree ones is built
    as a :class:`_SlabCache`, whose public entry points are the slab
    lanes as class attributes.  Binding them on the instance instead
    would make every cache a reference cycle (and every machine cyclic
    garbage); assigning ``__class__`` after construction would cost
    instance attribute loads their fast path.
    """

    #: True on the slab-backed layout (:class:`_SlabCache`).
    _uses_slabs = False

    def __new__(
        cls,
        name: str,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        index_for: Optional[Callable[[int], int]] = None,
        stats: Optional[StatsRegistry] = None,
    ) -> SetAssociativeCache:
        # The slab layout requires a policy whose victim/touch behaviour
        # is known (the in-tree policies); anything else keeps the
        # reference layout so custom policies see exactly the reference
        # call pattern.
        policy_type = type(policy)
        if (
            cls is SetAssociativeCache
            and not slow_path_enabled()
            and (policy_type is PseudoRandomPolicy or policy_type is LruPolicy)
        ):
            cls = _SlabCache
        return super().__new__(cls)

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        index_for: Optional[Callable[[int], int]] = None,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.name = name
        self.geometry = geometry
        self._policy = policy
        offset_bits = geometry.offset_bits
        set_mask = geometry.num_sets - 1
        self._index_for = index_for or (
            lambda physical_address: (physical_address >> offset_bits) & set_mask
        )
        self._offset_bits = offset_bits
        self._stats = stats or StatsRegistry()
        # Inline-computation handles for the hot slab path: when the
        # default index function is in use the slab access computes the
        # set with a mask instead of calling the lambda above.
        self._fast_offset_bits = offset_bits if index_for is None else None
        self._fast_set_mask = set_mask
        # A stateless pseudo-random policy's touch() is a no-op; skipping
        # the call entirely removes one method dispatch per access.
        self._touch = None if type(policy) is PseudoRandomPolicy else policy.touch
        self._victim = policy.victim
        # Counter handles, populated on first use so the registered set of
        # counters matches the reference implementation exactly.
        self._c_access: Optional[object] = None
        self._c_hit: Optional[object] = None
        self._c_miss: Optional[object] = None
        self._c_eviction: Optional[object] = None
        self._c_writeback: Optional[object] = None
        self._c_flush_lines: Optional[object] = None

        # Storage layout: chosen by class in __new__.
        policy_type = type(policy)
        self._sets: Optional[List[List[CacheLine]]] = None
        self._slab_tags: List[Optional[int]] = []
        self._slab_dirty: List[bool] = []
        self._tag_maps: List[Dict[int, int]] = []
        self._valid_counts: List[int] = []
        self._ways = geometry.ways
        self._ways_bits = geometry.ways.bit_length()
        self._lru_stacks: Optional[List[Union[bytes, bytearray]]] = None
        self._randbelow: Optional[Callable[[int], int]] = None
        self._victim_getrandbits: Optional[Callable[[int], int]] = None
        if self._uses_slabs:
            total = geometry.num_sets * geometry.ways
            self._slab_tags = [None] * total
            self._slab_dirty = [False] * total
            self._tag_maps = [_NO_TAGS] * geometry.num_sets
            self._valid_counts = [0] * geometry.num_sets
            if policy_type is PseudoRandomPolicy:
                # randint(0, ways-1) resolves to _randbelow(ways); binding
                # the underlying generator keeps the draw sequence
                # bit-identical while skipping the randint/randrange
                # argument checks on every full-set eviction.
                # repro: allow[determinism]: sanctioned RNG-internals tap — draw-for-draw
                # identical to the policy's own randint sequence (tests/test_fastpath.py).
                self._randbelow = getattr(policy._rng._random, "_randbelow", None)
                if self._randbelow is not None:
                    # CPython's _randbelow draws getrandbits(k) until the
                    # value falls below the bound; inlining that loop with
                    # the bound's bit length precomputed keeps the draw
                    # sequence identical at one call less per eviction.
                    # repro: allow[determinism]: same sanctioned tap as above.
                    self._victim_getrandbits = policy._rng._random.getrandbits
            else:
                # LruPolicy.reset() refills this container in place, so
                # the binding survives purges.
                self._lru_stacks = policy._stacks
        else:
            self._sets = [
                [CacheLine() for _ in range(geometry.ways)]
                for _ in range(geometry.num_sets)
            ]

    def access_parts(self, physical_address: int, is_write: bool = False) -> tuple:
        """Perform an access, allocating on a miss; return plain values.

        Returns ``(hit, set_index, evicted_dirty)``: the LLC reads the
        set for its MSHR bank and the victim's dirty bit for its
        writeback count.  This is the entry point of the LLC and the
        memory hierarchy.
        """
        set_index = self._index_for(physical_address)
        tag = physical_address >> self._offset_bits
        lines = self._sets[set_index]
        counter = self._c_access
        if counter is None:
            counter = self._c_access = self._stats.counter(f"{self.name}.access")
        counter.value += 1

        for way, line in enumerate(lines):
            if line.valid and line.tag == tag:
                counter = self._c_hit
                if counter is None:
                    counter = self._c_hit = self._stats.counter(f"{self.name}.hit")
                counter.value += 1
                if self._touch is not None:
                    self._touch(set_index, way)
                if is_write:
                    line.dirty = True
                return (True, set_index, False)

        counter = self._c_miss
        if counter is None:
            counter = self._c_miss = self._stats.counter(f"{self.name}.miss")
        counter.value += 1

        victim_way = self._victim(set_index, [line.valid for line in lines])
        victim = lines[victim_way]
        evicted_dirty = False
        if victim.valid:
            evicted_dirty = victim.dirty
            counter = self._c_eviction
            if counter is None:
                counter = self._c_eviction = self._stats.counter(f"{self.name}.eviction")
            counter.value += 1
            if evicted_dirty:
                counter = self._c_writeback
                if counter is None:
                    counter = self._c_writeback = self._stats.counter(f"{self.name}.writeback")
                counter.value += 1

        lines[victim_way] = CacheLine(valid=True, tag=tag, dirty=is_write)
        if self._touch is not None:
            self._touch(set_index, victim_way)
        return (False, set_index, evicted_dirty)

    # ------------------------------------------------------------------
    # Slab (flat-array) fast path.  Same observable behaviour as the
    # reference methods above: identical counters, identical policy-state
    # transitions, identical RNG draw sequence.  They are the public
    # entry points of :class:`_SlabCache` (fast kernel only).

    def _access_parts_slab(self, physical_address: int, is_write: bool = False) -> tuple:
        fast_offset_bits = self._fast_offset_bits
        if fast_offset_bits is not None:
            tag = physical_address >> fast_offset_bits
            set_index = tag & self._fast_set_mask
        else:
            set_index = self._index_for(physical_address)
            tag = physical_address >> self._offset_bits
        counter = self._c_access
        if counter is None:
            counter = self._c_access = self._stats.counter(f"{self.name}.access")
        counter.value += 1

        ways = self._ways
        tag_map = self._tag_maps[set_index]
        way = tag_map.get(tag)
        if way is not None:
            counter = self._c_hit
            if counter is None:
                counter = self._c_hit = self._stats.counter(f"{self.name}.hit")
            counter.value += 1
            stacks = self._lru_stacks
            if stacks is not None:
                stack = stacks[set_index]
                if stack[0] != way:
                    if not isinstance(stack, bytearray):
                        stack = stacks[set_index] = bytearray(stack)
                    stack.remove(way)
                    stack.insert(0, way)
            if is_write:
                self._slab_dirty[set_index * ways + way] = True
            return (True, set_index, False)

        counter = self._c_miss
        if counter is None:
            counter = self._c_miss = self._stats.counter(f"{self.name}.miss")
        counter.value += 1

        tags = self._slab_tags
        base = set_index * ways
        valid_count = self._valid_counts[set_index]
        evicted_dirty = False
        if valid_count < ways:
            if not valid_count and tag_map is _NO_TAGS:
                tag_map = self._tag_maps[set_index] = {}
            # Both in-tree policies fill the first invalid way.
            slot = tags.index(None, base, base + ways)
            victim_way = slot - base
            self._valid_counts[set_index] = valid_count + 1
        else:
            stacks = self._lru_stacks
            if stacks is not None:
                victim_way = stacks[set_index][-1]
            elif self._randbelow is not None:
                getrandbits = self._victim_getrandbits
                ways_bits = self._ways_bits
                victim_way = getrandbits(ways_bits)
                while victim_way >= ways:
                    victim_way = getrandbits(ways_bits)
            else:
                victim_way = self._policy.victim(set_index, [True] * ways)
            slot = base + victim_way
            evicted_dirty = self._slab_dirty[slot]
            del tag_map[tags[slot]]
            counter = self._c_eviction
            if counter is None:
                counter = self._c_eviction = self._stats.counter(f"{self.name}.eviction")
            counter.value += 1
            if evicted_dirty:
                counter = self._c_writeback
                if counter is None:
                    counter = self._c_writeback = self._stats.counter(
                        f"{self.name}.writeback"
                    )
                counter.value += 1

        tags[slot] = tag
        self._slab_dirty[slot] = is_write
        tag_map[tag] = victim_way
        stacks = self._lru_stacks
        if stacks is not None:
            stack = stacks[set_index]
            if stack[0] != victim_way:
                if not isinstance(stack, bytearray):
                    stack = stacks[set_index] = bytearray(stack)
                stack.remove(victim_way)
                stack.insert(0, victim_way)
        return (False, set_index, evicted_dirty)

    def _invalidate_tag_range_slab(self, low_tag: int, high_tag: int) -> int:
        """Slab twin of :meth:`invalidate_tag_range`.

        Only the sets with a non-zero valid count are visited (through
        :func:`itertools.compress`), so the cost follows the resident
        lines rather than the geometry; they are scanned in the
        reference order with the same policy calls.  A cache holding no
        line returns at once.
        """
        valid_counts = self._valid_counts
        if not any(valid_counts):
            return 0
        ways = self._ways
        tags = self._slab_tags
        dirty = self._slab_dirty
        tag_maps = self._tag_maps
        invalidate = self._policy.invalidate
        invalidated = 0
        for set_index in compress(range(len(valid_counts)), valid_counts):
            count = remaining = valid_counts[set_index]
            base = set_index * ways
            for way in range(ways):
                slot = base + way
                tag = tags[slot]
                if tag is None or not low_tag <= tag < high_tag:
                    continue
                del tag_maps[set_index][tag]
                tags[slot] = None
                dirty[slot] = False
                remaining -= 1
                invalidate(set_index, way)
            if remaining != count:
                valid_counts[set_index] = remaining
                invalidated += count - remaining
        return invalidated

    def _flush_all_slab(self) -> int:
        """Slab twin of :meth:`flush_all`.

        The purge stall (one cycle per line slot, 512 for an L1) does
        not depend on what the cache holds; only this host work does.
        A cache holding no line is left as it is: every invalidation
        restores its slot's dirty bit, so it already equals a fresh
        cache.
        """
        flushed = sum(self._valid_counts)
        if flushed:
            total = len(self._slab_tags)
            self._slab_tags = [None] * total
            self._slab_dirty = [False] * total
            self._tag_maps = [_NO_TAGS] * self.geometry.num_sets
            self._valid_counts = [0] * self.geometry.num_sets
        self._policy.reset()
        counter = self._c_flush_lines
        if counter is None:
            counter = self._c_flush_lines = self._stats.counter(f"{self.name}.flush_lines")
        counter.value += flushed
        return flushed

    # ------------------------------------------------------------------

    def invalidate_tag_range(self, low_tag: int, high_tag: int) -> int:
        """Invalidate every line whose tag lies in ``[low_tag, high_tag)``.

        Lines are visited set by set and way by way, ascending, and each
        one's way is reported to the replacement policy as it goes, so
        the replacement state afterwards is that of a line-by-line scrub.
        Returns the number of lines invalidated.
        """
        invalidated = 0
        for set_index, lines in enumerate(self._sets):
            for way, line in enumerate(lines):
                if line.valid and low_tag <= line.tag < high_tag:
                    lines[way] = CacheLine()
                    self._policy.invalidate(set_index, way)
                    invalidated += 1
        return invalidated

    def flush_all(self) -> int:
        """Invalidate every line; returns the number of valid lines flushed.

        This is the structural effect of the purge instruction on a
        core-private cache.  The cost model (cycles of stall) lives in
        :mod:`repro.core.purge`; this method only scrubs the state.
        """
        flushed = 0
        for lines in self._sets:
            for way, line in enumerate(lines):
                if line.valid:
                    flushed += 1
                lines[way] = CacheLine()
        self._policy.reset()
        self._stats.counter(f"{self.name}.flush_lines").increment(flushed)
        return flushed


class _SlabCache(SetAssociativeCache):
    """The slab layout: the ``*_slab`` lanes as public entry points.

    Built by :meth:`SetAssociativeCache.__new__` in the fast kernel.  The
    warm-state pair below copies the whole slab and replacement state
    out of one cache and into another of the same geometry and policy,
    which is how machines of one warm class share a single warm-up.
    """

    _uses_slabs = True

    access_parts = SetAssociativeCache._access_parts_slab  # type: ignore[assignment]
    invalidate_tag_range = SetAssociativeCache._invalidate_tag_range_slab  # type: ignore[assignment]
    flush_all = SetAssociativeCache._flush_all_slab  # type: ignore[assignment]

    def capture_warm_state(self) -> tuple:
        """Copy of the tag slabs, LRU stacks (as bytes) and replacement-RNG position."""
        policy = self._policy
        return (
            list(self._slab_tags),
            list(self._slab_dirty),
            [dict(tag_map) if tag_map else _NO_TAGS for tag_map in self._tag_maps],
            list(self._valid_counts),
            None if self._lru_stacks is None else list(map(bytes, self._lru_stacks)),
            policy._rng.getstate() if isinstance(policy, PseudoRandomPolicy) else None,
        )

    def load_warm_state(self, state: tuple) -> None:
        """Become a copy of the cache :meth:`capture_warm_state` read.

        Counters and their cached handles are left alone: they belong to
        this cache's own registry.
        """
        tags, dirty, tag_maps, valid_counts, stacks, rng_state = state
        self._slab_tags = list(tags)
        self._slab_dirty = list(dirty)
        self._tag_maps = [dict(tag_map) if tag_map else _NO_TAGS for tag_map in tag_maps]
        self._valid_counts = list(valid_counts)
        policy = self._policy
        if isinstance(policy, LruPolicy):
            # In place: the policy and this cache share the container.  A
            # stack in the initial order stays the policy's shared one.
            initial = policy._initial_stack
            policy._stacks[:] = [
                initial if stack == initial else bytearray(stack) for stack in stacks
            ]
        elif isinstance(policy, PseudoRandomPolicy):
            policy._rng.setstate(rng_state)
