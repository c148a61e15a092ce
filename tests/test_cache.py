"""Tests for the set-associative cache and replacement policies."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.common.fastpath import SLOW_PATH_ENV_VAR
from repro.common.rng import DeterministicRng
from repro.common.stats import StatsRegistry
from repro.core.mitigations import config_for_spec
from repro.mem.address import AddressMap, CacheGeometry
from repro.mem.cache import _NO_TAGS, SetAssociativeCache
from repro.mem.dram import DramController
from repro.mem.llc import LastLevelCache, LlcConfig
from repro.mem.replacement import LruPolicy, PseudoRandomPolicy, SelfCleaningLruPolicy
from repro.service.simulation import _TenantMachine


def small_cache(policy=None, ways=4, sets=8):
    geometry = CacheGeometry(size_bytes=ways * sets * 64, ways=ways, line_bytes=64)
    policy = policy or LruPolicy(geometry.num_sets, geometry.ways)
    return SetAssociativeCache("test", geometry, policy)


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(0x1000).hit is False
        assert cache.access(0x1000).hit is True
        assert cache.miss_count == 1
        assert cache.hit_count == 1

    def test_eviction_reports_victim(self):
        cache = small_cache(ways=2, sets=1)
        cache.access(0 * 64, owner=1)
        cache.access(1 * 64, owner=1)
        result = cache.access(2 * 64, owner=2)
        assert result.hit is False
        assert result.evicted_tag is not None
        assert result.evicted_owner == 1

    def test_dirty_eviction_flagged_as_writeback(self):
        cache = small_cache(ways=1, sets=1)
        cache.access(0, is_write=True)
        result = cache.access(64)
        assert result.evicted_dirty is True

    def test_flush_all_clears_every_line(self):
        cache = small_cache()
        for index in range(16):
            cache.access(index * 64)
        flushed = cache.flush_all()
        assert flushed == 16
        assert cache.valid_line_count() == 0
        assert not cache.lookup(0)

    def test_owner_occupancy_tracking(self):
        cache = small_cache()
        cache.access(0x0000, owner=1)
        cache.access(0x4000, owner=2)
        occupancy = cache.occupancy_by_owner()
        assert occupancy[1] == 1 and occupancy[2] == 1

    def test_lookup_does_not_allocate(self):
        cache = small_cache()
        assert cache.lookup(0x2000) is False
        assert cache.valid_line_count() == 0

    @settings(max_examples=40, deadline=None)
    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=120))
    def test_capacity_never_exceeded(self, addresses):
        cache = small_cache(ways=4, sets=8)
        for address in addresses:
            cache.access(address)
        assert cache.valid_line_count() <= 32

    @settings(max_examples=40, deadline=None)
    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=60))
    def test_most_recent_access_always_resident(self, addresses):
        cache = small_cache(ways=4, sets=8)
        for address in addresses:
            cache.access(address)
            assert cache.lookup(address)


class TestReplacementPolicies:
    def test_lru_evicts_least_recent(self):
        policy = LruPolicy(num_sets=1, ways=2)
        cache = SetAssociativeCache("lru", CacheGeometry(2 * 64, 2, 64), policy)
        cache.access(0 * 64)
        cache.access(1 * 64)
        cache.access(0 * 64)             # 1*64 is now least recently used
        cache.access(2 * 64)             # evicts 1*64
        assert cache.lookup(0 * 64)
        assert not cache.lookup(1 * 64)

    def test_pseudo_random_prefers_invalid_ways(self):
        policy = PseudoRandomPolicy(DeterministicRng(9))
        assert policy.victim(0, [True, False, True]) == 1

    def test_pseudo_random_is_stateless_across_reset(self):
        # No state to scrub: resetting one of two equal-seeded policies
        # between draws changes none of its victims.
        kept = PseudoRandomPolicy(DeterministicRng(9))
        scrubbed = PseudoRandomPolicy(DeterministicRng(9))
        full = [True] * 8
        for _ in range(16):
            scrubbed.reset()
            assert scrubbed.victim(0, full) == kept.victim(0, full)

    def test_self_cleaning_lru_restores_canonical_order(self):
        policy = SelfCleaningLruPolicy(num_sets=1, ways=4)
        policy.touch(0, 2)
        policy.touch(0, 3)
        policy.note_set_empty(0)
        assert policy.recency_order(0) == [0, 1, 2, 3]


def l1_like_cache():
    """Pseudo-random replacement, as RiscyOO's L1s: 4 ways x 8 sets."""
    geometry = CacheGeometry(size_bytes=4 * 8 * 64, ways=4, line_bytes=64)
    return SetAssociativeCache("l1t", geometry, PseudoRandomPolicy(DeterministicRng(5)))


def fill_every_way(cache, owner=None):
    """One write per line slot: no eviction, so no RNG draw."""
    addresses = [line * 64 for line in range(cache.geometry.num_sets * cache.geometry.ways)]
    for address in addresses:
        cache.access(address, is_write=True, owner=owner)
    return addresses


def invalidate_every_owned_line(cache):
    for address in fill_every_way(cache, owner=3):
        assert cache.invalidate_address(address)


class TestFlushOfEmptyCache:
    """A flush that skips its rebuild must leave what a rebuild leaves."""

    @pytest.mark.parametrize(
        "prepare, flushed",
        [(lambda cache: None, 0), (invalidate_every_owned_line, 0), (fill_every_way, 32)],
        ids=["fresh", "all-invalidated", "resident"],
    )
    def test_flush_leaves_a_fresh_cache(self, prepare, flushed, kernel):
        cache, fresh = l1_like_cache(), l1_like_cache()
        assert cache._uses_slabs == (kernel == "fast")
        prepare(cache)
        assert cache.flush_all() == flushed
        assert cache.flush_all() == 0
        assert cache.stats.value("l1t.flush_lines") == flushed
        assert "l1t.flush_lines" in cache.stats.registered()[0]
        sets = range(cache.geometry.num_sets)
        assert [cache.set_contents(i) for i in sets] == [fresh.set_contents(i) for i in sets]
        # Five lines into set 0: four fill the invalid ways in order, the
        # fifth draws its victim from the replacement RNG.
        for line in range(5):
            address = line * 8 * 64
            assert cache.access(address, owner=4) == fresh.access(address, owner=4)
        assert cache.set_contents(0) == fresh.set_contents(0)

    def test_region_scrub_of_an_empty_llc(self, kernel):
        stats = StatsRegistry()
        llc = LastLevelCache(
            LlcConfig(), AddressMap(), DramController(stats=stats), rng=DeterministicRng(0), stats=stats
        )
        assert llc.scrub_region_sets(3) == 0
        assert "llc.region_scrub_lines" in stats.registered()[0]

    def test_lru_stacks_start_and_reset_as_distinct_initial_orders(self):
        policy = LruPolicy(num_sets=16, ways=4)
        for _ in range(2):
            assert [policy.recency_order(i) for i in range(16)] == [[0, 1, 2, 3]] * 16
            assert all(
                stack is policy._initial_stack
                if type(stack) is bytes
                else sum(other is stack for other in policy._stacks) == 1
                for stack in policy._stacks
            )
            policy.touch(0, 3)
            assert policy.recency_order(0) == [3, 0, 1, 2]
            assert policy.recency_order(1) == [0, 1, 2, 3]
            policy.reset()


def line_in_set(set_index, way):
    """Address of the ``way``-th line that maps to ``set_index`` of an 8-set cache."""
    return (set_index + 8 * way) * 64


class TestTagMapsOnFirstFill:
    """Slab sets share one never-written empty tag map until their first fill."""

    @staticmethod
    def check(cache, reference, owning):
        """``owning`` sets have a map of their own; every map names its valid lines."""
        assert not _NO_TAGS
        maps = cache._tag_maps
        assert {index for index, tag_map in enumerate(maps) if tag_map is not _NO_TAGS} == owning
        sets = range(cache.geometry.num_sets)
        contents = [cache.set_contents(index) for index in sets]
        assert contents == [reference.set_contents(index) for index in sets]
        for tag_map, lines in zip(maps, contents):
            assert tag_map == {line.tag: way for way, line in enumerate(lines) if line.valid}

    def test_only_filled_sets_get_a_map(self, monkeypatch):
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        reference = small_cache(ways=2, sets=8)
        monkeypatch.delenv(SLOW_PATH_ENV_VAR)
        cache = small_cache(ways=2, sets=8)
        assert cache._uses_slabs and not reference._uses_slabs
        assert all(tag_map is _NO_TAGS for tag_map in cache._tag_maps)
        self.check(cache, reference, set())
        both = (cache, reference)
        for target in both:  # fills: set 1 through access, set 4 through access_parts
            target.access(line_in_set(1, 0), owner=1)
            target.access(line_in_set(1, 1), is_write=True, owner=1)
            assert not target.access_parts(line_in_set(4, 0), owner=2)[0]
        self.check(cache, reference, {1, 4})
        for target in both:  # an eviction from the full set 1
            assert target.access(line_in_set(1, 2), owner=3).evicted_tag == 1
        self.check(cache, reference, {1, 4})
        for target in both:  # set 4 empties and keeps its map; set 6 was never filled
            assert target.invalidate_address(line_in_set(4, 0))
            assert not target.invalidate_address(line_in_set(6, 0))
        self.check(cache, reference, {1, 4})
        for target in both:  # a region scrub over tags 9..16: set 1's tag 9
            assert target.invalidate_tag_range(9, 17) == 1
        self.check(cache, reference, {1, 4})
        copy = small_cache(ways=2, sets=8)
        copy.load_warm_state(cache.capture_warm_state())
        self.check(copy, reference, {1})  # the emptied set 4 is back on the shared map
        for target in (cache, copy, reference):
            target.access(line_in_set(4, 1), owner=5)
        self.check(cache, reference, {1, 4})
        self.check(copy, reference, {1, 4})
        for target in both:
            assert target.flush_all() == 2
        self.check(cache, reference, set())
        assert copy.flush_all() == 2
        self.check(copy, reference, set())


class _ListLru:
    """The list-based recency stacks the LRU policies kept before: the reference."""

    def __init__(self, num_sets, ways):
        self.ways = ways
        self.stacks = [list(range(ways)) for _ in range(num_sets)]

    def victim(self, set_index, valid):
        if not all(valid):
            return valid.index(False)
        return self.stacks[set_index][-1]

    def touch(self, set_index, way):
        self.stacks[set_index].remove(way)
        self.stacks[set_index].insert(0, way)

    def invalidate(self, set_index, way):
        self.stacks[set_index].remove(way)
        self.stacks[set_index].append(way)

    def reset(self):
        self.stacks = [list(range(self.ways)) for _ in self.stacks]

    def note_set_empty(self, set_index):
        self.stacks[set_index] = list(range(self.ways))


class TestPerSetStateOffTheGc:
    @pytest.mark.parametrize("policy_type", [LruPolicy, SelfCleaningLruPolicy])
    def test_stacks_follow_a_list_reference(self, policy_type):
        num_sets, ways = 4, 16
        policy, reference = policy_type(num_sets, ways), _ListLru(num_sets, ways)
        weights = {"touch": 45, "invalidate": 25, "victim": 25, "reset": 1}
        if policy_type is SelfCleaningLruPolicy:
            weights["note_set_empty"] = 4
        rng = random.Random(2019)
        for operation in rng.choices(list(weights), list(weights.values()), k=3000):
            set_index = rng.randrange(num_sets)
            if operation == "victim":
                valid = [rng.random() < 0.9 for _ in range(ways)]
                assert policy.victim(set_index, valid) == reference.victim(set_index, valid)
            elif operation == "reset":
                policy.reset()
                reference.reset()
            elif operation == "note_set_empty":
                policy.note_set_empty(set_index)
                reference.note_set_empty(set_index)
            else:
                way = rng.randrange(ways)
                getattr(policy, operation)(set_index, way)
                getattr(reference, operation)(set_index, way)
            assert [policy.recency_order(i) for i in range(num_sets)] == reference.stacks

    def test_more_ways_than_a_byte_can_name_are_rejected(self):
        assert LruPolicy(num_sets=1, ways=256).recency_order(0) == list(range(256))
        with pytest.raises(ConfigurationError):
            LruPolicy(num_sets=1, ways=257)

    def test_serving_machine_build_adds_few_tracked_objects(self, monkeypatch):
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        config = config_for_spec("F+P+M+A")
        _TenantMachine(config, 2, 4, 7)  # first-build caches out of the count
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            allocated = gc.get_count()[0]
            before = len(gc.get_objects())
            host = _TenantMachine(config, 2, 4, 7)
            allocated = gc.get_count()[0] - allocated
            added = len(gc.get_objects()) - before
        finally:
            if was_enabled:
                gc.enable()
        # A list per LLC recency stack and per L2 TLB set would add
        # 1,536 more (1,024 + 2 x 256).
        assert added < 400
        # Every object of a collectable type counts toward the young
        # generation's threshold, tracked or not: a tag-map dict per LLC
        # set would add 1,024.
        assert allocated < 400
        stacks = host.machine.llc.cache.policy._stacks
        assert len(stacks) == 1024
        assert not any(gc.is_tracked(stack) for stack in stacks)
