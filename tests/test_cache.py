"""Tests for the set-associative cache and replacement policies."""

import gc
import random

import pytest
from helpers import cache_lines, holds, valid_lines
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
from repro.mem.replacement import LruPolicy, PseudoRandomPolicy
from repro.service.simulation import _TenantMachine


def small_cache(policy=None, ways=4, sets=8, stats=None):
    geometry = CacheGeometry(size_bytes=ways * sets * 64, ways=ways, line_bytes=64)
    policy = policy or LruPolicy(geometry.num_sets, geometry.ways)
    return SetAssociativeCache("test", geometry, policy, stats=stats)


class TestSetAssociativeCache:
    """``access_parts`` returns ``(hit, set, evicted dirty)``."""

    def test_miss_then_hit(self, kernel):
        stats = StatsRegistry()
        cache = small_cache(stats=stats)
        assert cache.access_parts(0x1000)[0] is False
        assert cache.access_parts(0x1000)[0] is True
        assert stats.value("test.miss") == 1
        assert stats.value("test.hit") == 1

    def test_eviction_of_a_clean_victim(self, kernel):
        stats = StatsRegistry()
        cache = small_cache(ways=2, sets=1, stats=stats)
        cache.access_parts(0 * 64)
        cache.access_parts(1 * 64)
        assert cache.access_parts(2 * 64) == (False, 0, False)
        assert stats.value("test.eviction") == 1
        assert not holds(cache, 0 * 64)
        assert "test.writeback" not in stats.registered()

    def test_dirty_eviction_flagged_as_writeback(self, kernel):
        cache = small_cache(ways=1, sets=1)
        cache.access_parts(0, is_write=True)
        assert cache.access_parts(64)[2] is True

    def test_flush_all_clears_every_line(self, kernel):
        cache = small_cache()
        for index in range(16):
            cache.access_parts(index * 64)
        flushed = cache.flush_all()
        assert flushed == 16
        assert valid_lines(cache) == 0
        assert not holds(cache, 0)

    @settings(max_examples=40, deadline=None)
    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=120))
    def test_capacity_never_exceeded(self, addresses):
        cache = small_cache(ways=4, sets=8)
        for address in addresses:
            cache.access_parts(address)
        assert valid_lines(cache) <= 32

    @settings(max_examples=40, deadline=None)
    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=60))
    def test_most_recent_access_always_resident(self, addresses):
        cache = small_cache(ways=4, sets=8)
        for address in addresses:
            cache.access_parts(address)
            assert holds(cache, address)


class TestReplacementPolicies:
    def test_lru_evicts_least_recent(self, kernel):
        policy = LruPolicy(num_sets=1, ways=2)
        cache = SetAssociativeCache("lru", CacheGeometry(2 * 64, 2, 64), policy)
        cache.access_parts(0 * 64)
        cache.access_parts(1 * 64)
        cache.access_parts(0 * 64)       # 1*64 is now least recently used
        cache.access_parts(2 * 64)       # evicts 1*64
        assert holds(cache, 0 * 64)
        assert not holds(cache, 1 * 64)

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


def l1_like_cache(stats=None):
    """Pseudo-random replacement, as RiscyOO's L1s: 4 ways x 8 sets."""
    geometry = CacheGeometry(size_bytes=4 * 8 * 64, ways=4, line_bytes=64)
    return SetAssociativeCache("l1t", geometry, PseudoRandomPolicy(DeterministicRng(5)), stats=stats)


def fill_every_way(cache):
    """One write per line slot: no eviction, so no RNG draw."""
    addresses = [line * 64 for line in range(cache.geometry.num_sets * cache.geometry.ways)]
    for address in addresses:
        cache.access_parts(address, is_write=True)
    return addresses


def invalidate_every_line(cache):
    addresses = fill_every_way(cache)
    assert cache.invalidate_tag_range(0, len(addresses)) == len(addresses)


class TestFlushOfEmptyCache:
    """A flush that skips its rebuild must leave what a rebuild leaves."""

    @pytest.mark.parametrize(
        "prepare, flushed",
        [(lambda cache: None, 0), (invalidate_every_line, 0), (fill_every_way, 32)],
        ids=["fresh", "all-invalidated", "resident"],
    )
    def test_flush_leaves_a_fresh_cache(self, prepare, flushed, kernel):
        stats = StatsRegistry()
        cache, fresh = l1_like_cache(stats), l1_like_cache()
        assert cache._uses_slabs == (kernel == "fast")
        prepare(cache)
        assert cache.flush_all() == flushed
        assert cache.flush_all() == 0
        assert stats.value("l1t.flush_lines") == flushed
        assert "l1t.flush_lines" in stats.registered()
        assert cache_lines(cache) == cache_lines(fresh)
        # Five lines into set 0: four fill the invalid ways in order, the
        # fifth draws its victim from the replacement RNG.
        for line in range(5):
            address = line * 8 * 64
            assert cache.access_parts(address) == fresh.access_parts(address)
        assert cache_lines(cache) == cache_lines(fresh)

    def test_region_scrub_of_an_empty_llc(self, kernel):
        stats = StatsRegistry()
        llc = LastLevelCache(
            LlcConfig(), AddressMap(), DramController(stats=stats), stats=stats
        )
        assert llc.scrub_region_sets(3) == 0
        assert "llc.region_scrub_lines" in stats.registered()

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
        contents = cache_lines(cache)
        assert contents == cache_lines(reference)
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
        for target in both:  # fills: sets 1 and 4
            target.access_parts(line_in_set(1, 0))
            target.access_parts(line_in_set(1, 1), is_write=True)
            assert not target.access_parts(line_in_set(4, 0))[0]
        self.check(cache, reference, {1, 4})
        for target in both:  # an eviction from the full set 1: its LRU line, tag 1
            assert target.access_parts(line_in_set(1, 2)) == (False, 1, False)
            assert not holds(target, line_in_set(1, 0))
        self.check(cache, reference, {1, 4})
        for target in both:  # set 4 empties and keeps its map; set 6 was never filled
            assert target.invalidate_tag_range(4, 5) == 1
            assert target.invalidate_tag_range(6, 7) == 0
        self.check(cache, reference, {1, 4})
        for target in both:  # a region scrub over tags 9..16: set 1's tag 9
            assert target.invalidate_tag_range(9, 17) == 1
        self.check(cache, reference, {1, 4})
        copy = small_cache(ways=2, sets=8)
        copy.load_warm_state(cache.capture_warm_state())
        self.check(copy, reference, {1})  # the emptied set 4 is back on the shared map
        for target in (cache, copy, reference):
            target.access_parts(line_in_set(4, 1))
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


class TestPerSetStateOffTheGc:
    def test_stacks_follow_a_list_reference(self):
        num_sets, ways = 4, 16
        policy, reference = LruPolicy(num_sets, ways), _ListLru(num_sets, ways)
        weights = {"touch": 45, "invalidate": 25, "victim": 25, "reset": 1}
        rng = random.Random(2019)
        for operation in rng.choices(list(weights), list(weights.values()), k=3000):
            set_index = rng.randrange(num_sets)
            if operation == "victim":
                valid = [rng.random() < 0.9 for _ in range(ways)]
                assert policy.victim(set_index, valid) == reference.victim(set_index, valid)
            elif operation == "reset":
                policy.reset()
                reference.reset()
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
        stacks = host.machine.llc.cache._policy._stacks
        assert len(stacks) == 1024
        assert not any(gc.is_tracked(stack) for stack in stacks)
