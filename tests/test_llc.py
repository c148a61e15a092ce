"""Tests for the functional LLC model and the detailed (Figure 2/3) LLC."""

import random
from itertools import combinations

import pytest
from helpers import cache_lines, holds

from repro.attacks.coschedule import CoScheduledExecutor, MemOp
from repro.attacks.placement import ATTACKER_CORE, ATTACKER_REGIONS, VICTIM_CORE, VICTIM_REGIONS
from repro.attacks.scenarios import build_scenario_machine, victim_timing_difference
from repro.common.errors import ConfigurationError
from repro.common.fastpath import SLOW_PATH_ENV_VAR
from repro.common.stats import StatsRegistry
from repro.core.mitigations import config_for_spec
from repro.mem.address import AddressMap, IndexFunction
from repro.mem.dram import DramController
from repro.mem.llc import LastLevelCache, LlcConfig
from repro.mem.llc_detail import DetailedLlcConfig
from repro.mem.mshr import MshrConfig


def build_llc(stats=None, **overrides):
    config = LlcConfig(**overrides)
    return LastLevelCache(config, AddressMap(), DramController(), stats=stats)


class TestFunctionalLlc:
    def test_hit_and_miss_latency(self):
        llc = build_llc(hit_latency=16)
        miss = llc.access_parts(0x1000)
        hit = llc.access_parts(0x1000)
        assert miss[:2] == (False, 16 + 120)
        assert hit[:2] == (True, 16)

    def test_arbiter_latency_added_to_every_access(self):
        llc = build_llc(extra_pipeline_latency=8)
        miss = llc.access_parts(0x2000)
        hit = llc.access_parts(0x2000)
        assert miss[1] == 16 + 8 + 120
        assert hit[1] == 16 + 8

    def test_partitioned_index_groups_by_region(self):
        llc = build_llc(index_function=IndexFunction.SET_PARTITIONED, region_index_bits=2)
        address_map = AddressMap()
        low_bits = llc.config.geometry.index_bits - 2
        assert llc.set_index(address_map.region_base(1)) >> low_bits == 1

    def test_scrub_region_sets_removes_only_that_region(self):
        llc = build_llc()
        address_map = AddressMap()
        region1_address = address_map.region_base(1)
        region2_address = address_map.region_base(2)
        llc.access_parts(region1_address)
        llc.access_parts(region2_address)
        scrubbed = llc.scrub_region_sets(1)
        assert scrubbed == 1
        assert not holds(llc.cache, region1_address)
        assert holds(llc.cache, region2_address)

    def test_writeback_detected_on_dirty_eviction(self):
        stats = StatsRegistry()
        llc = build_llc(stats)
        # Fill one set completely with dirty lines, then overflow it.
        base = 0
        for way in range(llc.config.geometry.ways):
            llc.access_parts(base + way * llc.config.geometry.num_sets * 64, is_write=True)
        assert "llc.replacement_writeback" not in stats.registered()
        assert not llc.access_parts(base + 16 * llc.config.geometry.num_sets * 64)[0]
        assert stats.value("llc.replacement_writeback") == 1
        assert stats.value("llc.writeback") == 1


#: Regions filled before a scrub.  1, 5 and 9 share their low two bits,
#: so under set partitioning they share the same quarter of the sets
#: (the scrubbed region's sets also hold other regions' lines); 2 lives
#: in another quarter.
FILL_REGIONS = (1, 5, 9, 2)
SCRUBBED_REGION = 5
#: Sets per region that the fill concentrates on, so that they overflow.
FILL_SETS = 6


def _region_lines(llc, region, set_index, count, exclude=()):
    """The first ``count`` line addresses of ``region`` in ``set_index``."""
    base = AddressMap().region_base(region)
    found = []
    line = 0
    while len(found) < count:
        address = base + line * 64
        if llc.set_index(address) == set_index and address not in exclude:
            found.append(address)
        line += 1
    return found


def _scrub_snapshot(index_function, monkeypatch, *, slow):
    """Fill, scrub one region, overflow a partly scrubbed set; record all."""
    if slow:
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
    else:
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
    try:
        stats = StatsRegistry()
        llc = build_llc(stats, index_function=index_function, region_index_bits=2)
    finally:
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
    cache = llc.cache
    num_sets = llc.config.geometry.num_sets
    address_map = AddressMap()
    rng = random.Random(2019)
    pool = []
    for region in FILL_REGIONS:
        first_set = llc.set_index(address_map.region_base(region))
        for set_index in range(first_set, first_set + FILL_SETS):
            pool.extend(_region_lines(llc, region, set_index, 10))
    # Draws repeat addresses, so the fill mixes hits (LRU reorders),
    # misses and evictions, with some lines dirty.
    for _ in range(1_500):
        address = rng.choice(pool)
        llc.access_parts(address, is_write=rng.random() < 0.3)
    # A line on each side of both region bounds, so that an off-by-one
    # tag range shows.
    low = address_map.region_base(SCRUBBED_REGION)
    high = low + address_map.region_bytes
    for address in (low - 64, low, high - 64, high):
        llc.access_parts(address)
    before = cache_lines(cache)
    scrubbed = llc.scrub_region_sets(SCRUBBED_REGION)
    after = cache_lines(cache)
    recency = [cache._policy.recency_order(set_index) for set_index in range(num_sets)]

    def in_scrubbed_region(line):
        return line.valid and address_map.region_of(line.tag << 6) == SCRUBBED_REGION

    partly_scrubbed = [
        set_index
        for set_index in range(num_sets)
        if any(in_scrubbed_region(line) for line in before[set_index])
        and any(line.valid for line in after[set_index])
    ]
    target = partly_scrubbed[0]
    resident = {line.tag << 6 for line in after[target] if line.valid}
    overflow = _region_lines(llc, SCRUBBED_REGION, target, cache.geometry.ways + 4, resident)
    # Each overflow access and the set it leaves: which way it filled
    # and which line it evicted.
    victims = []
    for address in overflow:
        victims.append((cache.access_parts(address), cache_lines(cache)[target]))
    return {
        "before": before,
        "scrubbed": scrubbed,
        "counter": stats.value("llc.region_scrub_lines"),
        "after": after,
        "recency": recency,
        "partly_scrubbed": partly_scrubbed,
        "victims": victims,
    }


class TestRegionScrubEquivalence:
    """The slab scrub lane equals the reference walk, LRU state included."""

    @pytest.mark.parametrize(
        "index_function", [IndexFunction.BASELINE, IndexFunction.SET_PARTITIONED]
    )
    def test_fast_scrub_equals_reference(self, index_function, monkeypatch):
        fast = _scrub_snapshot(index_function, monkeypatch, slow=False)
        slow = _scrub_snapshot(index_function, monkeypatch, slow=True)
        assert fast["scrubbed"] > 0 and fast["partly_scrubbed"]
        assert fast["scrubbed"] == slow["scrubbed"]
        assert fast["counter"] == slow["counter"] == fast["scrubbed"]
        assert fast["before"] == slow["before"]
        assert fast["after"] == slow["after"]
        assert fast["recency"] == slow["recency"]
        assert fast["partly_scrubbed"] == slow["partly_scrubbed"]
        assert fast["victims"] == slow["victims"]

    @pytest.mark.parametrize(
        "index_function", [IndexFunction.BASELINE, IndexFunction.SET_PARTITIONED]
    )
    def test_scrub_removes_exactly_the_region(self, index_function, monkeypatch):
        snapshot = _scrub_snapshot(index_function, monkeypatch, slow=False)
        address_map = AddressMap()
        removed = 0
        for before, after in zip(snapshot["before"], snapshot["after"]):
            for old, new in zip(before, after):
                if old.valid and address_map.region_of(old.tag << 6) == SCRUBBED_REGION:
                    assert not new.valid
                    removed += 1
                else:
                    assert new == old
        assert removed == snapshot["scrubbed"]


#: Every point of the 2^5 mitigation lattice, as its members.
LATTICE_POINTS = [
    members
    for count in range(6)
    for members in combinations(("FLUSH", "PART", "MISS", "ARB", "NONSPEC"), count)
]


class TestDetailedLlcTimingIndependence:
    """Section 5.4 on the co-scheduled executor, the detailed LLC's one driver.

    The victim streams 24 L1-bypassing loads over its own region, 30
    cycles apart; the attacker floods the LLC beside it with stores to
    its own region, 2 cycles apart and 7 lines apart (seed 2019), the
    streams :func:`victim_timing_difference` runs.
    """

    @staticmethod
    def contended_phase(spec, num_cores=2, attacker_stores=250):
        machine = build_scenario_machine(config_for_spec(spec), seed=2019, num_cores=num_cores)
        region_base = machine.address_map.region_base
        victim_base = region_base(min(VICTIM_REGIONS))
        attacker_base = region_base(min(ATTACKER_REGIONS))
        executor = CoScheduledExecutor(machine)
        results = executor.run_phase(
            {
                VICTIM_CORE: [
                    MemOp(victim_base + index * 64, issue_gap=30, l1_bypass=True)
                    for index in range(24)
                ],
                ATTACKER_CORE: [
                    MemOp(attacker_base + index * 7 * 64, is_write=True, issue_gap=2, l1_bypass=True)
                    for index in range(attacker_stores)
                ],
            }
        )
        return machine.stats.counters(), executor.completed, executor.cycle, results

    @pytest.mark.parametrize("members", LATTICE_POINTS, ids=lambda members: "+".join(members) or "BASE")
    def test_victim_timing_is_independent_iff_miss_and_arb(self, members):
        # MISS and ARB together build the Figure 3 organisation; anything
        # less leaves the attacker's flood visible in the victim's timing.
        difference = victim_timing_difference(config_for_spec("+".join(members) or "BASE"))
        assert (difference == 0) == ({"MISS", "ARB"} <= set(members))

    def test_all_requests_complete(self):
        *_, results = self.contended_phase("F+P+M+A", attacker_stores=100)
        assert len(results[VICTIM_CORE]) == 24
        assert len(results[ATTACKER_CORE]) == 100

    def test_mshr_sizing_rule_enforced_for_secure_config(self):
        with pytest.raises(ConfigurationError):
            DetailedLlcConfig(secure=True, mshrs_per_core=16, dram_max_outstanding=24)

    @pytest.mark.parametrize(
        ("spec", "num_cores", "stall_cycles"),
        [("BASE", 2, 783), ("F+P+M+A", 2, 3848), ("F+P+M+A", 3, 2411)],
        ids=["baseline", "secure", "secure-3-cores"],
    )
    def test_mshr_stalls_skipped_in_closed_form_match_stepping(
        self, spec, num_cores, stall_cycles, monkeypatch
    ):
        # Parked upgrade queues are not events on the fast path: the
        # executor jumps over them and the detailed LLC charges their
        # stall cycles in closed form.  Every counter, completion record
        # and the final cycle must still equal the per-cycle loop's.
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast = self.contended_phase(spec, num_cores)
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow = self.contended_phase(spec, num_cores)
        assert fast[0]["llc_detail.mshr_stall_cycles"] == stall_cycles
        assert fast[:3] == slow[:3]


class TestLlcMshrInteraction:
    def test_banked_mshr_config_accepted(self):
        llc = build_llc(mshr=MshrConfig(total_entries=12, banks=4, stall_whole_file_on_full_bank=True))
        assert llc.config.mshr.entries_per_bank == 3
