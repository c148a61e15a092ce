"""Tests for the functional LLC model and the detailed (Figure 2/3) LLC."""

import random

import pytest

from repro.common.fastpath import SLOW_PATH_ENV_VAR
from repro.common.rng import DeterministicRng
from repro.mem.address import AddressMap, IndexFunction
from repro.mem.dram import DramController
from repro.mem.llc import LastLevelCache, LlcConfig
from repro.mem.llc_detail import DetailedLlcConfig, LlcTrafficSimulator, request_latencies
from repro.mem.mshr import MshrConfig


def build_llc(**overrides):
    config = LlcConfig(**overrides)
    return LastLevelCache(config, AddressMap(), DramController(), rng=DeterministicRng(0))


class TestFunctionalLlc:
    def test_hit_and_miss_latency(self):
        llc = build_llc(hit_latency=16)
        miss = llc.access(0x1000)
        hit = llc.access(0x1000)
        assert miss.hit is False and miss.latency == 16 + 120
        assert hit.hit is True and hit.latency == 16

    def test_arbiter_latency_added_to_every_access(self):
        llc = build_llc(extra_pipeline_latency=8)
        miss = llc.access(0x2000)
        hit = llc.access(0x2000)
        assert miss.latency == 16 + 8 + 120
        assert hit.latency == 16 + 8

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
        llc.access(region1_address, owner=1)
        llc.access(region2_address, owner=2)
        scrubbed = llc.scrub_region_sets(1)
        assert scrubbed == 1
        assert not llc.lookup(region1_address)
        assert llc.lookup(region2_address)

    def test_writeback_detected_on_dirty_eviction(self):
        llc = build_llc()
        # Fill one set completely with dirty lines, then overflow it.
        base = 0
        for way in range(llc.config.geometry.ways):
            llc.access(base + way * llc.config.geometry.num_sets * 64, is_write=True)
        outcome = llc.access(base + 16 * llc.config.geometry.num_sets * 64)
        assert outcome.writeback is True


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
        llc = build_llc(index_function=index_function, region_index_bits=2)
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
        region = address_map.region_of(address)
        llc.access(address, is_write=rng.random() < 0.3, owner=region)
    # A line on each side of both region bounds, so that an off-by-one
    # tag range shows.
    low = address_map.region_base(SCRUBBED_REGION)
    high = low + address_map.region_bytes
    for address in (low - 64, low, high - 64, high):
        llc.access(address, owner=address_map.region_of(address))
    before = [cache.set_contents(set_index) for set_index in range(num_sets)]
    scrubbed = llc.scrub_region_sets(SCRUBBED_REGION)
    after = [cache.set_contents(set_index) for set_index in range(num_sets)]
    recency = [cache.policy.recency_order(set_index) for set_index in range(num_sets)]

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
    victims = []
    for address in overflow:
        result = cache.access(address, owner=SCRUBBED_REGION)
        victims.append(
            (result.way, result.evicted_tag, result.evicted_dirty, result.evicted_owner)
        )
    return {
        "before": before,
        "scrubbed": scrubbed,
        "counter": llc.stats.value("llc.region_scrub_lines"),
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


class TestDetailedLlcTimingIndependence:
    @staticmethod
    def victim_trace():
        return [(index * 30, 0x100 + index, False) for index in range(24)]

    @staticmethod
    def attacker_trace(requests=250):
        # Attacker lines live in a DRAM region of a different colour than
        # the victim's (the monitor guarantees this for distinct domains).
        return [(index * 2, 0x4000 + index * 7, True) for index in range(requests)]

    def run_pair(self, secure):
        config = DetailedLlcConfig(secure=secure)
        alone = LlcTrafficSimulator(config).run({0: self.victim_trace(), 1: []})
        contended = LlcTrafficSimulator(config).run(
            {0: self.victim_trace(), 1: self.attacker_trace()}
        )
        return request_latencies(alone, 0), request_latencies(contended, 0)

    def test_mi6_llc_is_timing_independent(self):
        alone, contended = self.run_pair(secure=True)
        assert alone and alone == contended

    def test_baseline_llc_leaks_timing(self):
        alone, contended = self.run_pair(secure=False)
        assert alone != contended

    def test_all_requests_complete(self):
        config = DetailedLlcConfig(secure=True)
        results = LlcTrafficSimulator(config).run(
            {0: self.victim_trace(), 1: self.attacker_trace(100)}
        )
        assert len(results[0]) == len(self.victim_trace())
        assert len(results[1]) == 100

    def test_mshr_sizing_rule_enforced_for_secure_config(self):
        import pytest
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            DetailedLlcConfig(secure=True, mshrs_per_core=16, dram_max_outstanding=24)

    def test_baseline_counts_mshr_stalls_under_load(self):
        config = DetailedLlcConfig(secure=False, total_mshrs=2, dram_latency=200)
        simulator = LlcTrafficSimulator(config)
        simulator.run({0: [(0, index * 11, False) for index in range(8)], 1: []})
        assert simulator.llc.stats.value("llc_detail.mshr_stall_cycles") > 0

    @pytest.mark.parametrize(
        "config",
        [
            DetailedLlcConfig(secure=False, total_mshrs=2, dram_latency=200),
            DetailedLlcConfig(secure=True, mshrs_per_core=1, dram_latency=200),
            DetailedLlcConfig(num_cores=3, secure=True, mshrs_per_core=2, dram_latency=150),
        ],
        ids=["baseline", "secure", "secure-3-cores"],
    )
    def test_mshr_stalls_skipped_in_closed_form_match_stepping(self, config, monkeypatch):
        # Parked upgrade queues are not events on the fast path: the
        # driver jumps over them and charges their stall cycles in
        # closed form.  Every counter and latency must still equal the
        # per-cycle loop's.
        traces = {
            core: [
                (core * 5 + index * 3, core * 0x1000 + index * 11, index % 2 == 0)
                for index in range(10)
            ]
            for core in range(config.num_cores)
        }

        def run():
            simulator = LlcTrafficSimulator(config)
            results = simulator.run(traces)
            latencies = {core: request_latencies(results, core) for core in traces}
            return simulator.llc.stats.counters(), latencies, simulator.llc.cycle

        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast = run()
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow = run()
        assert fast[0]["llc_detail.mshr_stall_cycles"] > 0
        assert all(len(latencies) == 10 for latencies in fast[1].values())
        assert fast == slow


class TestLlcMshrInteraction:
    def test_banked_mshr_config_accepted(self):
        llc = build_llc(mshr=MshrConfig(total_entries=12, banks=4, stall_whole_file_on_full_bank=True))
        assert llc.mshrs.config.entries_per_bank == 3
