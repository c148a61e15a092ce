"""Tests for the address map, DRAM regions, and LLC index functions."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.attacks.addressing import (
    _addresses_for_set_fast,
    _addresses_for_set_reference,
    addresses_for_set,
    region_scan_limit,
)
from repro.common.errors import ConfigurationError
from repro.common.fastpath import SLOW_PATH_ENV_VAR
from repro.common.rng import DeterministicRng
from repro.mem.address import AddressMap, CacheGeometry, IndexFunction, LlcIndexer
from repro.mem.dram import DramController
from repro.mem.llc import LastLevelCache, LlcConfig


class TestCacheGeometry:
    def test_figure4_llc_geometry(self):
        geometry = CacheGeometry(size_bytes=1024 * 1024, ways=16, line_bytes=64)
        assert geometry.num_sets == 1024
        assert geometry.index_bits == 10
        assert geometry.offset_bits == 6

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(size_bytes=1000, ways=8)


class TestAddressMap:
    def test_paper_default_regions(self):
        address_map = AddressMap()
        assert address_map.num_regions == 64
        assert address_map.region_bytes == 32 * 1024 * 1024
        assert address_map.region_of(0) == 0
        assert address_map.region_of(address_map.dram_bytes - 1) == 63

    def test_region_base_round_trips(self):
        address_map = AddressMap()
        for region in (0, 1, 17, 63):
            assert address_map.region_of(address_map.region_base(region)) == region

    def test_out_of_range_address_rejected(self):
        address_map = AddressMap()
        with pytest.raises(ConfigurationError):
            address_map.region_of(address_map.dram_bytes)


class TestLlcIndexer:
    def setup_method(self):
        self.address_map = AddressMap()
        self.geometry = CacheGeometry(size_bytes=1024 * 1024, ways=16, line_bytes=64)

    def test_baseline_index_uses_low_bits(self):
        indexer = LlcIndexer(self.geometry, self.address_map, IndexFunction.BASELINE)
        assert indexer.set_index(0) == 0
        assert indexer.set_index(64) == 1
        assert indexer.set_index(64 * 1024) == 0  # wraps after 1024 sets

    def test_partitioned_index_uses_region_bits(self):
        indexer = LlcIndexer(
            self.geometry, self.address_map, IndexFunction.SET_PARTITIONED, region_index_bits=2
        )
        region0_address = 0
        region1_address = self.address_map.region_base(1)
        low_bits = self.geometry.index_bits - 2
        assert indexer.set_index(region0_address) >> low_bits == 0
        assert indexer.set_index(region1_address) >> low_bits == 1

    def test_full_region_bits_give_disjoint_sets(self):
        indexer = LlcIndexer(
            self.geometry, self.address_map, IndexFunction.SET_PARTITIONED, region_index_bits=6
        )
        sets_region_2 = {
            indexer.set_index(self.address_map.region_base(2) + offset * 64) for offset in range(64)
        }
        sets_region_3 = {
            indexer.set_index(self.address_map.region_base(3) + offset * 64) for offset in range(64)
        }
        assert not (sets_region_2 & sets_region_3)

    @settings(max_examples=60, deadline=None)
    @given(address=st.integers(min_value=0, max_value=2 * 1024 * 1024 * 1024 - 1))
    def test_index_always_in_range(self, address):
        for function in (IndexFunction.BASELINE, IndexFunction.SET_PARTITIONED):
            indexer = LlcIndexer(self.geometry, self.address_map, function, region_index_bits=2)
            assert 0 <= indexer.set_index(address) < self.geometry.num_sets

    @settings(max_examples=60, deadline=None)
    @given(
        address_a=st.integers(min_value=0, max_value=2**31 - 1),
        address_b=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_partitioned_index_separates_regions(self, address_a, address_b):
        """Addresses in different DRAM regions never share a set when the
        full region ID is folded into the index."""
        indexer = LlcIndexer(
            self.geometry, self.address_map, IndexFunction.SET_PARTITIONED, region_index_bits=6
        )
        region_a = self.address_map.region_of(address_a)
        region_b = self.address_map.region_of(address_b)
        if region_a % 16 != region_b % 16:
            assert indexer.set_index(address_a) != indexer.set_index(address_b)

    def test_line_period_is_where_the_line_bits_of_the_index_repeat(self):
        baseline = LlcIndexer(self.geometry, self.address_map, IndexFunction.BASELINE)
        assert baseline.line_period == self.geometry.num_sets
        for region_index_bits in (0, 2, 6, self.geometry.index_bits):
            indexer = LlcIndexer(
                self.geometry,
                self.address_map,
                IndexFunction.SET_PARTITIONED,
                region_index_bits=region_index_bits,
            )
            period = indexer.line_period
            assert period == 2 ** (self.geometry.index_bits - region_index_bits)
            base = self.address_map.region_base(5) + 3 * 64
            assert indexer.set_index(base + period * 64) == indexer.set_index(base)
            assert indexer.set_index(base) % period == (base // 64) % period


def build_llc(num_sets, index_function, region_index_bits, num_regions, dram_bytes=1 << 28):
    geometry = CacheGeometry(size_bytes=num_sets * 4 * 64, ways=4, line_bytes=64)
    config = LlcConfig(
        geometry=geometry, index_function=index_function, region_index_bits=region_index_bits
    )
    address_map = AddressMap(dram_bytes=dram_bytes, num_regions=num_regions)
    return LastLevelCache(config, address_map, DramController(), rng=DeterministicRng(0))


def record_set_index_calls(llc):
    """Make ``llc.set_index`` log each address it is asked about."""
    calls = []
    index = llc.set_index

    def recording_set_index(address):
        calls.append(address)
        return index(address)

    llc.set_index = recording_set_index
    return calls


def scan_outcome(scan, llc, base, target_set, count):
    try:
        return scan(llc, base, target_set, count)
    except ConfigurationError as error:
        return ("raised", str(error))


class TestStridedSetScan:
    """The strided ``addresses_for_set`` equals the line-by-line walk."""

    @settings(max_examples=60, deadline=None)
    @given(
        index_function=st.sampled_from(list(IndexFunction)),
        index_bits=st.sampled_from([6, 8, 10]),
        region_choice=st.sampled_from(["none", "two", "six", "all"]),
        num_regions=st.sampled_from([4, 64, 1024, 16384]),
        region_fraction=st.one_of(
            st.sampled_from([0.0, 1.0 - 1e-9]),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        ),
        base_offset=st.integers(min_value=0, max_value=(1 << 22) - 1),
        target_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        count=st.one_of(st.integers(min_value=0, max_value=40), st.just(10**6)),
    )
    # A partitioned scan from inside the last 16 KB region runs past DRAM
    # with no strided line there: the line scan raises, so must the stride.
    @example(
        index_function=IndexFunction.SET_PARTITIONED,
        index_bits=10,
        region_choice="two",
        num_regions=16384,
        region_fraction=1.0 - 1e-9,
        base_offset=1000,
        target_fraction=0.3,
        count=10**6,
    )
    def test_strided_scan_equals_line_scan(
        self,
        index_function,
        index_bits,
        region_choice,
        num_regions,
        region_fraction,
        base_offset,
        target_fraction,
        count,
    ):
        # Regions of 64 MB (past the 8 MB REGION_SCAN_BYTES cap) down to
        # 16 KB (inside one index period); bases anywhere in a region,
        # neither line- nor region-aligned, up to the top of DRAM (a
        # partitioned scan that leaves DRAM raises in both lanes).
        region_index_bits = {"none": 0, "two": 2, "six": 6, "all": index_bits}[region_choice]
        llc = build_llc(1 << index_bits, index_function, region_index_bits, num_regions)
        address_map = llc.address_map
        region = int(region_fraction * num_regions)
        base = address_map.region_base(region) + base_offset % address_map.region_bytes
        target_set = int(target_fraction * (1 << index_bits))
        expected = scan_outcome(_addresses_for_set_reference, llc, base, target_set, count)
        assert scan_outcome(_addresses_for_set_fast, llc, base, target_set, count) == expected

    def test_partitioned_foreign_set_visits_one_line_per_period(self):
        llc = build_llc(1024, IndexFunction.SET_PARTITIONED, 2, 4)
        period = llc.indexer.line_period
        base = llc.address_map.region_base(1)
        visited = record_set_index_calls(llc)
        # Region 1's sets carry region bits 01; set 0 (bits 00) is foreign.
        assert _addresses_for_set_fast(llc, base, 0, 4) == []
        scan_lines = (region_scan_limit(llc, base) - base) // 64
        assert len(visited) == scan_lines // period == 512
        assert all(llc.indexer.set_index(address) % period == 0 for address in visited)

    def test_dispatch_follows_the_slow_path_switch(self, monkeypatch):
        llc = build_llc(1024, IndexFunction.BASELINE, 2, 64)
        calls = record_set_index_calls(llc)
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow = addresses_for_set(llc, 0, 1000, 2)
        slow_calls = len(calls)
        monkeypatch.delenv(SLOW_PATH_ENV_VAR)
        calls.clear()
        assert addresses_for_set(llc, 0, 1000, 2) == slow == [1000 * 64, 2024 * 64]
        assert slow_calls == 2025
        assert len(calls) == 2
