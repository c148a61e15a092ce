"""Tests for TLBs, page tables and walks, MSHRs, and the DRAM controller."""

import random

import pytest
from helpers import holds

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.common.stats import StatsRegistry
from repro.mem.address import AddressMap
from repro.mem.dram import DramConfig, DramController
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.llc import LastLevelCache, LlcConfig
from repro.mem.mshr import MshrConfig
from repro.mem.page_table import PageTable
from repro.mem.tlb import TranslationCache, Tlb


def resident(tlb, address):
    """True if ``tlb`` holds the translation of ``address``'s page."""
    vpn = address // tlb.page_bytes
    return vpn in tlb._sets[vpn % tlb.num_sets]


class TestTlb:
    def test_hit_after_fill(self):
        tlb = Tlb("dtlb", entries=32)
        assert tlb.access(0x1000) is False
        assert tlb.access(0x1008) is True   # same page

    def test_capacity_eviction_is_lru(self):
        tlb = Tlb("tiny", entries=2)
        tlb.access(0x0000)
        tlb.access(0x1000)
        tlb.access(0x0000)        # refresh page 0
        tlb.access(0x2000)        # evicts page 1
        assert resident(tlb, 0x0000)
        assert not resident(tlb, 0x1000)

    def test_flush_discards_everything(self):
        tlb = Tlb("dtlb", entries=32)
        for page in range(8):
            tlb.access(page * 4096)
        assert tlb.flush_all() == 8
        assert not any(tlb._sets)

    def test_set_associative_geometry(self):
        tlb = Tlb("l2tlb", entries=1024, ways=4)
        assert tlb.num_sets == 256

    def test_flush_counts_resident_entries_after_random_fills(self):
        # Fills overflow sets (LRU evictions) and re-fill resident pages
        # through ``fill``; the flush must still report exactly what the
        # sets held, and touch only the sets that hold entries.
        stats = StatsRegistry()
        tlb = Tlb("l2tlb", entries=64, ways=4, stats=stats)
        rng = random.Random(2019)
        for _ in range(3):
            for _ in range(400):
                address = rng.randrange(256) * 4096
                if rng.random() < 0.2:
                    tlb.fill(address)
                else:
                    tlb.access(address)
            resident = sum(len(entries) for entries in tlb._sets)
            assert 0 < resident <= 64
            assert sorted(tlb._filled) == [index for index, entries in enumerate(tlb._sets) if entries]
            before = stats.value("l2tlb.flush_entries")
            assert tlb.flush_all() == resident
            assert stats.value("l2tlb.flush_entries") == before + resident
            assert all(not entries for entries in tlb._sets)
            assert not tlb._filled

    def test_a_set_holds_a_list_only_while_it_holds_entries(self):
        def filled_sets(tlb):
            return [index for index, entries in enumerate(tlb._sets) if isinstance(entries, list)]

        tlb = Tlb("l2tlb", entries=1024, ways=4)
        assert filled_sets(tlb) == []
        tlb.access(5 * 4096)
        tlb.access(261 * 4096)
        assert filled_sets(tlb) == [5]
        copy = Tlb("l2tlb", entries=1024, ways=4)
        copy.load_warm_state(tlb.capture_warm_state())
        assert filled_sets(copy) == [5]
        assert resident(copy, 5 * 4096) and resident(copy, 261 * 4096)
        assert tlb.flush_all() == 2
        assert filled_sets(tlb) == []
        assert tlb.access(5 * 4096) is False

    def test_flush_of_empty_tlb_registers_the_counter(self):
        stats = StatsRegistry()
        tlb = Tlb("itlb", entries=32, stats=stats)
        assert tlb.flush_all() == 0
        assert stats.counters() == {"itlb.flush_entries": 0}


class TestTranslationCache:
    def test_deeper_hits_after_fill(self):
        tcache = TranslationCache()
        assert tcache.deepest_hit_level(0x4000_0000) == 0
        tcache.fill(0x4000_0000)
        assert tcache.deepest_hit_level(0x4000_0000) > 0

    def test_flush(self):
        tcache = TranslationCache()
        tcache.fill(0x1000)
        assert tcache.flush_all() > 0
        assert tcache.deepest_hit_level(0x1000) == 0


class TestPageTable:
    def test_translate_mapped_page(self):
        table = PageTable()
        table.map_page(0x4000_0000, 0x10_0000)
        assert table.translate(0x4000_0123) == 0x10_0123
        assert table.translate(0x5000_0000) is None

    def test_bulk_identity_map_matches_page_by_page_mapping(self):
        # Same mappings, same insertion order as mapping each page in turn.
        for first_page, num_pages in ((0, 16), (8192, 300)):
            reference = PageTable()
            for page in range(first_page, first_page + num_pages):
                address = page * reference.page_bytes
                reference.map_page(address, address)
            table = PageTable()
            table.map_identity_pages(first_page, num_pages)
            assert list(table.mappings.items()) == list(reference.mappings.items())
            assert table.translate(first_page * 4096 + 0x123) == first_page * 4096 + 0x123


class TestPageWalk:
    """The walk :class:`MemoryHierarchy` does on a TLB miss.

    A full walk reads one entry per level of the table (3); the
    translation cache keeps the upper levels of a finished walk, so a
    page in the same 1 GiB region hits it at level 2 and reads one.
    Every walk read and every emitted data access goes through the L1D,
    so ``l1d.access`` counts them together.
    """

    @staticmethod
    def hierarchy():
        stats = StatsRegistry()
        address_map = AddressMap()
        dram = DramController(stats=stats)
        llc = LastLevelCache(LlcConfig(), address_map, dram, stats=stats)
        mem = MemoryHierarchy(0, llc, address_map, rng=DeterministicRng(1), stats=stats)
        mem.page_table = PageTable()
        mem.page_table.map_page(0x4000_0000, 0x10_0000)
        mem.page_table.map_page(0x4000_1000, 0x10_1000)
        return mem, stats

    def test_first_walk_reads_every_level(self, kernel):
        mem, stats = self.hierarchy()
        assert mem.data_access(0x4000_0008)[3] is False
        assert stats.value("l1d.access") == 3 + 1
        assert holds(mem.l1d.cache, 0x10_0008)
        assert "mem.page_faults" not in stats.registered()

    def test_neighbouring_page_walks_from_the_translation_cache(self, kernel):
        mem, stats = self.hierarchy()
        mem.data_access(0x4000_0008)
        mem.data_access(0x4000_1010)
        assert stats.value("tcache.hit") == 1
        assert stats.value("l1d.access") == 3 + 1 + 1 + 1
        assert holds(mem.l1d.cache, 0x10_1010)

    def test_unmapped_address_faults_after_a_full_walk(self, kernel):
        mem, stats = self.hierarchy()
        mem.data_access(0x4000_0008)
        assert mem.data_access(0x8000_0000)[1:] == (None, 0, False)
        assert stats.value("l1d.access") == 3 + 1 + 3
        assert stats.value("mem.page_faults") == 1


class TestMshrFile:
    def test_sizing_rule_of_section_5_2(self):
        MshrConfig(total_entries=12).validate_against_dram(24)
        with pytest.raises(ConfigurationError):
            MshrConfig(total_entries=16).validate_against_dram(24)

    def test_partitioned_capacity_per_core(self):
        config = MshrConfig(total_entries=12, partitioned=True, num_cores=4)
        assert config.entries_per_core == 3


class TestDramController:
    def test_constant_latency(self):
        dram = DramController(DramConfig(latency_cycles=120))
        request = dram.submit(core=0, line_address=1, is_write=False, now=10)
        assert request.complete_cycle == 130

    def test_backpressure_when_full(self):
        dram = DramController(DramConfig(latency_cycles=50, max_outstanding=2))
        dram.submit(0, 1, False, now=0)
        dram.submit(0, 2, False, now=0)
        delayed = dram.submit(0, 3, False, now=0)
        assert delayed.accept_cycle == 50

    def test_reordering_model_leaks_row_hits(self):
        dram = DramController(DramConfig(constant_latency=False, row_hit_latency_cycles=30, latency_cycles=100))
        first = dram.submit(0, 8, False, now=0)
        second = dram.submit(0, 8, False, now=0)
        assert first.complete_cycle - first.accept_cycle == 100
        assert second.complete_cycle - second.accept_cycle == 30
