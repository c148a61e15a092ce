"""Tests for TLBs, page tables, MSHRs, and the DRAM controller."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.mem.dram import DramConfig, DramController
from repro.mem.mshr import MshrConfig, MshrFile
from repro.mem.page_table import PageTable, PageTableWalker
from repro.mem.tlb import TranslationCache, Tlb


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
        assert tlb.lookup(0x0000) is True
        assert tlb.lookup(0x1000) is False

    def test_flush_discards_everything(self):
        tlb = Tlb("dtlb", entries=32)
        for page in range(8):
            tlb.access(page * 4096)
        assert tlb.flush_all() == 8
        assert tlb.resident_entries() == 0

    def test_set_associative_geometry(self):
        tlb = Tlb("l2tlb", entries=1024, ways=4)
        assert tlb.num_sets == 256

    def test_flush_counts_resident_entries_after_random_fills(self):
        # Fills cross ASIDs (an ASID change on a resident page re-fills
        # it) and overflow sets (LRU evictions drop ASID entries too);
        # the flush must still report exactly what the sets held.
        tlb = Tlb("l2tlb", entries=64, ways=4)
        rng = random.Random(2019)
        for _ in range(3):
            for _ in range(400):
                tlb.access(rng.randrange(256) * 4096, asid=rng.randrange(3))
            resident = sum(len(entries) for entries in tlb._sets)
            assert 0 < resident <= tlb.entries
            assert tlb.resident_entries() == resident
            before = tlb.stats.value("l2tlb.flush_entries")
            assert tlb.flush_all() == resident
            assert tlb.stats.value("l2tlb.flush_entries") == before + resident
            assert all(not entries for entries in tlb._sets)
            assert tlb.resident_entries() == 0

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
        assert copy.lookup(5 * 4096) and copy.lookup(261 * 4096)
        assert tlb.flush_all() == 2
        assert filled_sets(tlb) == []
        assert tlb.access(5 * 4096) is False

    def test_flush_of_empty_tlb_registers_the_counter(self):
        tlb = Tlb("itlb", entries=32)
        assert tlb.flush_all() == 0
        assert tlb.stats.counters() == {"itlb.flush_entries": 0}


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

    def test_identity_table(self):
        table = PageTable.identity(64 * 1024)
        assert table.translate(0x3123) == 0x3123

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
        identity = PageTable.identity(64 * 1024)
        assert list(identity.mappings.items()) == [(page, page) for page in range(16)]

    def test_walker_charges_levels_and_honours_translation_cache_skips(self):
        table = PageTable()
        table.map_page(0x1000, 0x2000)
        walker = PageTableWalker()
        full = walker.walk(table, 0x1000)
        short = walker.walk(table, 0x1000, levels_skipped=2)
        assert full.memory_accesses == 3
        assert short.memory_accesses == 1
        assert full.physical_address == 0x2000

    def test_walker_reports_page_fault(self):
        walker = PageTableWalker()
        result = walker.walk(PageTable(), 0xDEAD_0000)
        assert result.faulted is True


class TestMshrFile:
    def test_sizing_rule_of_section_5_2(self):
        MshrConfig(total_entries=12).validate_against_dram(24)
        with pytest.raises(ConfigurationError):
            MshrConfig(total_entries=16).validate_against_dram(24)

    def test_partitioned_capacity_per_core(self):
        config = MshrConfig(total_entries=12, partitioned=True, num_cores=4)
        assert config.entries_per_core == 3

    def test_allocation_respects_partition(self):
        mshrs = MshrFile(MshrConfig(total_entries=4, partitioned=True, num_cores=2))
        for _ in range(2):
            assert mshrs.can_allocate(core=0, set_index=0)
            mshrs.allocate(core=0, line_address=0)
        assert mshrs.can_allocate(core=0, set_index=0) is False
        assert mshrs.can_allocate(core=1, set_index=0) is True

    def test_bank_conflict_with_whole_file_stall(self):
        config = MshrConfig(total_entries=4, banks=4, stall_whole_file_on_full_bank=True)
        mshrs = MshrFile(config)
        mshrs.allocate(core=0, line_address=0)  # bank 0 now full (1 entry per bank)
        assert mshrs.can_allocate(core=0, set_index=4) is False  # other bank also refused

    def test_release_frees_entry(self):
        mshrs = MshrFile(MshrConfig(total_entries=1))
        entry = mshrs.allocate(core=0, line_address=0)
        assert mshrs.can_allocate(0, 0) is False
        mshrs.release(entry.entry_id)
        assert mshrs.can_allocate(0, 0) is True


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
