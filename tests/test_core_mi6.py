"""Tests for the MI6 layer: protection, purge, variants, processor, isolation."""

import pytest

from repro.analysis.engine import PAPER_VARIANTS
from repro.common.errors import ConfigurationError, ProtectionFault
from repro.core.config import MI6Config
from repro.core.isolation import llc_sets_disjoint, timing_independence_report, verify_purged_state
from repro.core.mitigations import config_for_spec, parse_spec
from repro.core.processor import MI6Processor
from repro.core.protection import ProtectionDomain, RegionBitvector
from repro.mem.address import AddressMap, IndexFunction
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.spec_cint2006 import profile_for


class TestRegionBitvector:
    def setup_method(self):
        self.address_map = AddressMap()
        self.bitvector = RegionBitvector(self.address_map)

    def test_grant_and_revoke(self):
        self.bitvector.grant(3)
        assert self.bitvector.is_allowed(self.address_map.region_base(3))
        self.bitvector.revoke(3)
        assert not self.bitvector.is_allowed(self.address_map.region_base(3))

    def test_check_or_fault_raises(self):
        with pytest.raises(ProtectionFault):
            self.bitvector.check_or_fault(self.address_map.region_base(5))

    def test_set_regions_replaces(self):
        self.bitvector.set_regions({1, 2})
        assert self.bitvector.allowed_regions() == {1, 2}
        self.bitvector.set_regions({4})
        assert self.bitvector.allowed_regions() == {4}

    def test_out_of_dram_address_denied(self):
        assert self.bitvector.is_allowed(self.address_map.dram_bytes + 64) is False

    def test_invalid_region_rejected(self):
        with pytest.raises(ConfigurationError):
            self.bitvector.grant(64)


class TestProtectionDomain:
    def test_overlap_detection(self):
        domain_a = ProtectionDomain(1, "a", regions={1, 2}, cores={0})
        domain_b = ProtectionDomain(2, "b", regions={3}, cores={1})
        domain_c = ProtectionDomain(3, "c", regions={2}, cores={2})
        assert not domain_a.overlaps(domain_b)
        assert domain_a.overlaps(domain_c)

    def test_identity_table_covers_only_owned_regions(self):
        address_map = AddressMap(dram_bytes=64 * 1024 * 1024, num_regions=4)
        domain = ProtectionDomain(1, "os", regions={2})
        table = domain.build_identity_table(address_map)
        inside = address_map.region_base(2) + 4096
        outside = address_map.region_base(1)
        assert table.translate(inside) == inside
        assert table.translate(outside) is None


class TestVariants:
    def test_all_seven_variants_exist(self):
        assert len(PAPER_VARIANTS) == 7
        assert [config_for_spec(variant).name for variant in PAPER_VARIANTS] == list(PAPER_VARIANTS)

    def test_fpma_combines_four_mechanisms(self):
        config = config_for_spec("F+P+M+A")
        assert config.flush_on_context_switch
        assert config.set_partition_llc
        assert config.partition_mshrs
        assert config.llc_arbiter
        assert not config.nonspec_memory

    def test_effective_llc_config_reflects_switches(self):
        base = config_for_spec("BASE").effective_llc_config()
        arb = config_for_spec("ARB").effective_llc_config()
        part = config_for_spec("PART").effective_llc_config()
        miss = config_for_spec("MISS").effective_llc_config()
        assert base.extra_pipeline_latency == 0
        assert arb.extra_pipeline_latency == 8          # 16 cores / 2
        assert part.index_function is IndexFunction.SET_PARTITIONED
        assert miss.mshr.total_entries == 12 and miss.mshr.banks == 4

    def test_every_variant_has_a_description(self):
        for variant in PAPER_VARIANTS:
            assert parse_spec(variant).describe()

    def test_describe_renders_figure4_table(self):
        text = config_for_spec("BASE").describe()
        assert "80-entry ROB" in text
        assert "120-cycle latency" in text


class TestPurge:
    def build_processor(self):
        return MI6Processor(config_for_spec("FLUSH"))

    def test_purge_scrubs_and_matches_pristine_observable_state(self):
        pristine = MI6Processor(config_for_spec("FLUSH")).purge_unit.observable_state()
        processor = self.build_processor()
        processor.run_workload("hmmer", instructions=3000, warm_up=False)
        assert processor.hierarchy.l1d.cache.valid_line_count() > 0
        processor.purge_unit.execute()
        mismatches = verify_purged_state(processor.purge_unit, pristine)
        assert mismatches == []

    def test_purge_stall_is_512_cycles_and_data_independent(self):
        processor = self.build_processor()
        empty_stall = processor.purge_unit.stall_cycles()
        processor.run_workload("hmmer", instructions=2000, warm_up=False)
        assert processor.purge_unit.stall_cycles() == empty_stall == 512

    def test_purge_counts_in_stats(self):
        processor = self.build_processor()
        processor.purge_unit.execute()
        assert processor.stats.value("purge.executions") == 1


class TestIsolationCheckers:
    def test_partitioned_index_gives_disjoint_sets(self):
        assert llc_sets_disjoint({1, 2}, {3, 4}, index_function=IndexFunction.SET_PARTITIONED)

    def test_baseline_index_shares_sets(self):
        assert not llc_sets_disjoint({1, 2}, {3, 4}, index_function=IndexFunction.BASELINE)

    def test_timing_independence_secure_vs_baseline(self):
        secure = timing_independence_report(secure=True)
        insecure = timing_independence_report(secure=False)
        assert secure.independent
        assert not insecure.independent
        assert insecure.max_difference > 0


class TestMI6Processor:
    def test_run_produces_consistent_result(self):
        processor = MI6Processor(config_for_spec("BASE"))
        run = processor.run_workload("hmmer", instructions=4000)
        assert run.instructions == 4000
        assert run.cycles > 0
        assert run.result.ipc > 0

    def test_runs_are_deterministic(self):
        first = MI6Processor(config_for_spec("BASE")).run_workload("bzip2", instructions=3000)
        second = MI6Processor(config_for_spec("BASE")).run_workload("bzip2", instructions=3000)
        assert first.cycles == second.cycles

    def test_workload_domain_pages_stay_inside_regions(self):
        processor = MI6Processor(config_for_spec("BASE"))
        workload = SyntheticWorkload(profile_for("hmmer"))
        domain = processor.build_workload_domain(workload)
        address_map = processor.config.address_map
        for physical_page in domain.page_table.mapped_physical_pages():
            region = address_map.region_of(physical_page * 4096)
            assert region in domain.regions

    def test_accesses_outside_domain_are_blocked(self):
        processor = MI6Processor(config_for_spec("F+P+M+A"))
        workload = SyntheticWorkload(profile_for("hmmer"))
        processor.install_domain(processor.build_workload_domain(workload))
        outside = processor.config.address_map.region_base(60)
        assert processor.region_bitvector.is_allowed(outside) is False

    def test_part_variant_increases_gcc_llc_misses(self):
        base = MI6Processor(config_for_spec("BASE")).run_workload("gcc", instructions=6000)
        part = MI6Processor(config_for_spec("PART")).run_workload("gcc", instructions=6000)
        assert part.result.llc_mpki > base.result.llc_mpki

    def test_flush_variant_increases_branch_mispredictions(self):
        short_traps = MI6Config(trap_interval_instructions=2000)
        base = MI6Processor(config_for_spec("BASE", short_traps)).run_workload(
            "astar", instructions=8000
        )
        flush = MI6Processor(config_for_spec("FLUSH", short_traps)).run_workload(
            "astar", instructions=8000
        )
        assert flush.result.branch_mpki > base.result.branch_mpki
        assert flush.result.flush_stall_cycles > 0

    def test_fpma_variant_costs_more_than_base(self):
        base = MI6Processor(config_for_spec("BASE")).run_workload("xalancbmk", instructions=6000)
        secured = MI6Processor(config_for_spec("F+P+M+A")).run_workload("xalancbmk", instructions=6000)
        assert secured.overhead_vs(base) > 0
