"""Tests for the synthetic SPEC CINT2006 workload substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.isa.instructions import InstructionKind
from repro.workloads.characteristics import PAPER_AVERAGES, PAPER_REPORTED
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.spec_cint2006 import SPEC_CINT2006, benchmark_names, profile_for


class TestProfiles:
    def test_eleven_benchmarks_matching_the_paper(self):
        assert len(benchmark_names()) == 11
        assert "perlbench" not in benchmark_names()
        assert set(benchmark_names()) == set(PAPER_REPORTED)

    def test_all_profiles_validate(self):
        for name, profile in SPEC_CINT2006.items():
            assert abs(sum(profile.instruction_mix.values()) - 1.0) < 1e-6
            assert profile.name == name

    def test_invalid_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="bad", instruction_mix={"alu": 0.5, "load": 0.2})

    def test_invalid_reuse_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(
                name="bad",
                instruction_mix={"alu": 0.7, "load": 0.2, "store": 0.05, "branch": 0.05},
                reuse_l1_fraction=0.9,
                new_line_fraction=0.5,
            )

    def test_gcc_memory_and_branch_fractions(self):
        mix = profile_for("gcc").instruction_mix
        assert 0.3 < mix["load"] + mix["store"] < 0.5
        assert 0.1 < mix["branch"] < 0.25

    def test_gcc_is_the_llc_heaviest_profile(self):
        # The rough LLC miss rate a mix implies under the baseline index.
        expected = {
            name: 1000.0 * (profile.instruction_mix["load"] + profile.instruction_mix["store"])
            * profile.new_line_fraction
            for name, profile in SPEC_CINT2006.items()
        }
        assert max(expected, key=expected.get) == "gcc"

    def test_paper_averages_recorded(self):
        assert PAPER_AVERAGES["overall_overhead_pct"] == pytest.approx(16.4)
        assert PAPER_AVERAGES["flush_overhead_pct"] == pytest.approx(5.4)


class TestGenerator:
    def test_stream_is_deterministic(self):
        first = list(SyntheticWorkload(profile_for("bzip2"), seed=1).instructions(500))
        second = list(SyntheticWorkload(profile_for("bzip2"), seed=1).instructions(500))
        assert [instruction.kind for instruction in first] == [
            instruction.kind for instruction in second
        ]
        assert [instruction.vaddr for instruction in first] == [
            instruction.vaddr for instruction in second
        ]

    def test_different_seeds_differ(self):
        first = list(SyntheticWorkload(profile_for("bzip2"), seed=1).instructions(300))
        second = list(SyntheticWorkload(profile_for("bzip2"), seed=2).instructions(300))
        assert [instruction.vaddr for instruction in first] != [
            instruction.vaddr for instruction in second
        ]

    def test_instruction_mix_roughly_matches_profile(self):
        profile = profile_for("gcc")
        stream = list(SyntheticWorkload(profile, seed=3).instructions(6000))
        loads = sum(1 for instruction in stream if instruction.kind is InstructionKind.LOAD)
        branches = sum(1 for instruction in stream if instruction.kind is InstructionKind.BRANCH)
        assert loads / len(stream) == pytest.approx(profile.instruction_mix["load"], abs=0.05)
        assert branches / len(stream) == pytest.approx(profile.instruction_mix["branch"], abs=0.05)

    def test_memory_addresses_stay_inside_footprint(self):
        profile = profile_for("hmmer")
        workload = SyntheticWorkload(profile, seed=4)
        data_start, data_end = workload.data_range()
        for instruction in workload.instructions(3000):
            if instruction.vaddr is not None:
                assert data_start <= instruction.vaddr < data_end

    def test_syscalls_emitted_at_profile_interval(self):
        stream = list(SyntheticWorkload(profile_for("xalancbmk"), seed=5).instructions(14000))
        syscalls = sum(1 for instruction in stream if instruction.kind is InstructionKind.SYSCALL)
        assert syscalls == 14000 // profile_for("xalancbmk").syscall_interval

    def test_warmup_addresses_cover_reuse_windows(self):
        workload = SyntheticWorkload(profile_for("astar"), seed=6)
        addresses = workload.warmup_addresses()
        assert len(addresses) >= profile_for("astar").far_window_lines
        assert len(workload.warmup_code_addresses()) == profile_for("astar").code_footprint_bytes // 64

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_every_branch_has_an_outcome_and_target(self, seed):
        workload = SyntheticWorkload(profile_for("sjeng"), seed=seed)
        for instruction in workload.instructions(400):
            if instruction.kind is InstructionKind.BRANCH:
                assert instruction.branch_id is not None
                assert instruction.target is not None
