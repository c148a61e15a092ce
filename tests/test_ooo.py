"""Tests for the out-of-order core structures and timing model."""

import pytest
from helpers import alu, branch, load, predictor_state, store, syscall

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.common.stats import StatsRegistry
from repro.mem.address import AddressMap
from repro.mem.dram import DramController
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.llc import LastLevelCache, LlcConfig
from repro.mem.mshr import MshrConfig
from repro.ooo.branch_predictor import TournamentPredictor
from repro.ooo.btb import BranchTargetBuffer, ReturnAddressStack
from repro.ooo.core import CoreConfig, OutOfOrderCore


def build_core(core_config=None, llc_config=None):
    stats = StatsRegistry()
    address_map = AddressMap()
    dram = DramController(stats=stats)
    llc = LastLevelCache(
        llc_config or LlcConfig(), address_map, dram, stats=stats
    )
    hierarchy = MemoryHierarchy(0, llc, address_map, rng=DeterministicRng(1), stats=stats)
    return OutOfOrderCore(hierarchy, core_config or CoreConfig(), stats=stats)


class TestBranchPredictor:
    def test_learns_a_strong_bias(self):
        predictor = TournamentPredictor()
        for _ in range(50):
            predictor.update(0x400, True)
        assert predictor.predict(0x400) is True

    def test_learns_a_loop_pattern(self):
        predictor = TournamentPredictor()
        mispredictions = 0
        for iteration in range(400):
            taken = (iteration % 8) != 7
            if predictor.predict(0x800) != taken:
                mispredictions += 1
            predictor.update(0x800, taken)
        # After warm-up the only recurring error should be near the loop exit.
        assert mispredictions < 150

    def test_flush_restores_initial_state(self):
        predictor = TournamentPredictor()
        pristine = predictor_state(predictor)
        for _ in range(2):  # train, flush, train again, flush again
            for index in range(200):
                predictor.update(0x400 + index * 4, index % 3 == 0)
            assert predictor_state(predictor) != pristine
            predictor.flush()
            assert predictor_state(predictor) == pristine

    def test_flush_stall_cycles_matches_largest_table(self):
        predictor = TournamentPredictor()
        assert predictor.flush_stall_cycles() == 4096 // 8

    def test_flushing_an_untrained_predictor_counts_every_flush(self):
        stats = StatsRegistry()
        predictor = TournamentPredictor(stats=stats)
        predictor.flush()
        predictor.flush()
        assert predictor_state(predictor) == predictor_state(TournamentPredictor())
        assert stats.value("bp.flushes") == 2

    def test_flush_after_only_correct_predictions_restores_initial_state(self):
        # On a fresh predictor a not-taken branch is predicted correctly
        # and still moves a global counter from 1 to 0, so the flush must
        # rebuild after any update, not only after a misprediction.
        stats = StatsRegistry()
        predictor = TournamentPredictor(stats=stats)
        for index in range(64):
            pc = 0x400 + index * 4
            assert predictor.update(pc, predictor.predict(pc))
        assert stats.value("bp.mispredictions") == 0
        assert predictor_state(predictor) != predictor_state(TournamentPredictor())
        predictor.flush()
        assert predictor_state(predictor) == predictor_state(TournamentPredictor())


class TestFrontEndStructures:
    def test_btb_lookup_and_flush(self):
        btb = BranchTargetBuffer()
        btb.update(0x4000, 0x5000)
        assert btb.lookup(0x4000) == 0x5000
        btb.flush()
        assert btb.lookup(0x4000) is None

    def test_ras_push_pop_and_overflow(self):
        ras = ReturnAddressStack(depth=2)
        ras.push(0x100)
        ras.push(0x200)
        ras.push(0x300)           # overflows, dropping 0x100
        assert ras.pop() == 0x300
        assert ras.pop() == 0x200
        assert ras.pop() is None


class TestCoreTiming:
    def test_independent_alu_stream_reaches_superscalar_ipc(self):
        core = build_core()
        stream = [alu(dst=(index % 16) + 1) for index in range(2000)]
        result = core.run(stream)
        assert result.instructions == 2000
        assert result.instructions / result.cycles > 1.2

    def test_dependent_chain_is_serial(self):
        core = build_core()
        stream = [alu(dst=1, srcs=(1,)) for _ in range(1000)]
        result = core.run(stream)
        assert result.instructions / result.cycles <= 1.05

    def test_load_misses_slow_execution(self):
        fast_core = build_core()
        hit_stream = [load(dst=1, vaddr=0x1000) for _ in range(400)]
        slow_core = build_core()
        miss_stream = [load(dst=1, vaddr=0x1000 + index * 4096 * 31) for index in range(400)]
        assert slow_core.run(miss_stream).cycles > fast_core.run(hit_stream).cycles

    def test_mispredictions_add_cycles(self):
        rng = DeterministicRng(11)
        predictable = build_core().run(
            [branch(branch_id=1, taken=True, pc=0x400, target=0x800) for _ in range(500)]
        )
        random_outcomes = build_core().run(
            [
                branch(branch_id=1, taken=rng.chance(0.5), pc=0x400, target=0x800)
                for _ in range(500)
            ]
        )
        assert random_outcomes.stats.value("bp.mispredictions") > predictable.stats.value(
            "bp.mispredictions"
        )
        assert random_outcomes.cycles > predictable.cycles

    def test_nonspec_memory_mode_is_slower(self):
        stream = [
            load(dst=1, vaddr=0x1000 + (index % 64) * 64) if index % 3 == 0 else alu(dst=2)
            for index in range(1500)
        ]
        base = build_core(CoreConfig()).run(list(stream))
        nonspec = build_core(CoreConfig(nonspec_memory=True)).run(list(stream))
        assert nonspec.cycles > base.cycles * 1.3

    def test_trap_handling_charges_penalty(self):
        config = CoreConfig(trap_handler_cycles=500)
        with_syscalls = build_core(config).run(
            [syscall() if index % 200 == 199 else alu(dst=1) for index in range(1000)]
        )
        without = build_core(config).run([alu(dst=1) for _ in range(1000)])
        assert with_syscalls.cycles > without.cycles + 1000
        assert with_syscalls.stats.value("core.traps") == 5

    def test_store_misses_do_not_stall_commit(self):
        core = build_core()
        stores = [store(vaddr=0x1000 + index * 4096 * 17) for index in range(300)]
        result = core.run(stores)
        assert result.cpi < 10.0


class TestCommitWidth:
    """The commit stage honours config.commit_width (regression: the old
    model hardcoded 2-wide commit regardless of configuration)."""

    COUNT = 120

    def _cycles_for(self, commit_width):
        # Wide enough fetch and execute that commit is the bottleneck.
        config = CoreConfig(fetch_width=4, alu_units=4, commit_width=commit_width)
        stream = [alu(dst=(index % 16) + 1) for index in range(self.COUNT)]
        return build_core(config).run(stream).cycles

    @pytest.mark.parametrize("commit_width", [1, 2, 4])
    def test_commit_rate_never_exceeds_configured_width(self, commit_width):
        assert self._cycles_for(commit_width) >= self.COUNT // commit_width

    def test_narrower_commit_is_strictly_slower(self):
        one_wide = self._cycles_for(1)
        two_wide = self._cycles_for(2)
        four_wide = self._cycles_for(4)
        assert one_wide > two_wide > four_wide

    def test_single_wide_commit_serialises_retirement(self):
        # The old hardcoded 2-back window let a commit_width=1 core retire
        # two instructions per cycle; the honoured width forbids that.
        assert self._cycles_for(1) >= self.COUNT

    @pytest.mark.parametrize("rob_entries, commit_width", [(4, 5), (0, 1), (0, 0), (1, 2)])
    def test_rob_narrower_than_commit_is_rejected(self, rob_entries, commit_width):
        # The fast kernel reads the commit-width window from the ROB's
        # ring of commit cycles, so the ROB must hold at least that many.
        with pytest.raises(ConfigurationError, match="rob_entries"):
            CoreConfig(rob_entries=rob_entries, commit_width=commit_width)

    @pytest.mark.parametrize("rob_entries, commit_width", [(4, 4), (1, 1), (1, 0)])
    def test_rob_as_wide_as_commit_is_accepted(self, rob_entries, commit_width):
        config = CoreConfig(rob_entries=rob_entries, commit_width=commit_width)
        stream = [alu(dst=(index % 16) + 1) for index in range(self.COUNT)]
        assert build_core(config).run(stream).instructions == self.COUNT


class TestMshrRules:
    """The MSHR rules both kernels apply to a core's outstanding LLC misses.

    Each load is independent and goes to a cold line of a bare-physical
    core, so every one misses in the LLC and takes 138 cycles.  One load
    issues per cycle, so a miss that must wait for the one three loads
    older waits 138 - 3 = 135 cycles.  Lines stay off line 0, which the
    fetch of pc 0 brings into the LLC.  The LLC has 1,024 sets, so line
    ``n`` occupies MSHR bank ``n % banks``.
    """

    BANKED = MshrConfig(total_entries=12, banks=4)

    @staticmethod
    def mshr_wait(mshr, lines):
        core = build_core(llc_config=LlcConfig(mshr=mshr))
        stream = [load(dst=index + 1, vaddr=line * 64) for index, line in enumerate(lines)]
        return core.run(stream).stats.value("core.mshr_wait_cycles")

    def test_default_file_takes_four_misses_to_one_bank(self, kernel):
        assert self.mshr_wait(MshrConfig(), [4, 8, 12, 16]) == 0

    def test_fourth_miss_to_a_full_bank_waits(self, kernel):
        assert self.mshr_wait(self.BANKED, [4, 8, 12, 16]) == 135

    def test_misses_spread_over_banks_do_not_wait(self, kernel):
        assert self.mshr_wait(self.BANKED, [4, 5, 6, 7]) == 0
        assert self.mshr_wait(self.BANKED, [4, 8, 12, 5]) == 0

    def test_full_bank_stalls_the_whole_file_when_configured(self, kernel):
        # MISS's file: three misses fill bank 0, so a bank-1 miss waits too.
        whole_file = MshrConfig(total_entries=12, banks=4, stall_whole_file_on_full_bank=True)
        assert self.mshr_wait(whole_file, [4, 8, 12, 5]) == 135

    def test_partitioned_file_holds_a_core_to_its_share(self, kernel):
        # 12 entries over 4 cores: 3 each, so the 4th and 5th misses wait.
        partitioned = MshrConfig(total_entries=12, partitioned=True, num_cores=4)
        assert self.mshr_wait(partitioned, [4, 5, 6]) == 0
        assert self.mshr_wait(partitioned, [4, 5, 6, 7, 9]) == 2 * 135
