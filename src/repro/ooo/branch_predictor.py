"""Tournament branch predictor (Alpha 21264 style).

RiscyOO uses a tournament predictor as in the Alpha 21264 (Figure 4): a
local predictor (per-branch history indexing a table of saturating
counters), a global predictor indexed by the global history register, and
a choice predictor that selects between them.  The paper's purge analysis
notes the largest table holds 4096 2-bit entries and that 8 entries can be
discarded per cycle during a flush (Section 7.1).

Flushing the predictor resets every table to its initial (public) state;
the increased misprediction rate after a flush — the dominant cost of the
FLUSH variant (Figure 7) — emerges from the predictor having to retrain on
the workload's branch population.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.stats import StatsRegistry


class TournamentPredictor:
    """Local + global + choice tournament predictor.

    Args:
        local_history_entries: Number of per-branch history registers.
        local_history_bits: Bits of local history per branch.
        local_counter_bits: Width of local prediction counters (3 in 21264).
        global_entries: Entries in the global and choice tables (4096).
        global_history_bits: Bits of global history (12 in 21264).
        stats: Statistics registry.
    """

    #: Table entries that the purge hardware can discard per cycle.
    FLUSH_ENTRIES_PER_CYCLE = 8

    def __init__(
        self,
        local_history_entries: int = 1024,
        local_history_bits: int = 10,
        local_counter_bits: int = 3,
        global_entries: int = 4096,
        global_history_bits: int = 12,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.local_history_entries = local_history_entries
        self.local_history_bits = local_history_bits
        self.local_counter_bits = local_counter_bits
        self.global_entries = global_entries
        self.global_history_bits = global_history_bits
        self._stats = stats or StatsRegistry()
        self._local_history: List[int] = [0] * local_history_entries
        self._local_counters: List[int] = [0] * (1 << local_history_bits)
        self._global_counters: List[int] = [1] * global_entries
        # The choice table starts strongly biased toward the local
        # component (as the 21264 does after reset); the global component
        # only wins an index once it has repeatedly outperformed local.
        self._choice_counters: List[int] = [0] * global_entries
        self._global_history = 0
        # Set by update(), cleared by flush(): tables nothing has trained
        # since the last reset are still in their initial state.
        self._trained = False
        # Hot-path constants and lazily cached counter handles.
        self._local_taken_threshold = 1 << (local_counter_bits - 1)
        self._local_counter_max = (1 << local_counter_bits) - 1
        self._local_history_mask = (1 << local_history_bits) - 1
        self._global_history_mask = (1 << global_history_bits) - 1
        self._global_index_mask = global_entries - 1
        self._c_lookups: Optional[object] = None
        self._c_mispredictions: Optional[object] = None

    @property
    def stats(self) -> StatsRegistry:
        """Statistics registry used by this predictor."""
        return self._stats

    # ------------------------------------------------------------------
    # Prediction / update

    def predict(self, pc: int) -> bool:
        """Predict the direction of the branch at ``pc``."""
        local_history = self._local_history[(pc >> 2) % self.local_history_entries]
        local_taken = self._local_counters[local_history] >= self._local_taken_threshold
        global_index = self._global_history & self._global_index_mask
        global_taken = self._global_counters[global_index] >= 2
        use_global = self._choice_counters[global_index] >= 2
        return global_taken if use_global else local_taken

    def update(self, pc: int, taken: bool) -> bool:
        """Update the predictor with the branch outcome.

        Returns True if the (pre-update) prediction was correct.
        """
        local_index = (pc >> 2) % self.local_history_entries
        local_history = self._local_history[local_index]
        local_counter = self._local_counters[local_history]
        local_taken = local_counter >= self._local_taken_threshold
        global_index = self._global_history & self._global_index_mask
        global_counters = self._global_counters
        global_taken = global_counters[global_index] >= 2
        use_global = self._choice_counters[global_index] >= 2
        predicted = global_taken if use_global else local_taken
        correct = predicted == taken
        self._trained = True

        counter = self._c_lookups
        if counter is None:
            counter = self._c_lookups = self._stats.counter("bp.lookups")
        counter.value += 1
        if not correct:
            counter = self._c_mispredictions
            if counter is None:
                counter = self._c_mispredictions = self._stats.counter("bp.mispredictions")
            counter.value += 1

        # Choice counter trains toward whichever component was right.
        # Saturation is inlined: counters stay in [0, max], so an
        # increment only needs the upper clamp and a decrement the lower.
        if local_taken != global_taken:
            choice_counters = self._choice_counters
            choice = choice_counters[global_index]
            if global_taken == taken:
                if choice < 3:
                    choice_counters[global_index] = choice + 1
            elif choice > 0:
                choice_counters[global_index] = choice - 1

        taken_bit = 1 if taken else 0

        # Local component.
        if taken:
            if local_counter < self._local_counter_max:
                self._local_counters[local_history] = local_counter + 1
        elif local_counter > 0:
            self._local_counters[local_history] = local_counter - 1
        self._local_history[local_index] = (
            (local_history << 1) | taken_bit
        ) & self._local_history_mask

        # Global component.
        global_counter = global_counters[global_index]
        if taken:
            if global_counter < 3:
                global_counters[global_index] = global_counter + 1
        elif global_counter > 0:
            global_counters[global_index] = global_counter - 1
        self._global_history = ((self._global_history << 1) | taken_bit) & (
            self._global_history_mask
        )
        return correct

    # ------------------------------------------------------------------
    # Purge support

    def flush(self) -> None:
        """Reset every table to its initial, program-independent state.

        The purge stall (:meth:`flush_stall_cycles`) stays 512 cycles
        whatever the tables hold; only this host work follows it.  Tables
        no :meth:`update` has touched since the last reset are left as
        they are.
        """
        if self._trained:
            self._local_history = [0] * self.local_history_entries
            self._local_counters = [0] * (1 << self.local_history_bits)
            self._global_counters = [1] * self.global_entries
            self._choice_counters = [0] * self.global_entries
            self._global_history = 0
            self._trained = False
        self._stats.counter("bp.flushes").increment()

    def flush_stall_cycles(self) -> int:
        """Cycles needed to scrub the largest table at 8 entries/cycle."""
        largest_table = max(
            len(self._local_counters), len(self._global_counters), len(self._choice_counters)
        )
        return largest_table // self.FLUSH_ENTRIES_PER_CYCLE

    def snapshot(self) -> tuple:
        """Hashable snapshot of all predictor state (for purge audits)."""
        return (
            tuple(self._local_history),
            tuple(self._local_counters),
            tuple(self._global_counters),
            tuple(self._choice_counters),
            self._global_history,
        )

    @property
    def misprediction_count(self) -> int:
        """Total mispredictions recorded so far."""
        return self._stats.value("bp.mispredictions")
