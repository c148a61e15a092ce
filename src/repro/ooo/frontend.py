"""Front end: fetch, branch prediction, and redirect bookkeeping.

The front end model is 2-wide (Figure 4).  It consults the branch
predictor, BTB, and return-address stack for every control instruction,
accesses the L1 instruction cache once per new cache line, and reports the
cycle at which each instruction is available to the rename stage.  The
core timing model feeds resolved branch outcomes back so the front end can
model redirects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.stats import StatsRegistry
from repro.isa.instructions import Instruction, InstructionKind
from repro.mem.hierarchy import MemoryHierarchy
from repro.ooo.branch_predictor import TournamentPredictor
from repro.ooo.btb import BranchTargetBuffer, ReturnAddressStack


@dataclass(frozen=True)
class FetchOutcome:
    """Result of fetching one instruction.

    Attributes:
        fetch_cycle: Cycle the instruction left the fetch stage.
        predicted_taken: Front-end direction prediction (control only).
        predicted_target_known: Whether the BTB/RAS supplied a target.
    """

    fetch_cycle: int
    predicted_taken: bool = False
    predicted_target_known: bool = True


class FrontEnd:
    """Fetch-stage timing and prediction model."""

    #: Extra bubble cycles when a predicted-taken branch misses in the BTB.
    BTB_MISS_BUBBLE = 2

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        *,
        fetch_width: int = 2,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.fetch_width = fetch_width
        self._stats = stats or StatsRegistry()
        self.predictor = TournamentPredictor(stats=self._stats)
        self.btb = BranchTargetBuffer(stats=self._stats)
        self.ras = ReturnAddressStack(stats=self._stats)
        self._current_cycle = 0
        self._slots_used = 0
        self._last_fetch_line: Optional[int] = None
        # Hot-path constants for the fast core loop, which inlines
        # fetch and control resolution.
        self._line_bytes = hierarchy.l1i.geometry.line_bytes
        self._l1i_hit_latency = hierarchy.l1i.hit_latency

    def redirect(self, cycle: int) -> None:
        """Squash the fetch stream and resume fetching at ``cycle``."""
        if cycle > self._current_cycle:
            self._current_cycle = cycle
            self._slots_used = 0
        self._last_fetch_line = None

    def fetch(self, instruction: Instruction, earliest_cycle: int) -> FetchOutcome:
        """Fetch one instruction, no earlier than ``earliest_cycle``."""
        if earliest_cycle > self._current_cycle:
            self._current_cycle = earliest_cycle
            self._slots_used = 0
        if self._slots_used >= self.fetch_width:
            self._current_cycle += 1
            self._slots_used = 0

        line = instruction.pc // self.hierarchy.l1i.geometry.line_bytes
        if line != self._last_fetch_line:
            self._last_fetch_line = line
            latency, l1_hit = self.hierarchy.fetch_access(instruction.pc)
            if not l1_hit:
                # The fetch stream stalls for the miss latency.
                self._current_cycle += latency - self.hierarchy.l1i.hit_latency
                self._slots_used = 0

        fetch_cycle = self._current_cycle
        self._slots_used += 1
        self._stats.counter("frontend.fetched").increment()

        predicted_taken = False
        target_known = True
        if instruction.kind is InstructionKind.BRANCH:
            predicted_taken = self.predictor.predict(instruction.pc)
            if predicted_taken and self.btb.lookup(instruction.pc) is None:
                target_known = False
                self._current_cycle += self.BTB_MISS_BUBBLE
                self._slots_used = 0
        elif instruction.kind is InstructionKind.JUMP:
            predicted_taken = True
            if self.btb.lookup(instruction.pc) is None:
                target_known = False
                self._current_cycle += self.BTB_MISS_BUBBLE
                self._slots_used = 0
            self.ras.push(instruction.pc + 4)
        elif instruction.kind is InstructionKind.RETURN:
            predicted_taken = True
            predicted_return = self.ras.pop()
            target_known = predicted_return is not None and (
                instruction.target is None or predicted_return == instruction.target
            )
            if not target_known:
                self._stats.counter("frontend.ras_mispredicts").increment()

        return FetchOutcome(
            fetch_cycle=fetch_cycle,
            predicted_taken=predicted_taken,
            predicted_target_known=target_known,
        )

    def resolve_control(self, instruction: Instruction, outcome: FetchOutcome) -> bool:
        """Resolve a control instruction; returns True on a misprediction."""
        if instruction.kind is InstructionKind.BRANCH:
            correct = self.predictor.update(instruction.pc, instruction.taken)
            if instruction.taken and instruction.target is not None:
                self.btb.update(instruction.pc, instruction.target)
            mispredicted = (outcome.predicted_taken != instruction.taken) or (
                instruction.taken and not outcome.predicted_target_known
            )
            if not correct or mispredicted:
                self._stats.counter("frontend.branch_mispredicts").increment()
                return True
            return False
        if instruction.kind in (InstructionKind.JUMP, InstructionKind.RETURN):
            if instruction.target is not None:
                self.btb.update(instruction.pc, instruction.target)
            if not outcome.predicted_target_known:
                self._stats.counter("frontend.target_mispredicts").increment()
                return True
        return False

    def flush_predictors(self) -> None:
        """Scrub all prediction state (purge)."""
        self.predictor.flush()
        self.btb.flush()
        self.ras.flush()
        self._last_fetch_line = None
