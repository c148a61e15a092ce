"""Branch target buffer and return address stack.

RiscyOO's front end uses a 256-entry direct-mapped BTB and an 8-entry
return-address stack (Figure 4).  Both retain program-dependent state (the
targets of a previous program's branches and calls) and are scrubbed by
the purge instruction; both are also classic side channels for leaking a
victim's control flow, like the direction-predictor residue that the
``branch_residue`` scenario in :mod:`repro.attacks.scenarios` exploits on
the baseline processor.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.stats import StatsRegistry


class BranchTargetBuffer:
    """Direct-mapped BTB mapping a PC to its last observed target."""

    def __init__(self, entries: int = 256, stats: Optional[StatsRegistry] = None) -> None:
        self.entries = entries
        self._stats = stats or StatsRegistry()
        self._tags: List[Optional[int]] = [None] * entries
        self._targets: List[int] = [0] * entries
        self._c_lookups: Optional[object] = None
        self._c_hits: Optional[object] = None

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target for the instruction at ``pc`` (None on a miss)."""
        index = (pc >> 2) % self.entries
        counter = self._c_lookups
        if counter is None:
            counter = self._c_lookups = self._stats.counter("btb.lookups")
        counter.value += 1
        if self._tags[index] == pc:
            counter = self._c_hits
            if counter is None:
                counter = self._c_hits = self._stats.counter("btb.hits")
            counter.value += 1
            return self._targets[index]
        return None

    def update(self, pc: int, target: int) -> None:
        """Record the observed target of the control instruction at ``pc``."""
        index = self._index(pc)
        self._tags[index] = pc
        self._targets[index] = target

    def flush(self) -> None:
        """Scrub all entries (purge)."""
        self._tags = [None] * self.entries
        self._targets = [0] * self.entries
        self._stats.counter("btb.flushes").increment()


class ReturnAddressStack:
    """Fixed-depth return-address stack."""

    def __init__(self, depth: int = 8, stats: Optional[StatsRegistry] = None) -> None:
        self.depth = depth
        self._stats = stats or StatsRegistry()
        self._stack: List[int] = []

    def push(self, return_address: int) -> None:
        """Push a return address (on a call)."""
        self._stack.append(return_address)
        if len(self._stack) > self.depth:
            self._stack.pop(0)

    def pop(self) -> Optional[int]:
        """Pop the predicted return address (on a return)."""
        self._stats.counter("ras.pops").increment()
        if not self._stack:
            self._stats.counter("ras.underflows").increment()
            return None
        return self._stack.pop()

    def flush(self) -> None:
        """Scrub the stack (purge)."""
        self._stack.clear()
        self._stats.counter("ras.flushes").increment()
