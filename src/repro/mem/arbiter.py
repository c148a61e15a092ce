"""Arbiters at the entry of the LLC cache-access pipeline.

Section 5.4.2 identifies the pipeline-entry mux as a source of minor
timing leakage: in the baseline LLC, incoming messages are merged first by
*type* and then across types, so two messages from different cores can
contend for the single entry slot and delay each other by a cycle.

Section 5.4.3 replaces this with a per-core merge followed by a
round-robin arbiter: in cycle ``T`` only core ``T mod N`` may enter the
pipeline, *even if that core has nothing to send*.  This makes whether a
given core's messages can enter the pipeline independent of every other
core's activity — the key to strong timing independence at this port.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple


class PipelineEntryArbiter(ABC):
    """Chooses which (core, message-queue) pair enters the pipeline this cycle."""

    @abstractmethod
    def select(self, cycle: int, queues: Sequence[Tuple[int, List]]) -> Optional[int]:
        """Return the index into ``queues`` to dequeue from, or None.

        ``queues`` is a sequence of ``(core_id, fifo)`` pairs; a fifo is a
        list whose head is element 0.  Implementations must not modify the
        queues.
        """


class TwoLevelMuxArbiter(PipelineEntryArbiter):
    """Baseline arbitration: fixed priority over message queues.

    The baseline LLC merges messages of the same type and then merges the
    types; the net observable effect is that when two cores present
    messages in the same cycle, a fixed priority decides who enters and
    the loser waits.  That one-cycle delay depends on the other core's
    traffic — the minor leak MI6 closes.
    """

    def select(self, cycle: int, queues: Sequence[Tuple[int, List]]) -> Optional[int]:
        for index, (_core, fifo) in enumerate(queues):
            if fifo:
                return index
        return None


class RoundRobinArbiter(PipelineEntryArbiter):
    """MI6 arbitration: strict per-core time slots.

    Core ``cycle % num_cores`` owns the entry slot in ``cycle``.  If that
    core has no pending message the slot goes unused; other cores may not
    steal it, because doing so would make their entry timing depend on
    this core's activity.
    """

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores

    def select(self, cycle: int, queues: Sequence[Tuple[int, List]]) -> Optional[int]:
        owner = cycle % self.num_cores
        for index, (core, fifo) in enumerate(queues):
            if core == owner and fifo:
                return index
        return None
