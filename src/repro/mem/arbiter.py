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
from typing import List, Sequence, Tuple, TypeVar

#: One message queue as the LLC presents it to the arbiter.
QueueT = TypeVar("QueueT")


class PipelineEntryArbiter(ABC):
    """Decides which message queues may use the pipeline-entry slot in each cycle."""

    @abstractmethod
    def entry_groups(self, queues: Sequence[Tuple[int, QueueT]]) -> List[List[QueueT]]:
        """Group the LLC's queues by who owns the entry slot.

        ``queues`` is a sequence of ``(core_id, queue)`` pairs in the
        LLC's priority order.  In cycle ``T`` the slot belongs to group
        ``T mod len(groups)``, and the first non-empty queue of that
        group, in the order returned, enters the pipeline.  The LLC
        builds the groups once: the queues are mutated in place.
        """


class TwoLevelMuxArbiter(PipelineEntryArbiter):
    """Baseline arbitration: fixed priority over message queues.

    The baseline LLC merges messages of the same type and then merges the
    types; the net observable effect is that when two cores present
    messages in the same cycle, a fixed priority decides who enters and
    the loser waits.  That one-cycle delay depends on the other core's
    traffic — the minor leak MI6 closes.
    """

    def entry_groups(self, queues: Sequence[Tuple[int, QueueT]]) -> List[List[QueueT]]:
        # One group owns every cycle: the first non-empty queue wins.
        return [[queue for _core, queue in queues]]


class RoundRobinArbiter(PipelineEntryArbiter):
    """MI6 arbitration: strict per-core time slots.

    Core ``cycle % num_cores`` owns the entry slot in ``cycle``.  If that
    core has no pending message the slot goes unused; other cores may not
    steal it, because doing so would make their entry timing depend on
    this core's activity.
    """

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores

    def entry_groups(self, queues: Sequence[Tuple[int, QueueT]]) -> List[List[QueueT]]:
        # Group ``owner`` holds core ``owner``'s queues, so in cycle T
        # only core ``T % num_cores`` is looked at.
        return [
            [queue for core, queue in queues if core == owner] for owner in range(self.num_cores)
        ]
