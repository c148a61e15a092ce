"""Reorder buffer and issue queues.

These are structural-capacity models: the timing model in
:mod:`repro.ooo.core` uses their occupancy limits, while the purge audit
uses their :meth:`snapshot` / :meth:`observable_projection` pairs to check
the "empty pipeline states are indistinguishable" argument of Section 6.1
(e.g. an issue queue whose head and tail pointers are equal is empty
regardless of the pointer value).
"""

from __future__ import annotations

from typing import List, Tuple


class ReorderBuffer:
    """Circular reorder buffer with bounded capacity (80 entries, 2-wide)."""

    def __init__(self, capacity: int = 80, width: int = 2) -> None:
        self.capacity = capacity
        self.width = width
        self._entries: List[int] = []    # sequence numbers of in-flight instructions
        self._head_pointer = 0
        self._tail_pointer = 0

    def occupancy(self) -> int:
        """Number of in-flight instructions."""
        return len(self._entries)

    def is_full(self) -> bool:
        """True when no more instructions can be inserted."""
        return len(self._entries) >= self.capacity

    def is_empty(self) -> bool:
        """True when no instructions are in flight."""
        return not self._entries

    def insert(self, sequence: int) -> None:
        """Insert an instruction (caller checks :meth:`is_full`)."""
        self._entries.append(sequence)
        self._tail_pointer = (self._tail_pointer + 1) % self.capacity

    def squash_all(self) -> int:
        """Squash every in-flight instruction (misprediction / trap / purge)."""
        squashed = len(self._entries)
        self._entries.clear()
        # Pointers intentionally keep their values: an empty ROB is empty
        # wherever head == tail points (Section 6.1).
        self._head_pointer = self._tail_pointer
        return squashed

    def snapshot(self) -> tuple:
        """Raw state including pointer values."""
        return (tuple(self._entries), self._head_pointer, self._tail_pointer)

    def observable_projection(self) -> tuple:
        """Software-observable view: only the in-flight instructions."""
        return tuple(self._entries)


class IssueQueue:
    """Circular-buffer issue queue (16 entries per execution pipeline).

    RiscyOO's issue queue is a circular buffer whose every
    head-equals-tail configuration maps to the empty state; the paper
    contrasts this with priority-ordered queues such as the MIPS R10000's,
    which would need extra scrubbing.  ``age_prioritised=True`` models the
    R10000-style queue for the purge audit's negative test.
    """

    def __init__(self, capacity: int = 16, *, age_prioritised: bool = False) -> None:
        self.capacity = capacity
        self.age_prioritised = age_prioritised
        self._entries: List[Tuple[int, int]] = []   # (slot, sequence)
        self._next_slot = 0

    def occupancy(self) -> int:
        """Number of waiting instructions."""
        return len(self._entries)

    def is_full(self) -> bool:
        """True when the queue cannot accept another instruction."""
        return len(self._entries) >= self.capacity

    def insert(self, sequence: int) -> None:
        """Insert an instruction into the queue."""
        if self.age_prioritised:
            # R10000-style: new instructions take the lowest free slot,
            # and low slots issue first — slot assignment encodes history.
            used = {slot for slot, _ in self._entries}
            slot = next(index for index in range(self.capacity + 1) if index not in used)
        else:
            slot = self._next_slot
            self._next_slot = (self._next_slot + 1) % self.capacity
        self._entries.append((slot, sequence))

    def remove(self, sequence: int) -> None:
        """Remove an issued instruction."""
        self._entries = [(slot, seq) for slot, seq in self._entries if seq != sequence]

    def squash_all(self) -> int:
        """Remove every entry (leaving slot pointers untouched)."""
        squashed = len(self._entries)
        self._entries.clear()
        return squashed

    def snapshot(self) -> tuple:
        """Raw state including the circular pointer / slot assignment."""
        return (tuple(self._entries), self._next_slot)

    def observable_projection(self) -> tuple:
        """Software-observable view of an empty queue.

        For the circular-buffer queue an empty queue is indistinguishable
        for any pointer value, so the projection is just the entry tuple.
        For the age-prioritised variant, slot assignment of *future*
        instructions depends on prior occupancy, so the projection must
        include ``_next_slot``-equivalent state — modelled by returning the
        lowest free slot, which is how the leak would manifest.
        """
        if not self.age_prioritised:
            return tuple(self._entries)
        used = {slot for slot, _ in self._entries}
        lowest_free = next(index for index in range(self.capacity + 1) if index not in used)
        return (tuple(self._entries), lowest_free)
