"""Load-store queue and store buffer.

Figure 4: 24-entry load queue, 14-entry store queue, and a 4-entry store
buffer of 64-byte entries.  The timing model uses the capacities; the
purge audit uses the snapshots.  The load queue also records, for each
in-flight load, whether it was issued speculatively — the hook the
Spectre-style attack model uses to mark wrong-path accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class LoadStoreEntry:
    """One in-flight memory operation."""

    sequence: int
    address: int
    is_store: bool
    speculative: bool = False


class LoadStoreQueue:
    """Split load queue / store queue with bounded capacities."""

    def __init__(self, load_entries: int = 24, store_entries: int = 14) -> None:
        self.load_entries = load_entries
        self.store_entries = store_entries
        self._loads: List[LoadStoreEntry] = []
        self._stores: List[LoadStoreEntry] = []

    def insert(self, entry: LoadStoreEntry) -> None:
        """Insert an in-flight memory operation."""
        if entry.is_store:
            self._stores.append(entry)
        else:
            self._loads.append(entry)

    def retire(self, sequence: int) -> Optional[LoadStoreEntry]:
        """Remove the operation with the given sequence number."""
        for queue in (self._loads, self._stores):
            for index, entry in enumerate(queue):
                if entry.sequence == sequence:
                    return queue.pop(index)
        return None

    def squash_all(self) -> int:
        """Remove every in-flight operation (misprediction / trap / purge)."""
        squashed = len(self._loads) + len(self._stores)
        self._loads.clear()
        self._stores.clear()
        return squashed

    def occupancy(self) -> int:
        """Total in-flight memory operations."""
        return len(self._loads) + len(self._stores)

    def speculative_loads(self) -> List[LoadStoreEntry]:
        """In-flight loads marked speculative."""
        return [entry for entry in self._loads if entry.speculative]

    def snapshot(self) -> tuple:
        """Raw state of both queues."""
        loads = tuple((entry.sequence, entry.address, entry.speculative) for entry in self._loads)
        stores = tuple((entry.sequence, entry.address) for entry in self._stores)
        return (loads, stores)

    def observable_projection(self) -> tuple:
        """Software-observable view (the entries themselves)."""
        return self.snapshot()


class StoreBuffer:
    """Small post-commit store buffer (4 entries of 64 bytes)."""

    def __init__(self, entries: int = 4, entry_bytes: int = 64) -> None:
        self.entries = entries
        self.entry_bytes = entry_bytes
        self._buffer: List[int] = []   # line addresses of buffered stores

    def is_full(self) -> bool:
        """True when the buffer cannot accept another store."""
        return len(self._buffer) >= self.entries

    def push(self, line_address: int) -> Optional[int]:
        """Buffer a committed store; returns a drained line when full."""
        drained = None
        if self.is_full():
            drained = self._buffer.pop(0)
        self._buffer.append(line_address)
        return drained

    def drain_all(self) -> List[int]:
        """Drain every buffered store (required before a purge completes)."""
        drained = list(self._buffer)
        self._buffer.clear()
        return drained

    def occupancy(self) -> int:
        """Number of buffered stores."""
        return len(self._buffer)

    def snapshot(self) -> tuple:
        """Raw buffer contents."""
        return tuple(self._buffer)

    def observable_projection(self) -> tuple:
        """Software-observable view (the buffered lines)."""
        return tuple(self._buffer)
