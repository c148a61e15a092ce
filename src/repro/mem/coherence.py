"""MSI coherence states and the LLC directory.

The LLC of RiscyOO uses an MSI directory-based coherence protocol and
communicates with each core's L1 over a dedicated link of three FIFOs
(Section 5.4.1): upgrade requests from the L1, downgrade responses from
the L1, and upgrade responses / downgrade requests from the LLC.  The
detailed LLC model (:mod:`repro.mem.llc_detail`) keeps its own request
records in those queues and consults the :class:`Directory` here for
which L1s hold a line and in what state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Dict, Optional, Set


class CoherenceState(Enum):
    """MSI states tracked by the directory for each L1."""

    INVALID = auto()
    SHARED = auto()
    MODIFIED = auto()


@dataclass
class DirectoryEntry:
    """Directory state for one cache line."""

    owners: Set[int] = field(default_factory=set)
    modified_owner: Optional[int] = None

    def holders_other_than(self, core: int) -> Set[int]:
        """Cores other than ``core`` that currently hold the line."""
        return {owner for owner in self.owners if owner != core}


class Directory:
    """Tracks which L1s hold which lines and in what state."""

    def __init__(self) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}

    def entry(self, line_address: int) -> DirectoryEntry:
        """Directory entry for a line, created on demand."""
        if line_address not in self._entries:
            self._entries[line_address] = DirectoryEntry()
        return self._entries[line_address]

    def grant(self, core: int, line_address: int, want_modified: bool) -> CoherenceState:
        """Record that ``core`` now holds ``line_address``."""
        entry = self.entry(line_address)
        entry.owners.add(core)
        if want_modified:
            entry.modified_owner = core
            entry.owners = {core}
            return CoherenceState.MODIFIED
        return CoherenceState.SHARED

    def revoke(self, core: int, line_address: int) -> None:
        """Record that ``core`` no longer holds ``line_address``."""
        entry = self.entry(line_address)
        entry.owners.discard(core)
        if entry.modified_owner == core:
            entry.modified_owner = None

    def needed_downgrades(self, core: int, line_address: int, want_modified: bool) -> Set[int]:
        """Cores that must downgrade before the request can be granted."""
        entry = self.entry(line_address)
        if want_modified:
            return entry.holders_other_than(core)
        if entry.modified_owner is not None and entry.modified_owner != core:
            return {entry.modified_owner}
        return set()
