"""Register renaming structures: rename table and physical free list.

Section 6.1 observes that many distinct states of these structures
equivalently describe an empty pipeline — for example every permutation of
a complete free list — and that the purge does not need to canonicalise
them as long as the differences are not observable by software.  The
models here expose both the raw state (for the purge audit) and a
*software-observable projection* used by the audit to check the
indistinguishability argument.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa.instructions import ARCH_REGISTER_COUNT


#: The rename table's initial (identity) mapping, copied on every reset.
_IDENTITY_MAP: Dict[int, int] = {arch: arch for arch in range(ARCH_REGISTER_COUNT)}


class RenameTable:
    """Map from architectural to physical registers."""

    def __init__(self, num_physical: int = 128) -> None:
        self.num_physical = num_physical
        self._map: Dict[int, int] = _IDENTITY_MAP.copy()

    def mapping(self, arch_register: int) -> int:
        """Physical register currently mapped to ``arch_register``."""
        return self._map[arch_register]

    def remap(self, arch_register: int, physical_register: int) -> int:
        """Point ``arch_register`` at a new physical register; return the old one."""
        old = self._map[arch_register]
        self._map[arch_register] = physical_register
        return old

    def reset(self) -> None:
        """Restore the identity mapping (architectural state re-established)."""
        self._map = _IDENTITY_MAP.copy()

    def snapshot(self) -> tuple:
        """Raw mapping state."""
        return tuple(sorted(self._map.items()))

    def observable_projection(self) -> tuple:
        """What software can observe of the mapping: nothing but arity.

        Software cannot name physical registers; only the number of
        architectural registers is visible.  The purge audit compares this
        projection before/after a purge.
        """
        return (len(self._map),)


class FreeList:
    """Free list of physical registers.

    A *complete* free list (every non-architectural physical register
    free) indicates an empty pipeline regardless of ordering; the purge
    audit uses :meth:`observable_projection` to express that permutations
    are indistinguishable to software.
    """

    def __init__(self, num_physical: int = 128) -> None:
        self.num_physical = num_physical
        self._free: List[int] = list(range(ARCH_REGISTER_COUNT, num_physical))

    @property
    def capacity(self) -> int:
        """Number of physical registers that can ever be free."""
        return self.num_physical - ARCH_REGISTER_COUNT

    def allocate(self) -> Optional[int]:
        """Take a free physical register (None when exhausted)."""
        if not self._free:
            return None
        return self._free.pop(0)

    def release(self, physical_register: int) -> None:
        """Return a physical register to the free list."""
        self._free.append(physical_register)

    def is_complete(self) -> bool:
        """True when every renameable physical register is free."""
        return len(self._free) == self.capacity

    def reset(self, *, permute_with=None) -> None:
        """Refill the free list completely.

        ``permute_with`` optionally shuffles the refill order, modelling
        the fact that the hardware purge leaves the free list in *some*
        complete permutation rather than a canonical one.
        """
        self._free = list(range(ARCH_REGISTER_COUNT, self.num_physical))
        if permute_with is not None:
            permute_with.shuffle(self._free)

    def snapshot(self) -> tuple:
        """Raw free-list contents including ordering."""
        return tuple(self._free)

    def observable_projection(self) -> tuple:
        """Software-observable view: only the set of free registers."""
        return tuple(sorted(self._free))

    def __len__(self) -> int:
        return len(self._free)
