"""Page tables and the hardware page-table walker.

Each protection domain in MI6 has its own page table (Section 5.3: the
enclave does not share a virtual address space with untrusted software,
and the untrusted OS runs on an identity page table installed by the
security monitor).  The walker model charges memory accesses for each
level of the walk that is not short-circuited by the translation cache,
and — crucially for MI6 — every physical address it touches is subject to
the DRAM-region access check, because speculative page-table walks are
part of a program's physical-address footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.common.errors import ProtectionFault


@dataclass
class PageTable:
    """A per-domain mapping from virtual page numbers to physical page numbers.

    Identity ranges (:meth:`map_identity_pages`) are recorded, not
    inserted: ``mappings`` is built from them the first time anything
    reads it, with the same keys, values and insertion order as inserting
    each range when it was mapped.  Every reader and writer of the table
    (:meth:`map_page`, :meth:`unmap_page`, :meth:`translate`, the memory
    hierarchy and the core's fused lanes) goes through that read, so a
    table nothing translates through, like the OS table of a serving
    machine, never builds its dict.

    Attributes:
        asid: Address-space identifier (informational).
        page_bytes: Page size.
        mappings: Virtual page number -> physical page number.
        walk_levels: Number of levels in the radix walk (Sv39 = 3; we use
            the number of *memory accesses* a full walk performs).
        root_physical_address: Physical address of the root table, used to
            charge the walk's own accesses against the owner's regions.
    """

    asid: int = 0
    page_bytes: int = 4096
    walk_levels: int = 3
    root_physical_address: int = 0
    mappings: Dict[int, int] = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        # Reached only for an attribute the instance lacks: ``mappings``
        # while identity ranges wait to be inserted.
        state = self.__dict__
        if name != "mappings" or "_identity_ranges" not in state:
            raise AttributeError(name)
        mappings = state.pop("_mapped_before_ranges")
        for first_page, num_pages in state.pop("_identity_ranges"):
            pages = range(first_page, first_page + num_pages)
            mappings.update(zip(pages, pages))
        self.mappings = mappings
        return mappings

    def map_page(self, virtual_address: int, physical_address: int) -> None:
        """Map the page containing ``virtual_address`` to ``physical_address``'s page."""
        self.mappings[virtual_address // self.page_bytes] = physical_address // self.page_bytes

    def map_identity_pages(self, first_page: int, num_pages: int) -> None:
        """Identity-map ``num_pages`` pages starting at page number ``first_page``.

        Recorded now and inserted at the next read of ``mappings``, in
        ascending order after everything mapped before: the same
        mappings, in the same order, as calling :meth:`map_page` with
        ``virtual == physical`` page by page.
        """
        state = self.__dict__
        if "mappings" in state:
            state["_mapped_before_ranges"] = state.pop("mappings")
            state["_identity_ranges"] = []
        state["_identity_ranges"].append((first_page, num_pages))

    def unmap_page(self, virtual_address: int) -> None:
        """Remove the mapping for the page containing ``virtual_address``."""
        self.mappings.pop(virtual_address // self.page_bytes, None)

    def translate(self, virtual_address: int) -> Optional[int]:
        """Translate a virtual address, or None if unmapped (page fault)."""
        ppn = self.mappings.get(virtual_address // self.page_bytes)
        if ppn is None:
            return None
        return ppn * self.page_bytes + (virtual_address % self.page_bytes)

    @classmethod
    def identity(cls, size_bytes: int, page_bytes: int = 4096, asid: int = 0) -> PageTable:
        """Identity page table covering ``size_bytes`` of physical memory.

        The untrusted OS uses such a table (Section 6.2) so that it can
        address physical memory transparently while still executing with
        virtual memory on.
        """
        table = cls(asid=asid, page_bytes=page_bytes)
        table.map_identity_pages(0, size_bytes // page_bytes)
        return table

    def mapped_physical_pages(self) -> set:
        """Set of physical page numbers this table maps."""
        return set(self.mappings.values())


@dataclass(frozen=True)
class WalkResult:
    """Outcome of a page-table walk.

    Attributes:
        physical_address: Translated physical address, or None on a fault.
        memory_accesses: Number of page-table memory accesses performed.
        faulted: True if the walk ended in a page fault.
    """

    physical_address: Optional[int]
    memory_accesses: int
    faulted: bool


class PageTableWalker:
    """Walks a :class:`PageTable`, charging memory accesses per level.

    The walker does not model the contents of the page-table pages; it
    charges ``walk_levels - skipped`` memory accesses, where ``skipped``
    comes from the translation cache, and reports the physical addresses
    of those accesses so the caller can (a) run them through the cache
    hierarchy and (b) run them through the DRAM-region protection check.
    """

    def __init__(self, region_check=None) -> None:
        self._region_check = region_check

    def walk(
        self,
        table: PageTable,
        virtual_address: int,
        *,
        levels_skipped: int = 0,
    ) -> WalkResult:
        """Translate ``virtual_address`` through ``table``.

        Raises :class:`ProtectionFault` if the walk itself would touch a
        physical address outside the allowed DRAM regions (the page-walk
        check of Section 5.3).
        """
        accesses = max(0, table.walk_levels - levels_skipped)
        for level in range(accesses):
            # The walk reads one page-table entry per level; we model its
            # physical address as an offset within the root table's page
            # so the protection check sees a concrete address.
            pte_address = table.root_physical_address + level * table.page_bytes
            if self._region_check is not None:
                self._region_check(pte_address)
        physical = table.translate(virtual_address)
        if physical is None:
            return WalkResult(physical_address=None, memory_accesses=accesses, faulted=True)
        if self._region_check is not None:
            try:
                self._region_check(physical)
            except ProtectionFault:
                raise
        return WalkResult(physical_address=physical, memory_accesses=accesses, faulted=False)
