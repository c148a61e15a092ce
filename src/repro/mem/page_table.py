"""Page tables.

Each protection domain in MI6 has its own page table (Section 5.3: the
enclave does not share a virtual address space with untrusted software,
and the untrusted OS runs on an identity page table installed by the
security monitor).  The hardware walk over a table is
:meth:`repro.mem.hierarchy.MemoryHierarchy._translate_miss_tail`: it
charges one memory access for each level the translation cache does not
short-circuit, and — crucially for MI6 — sends every one of them through
the DRAM-region access check, because speculative page-table walks are
part of a program's physical-address footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass
class PageTable:
    """A per-domain mapping from virtual page numbers to physical page numbers.

    Identity ranges (:meth:`map_identity_pages`) are recorded, not
    inserted: ``mappings`` is built from them the first time anything
    reads it, with the same keys, values and insertion order as inserting
    each range when it was mapped.  Every reader and writer of the table
    (:meth:`map_page`, :meth:`translate`, the memory
    hierarchy and the core's fused lanes) goes through that read, so a
    table nothing translates through, like the OS table of a serving
    machine, never builds its dict.

    Attributes:
        page_bytes: Page size.
        mappings: Virtual page number -> physical page number.
        walk_levels: Number of levels in the radix walk (Sv39 = 3; we use
            the number of *memory accesses* a full walk performs).
        root_physical_address: Physical address of the root table, used to
            charge the walk's own accesses against the owner's regions.
    """

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

    def translate(self, virtual_address: int) -> Optional[int]:
        """Translate a virtual address, or None if unmapped (page fault)."""
        ppn = self.mappings.get(virtual_address // self.page_bytes)
        if ppn is None:
            return None
        return ppn * self.page_bytes + (virtual_address % self.page_bytes)
