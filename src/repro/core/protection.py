"""Protection domains and the per-core DRAM-region access bitvector.

Section 5.3: each MI6 core has a machine-mode-modifiable bitvector with a
bit per DRAM region.  Every physical access — demand or speculative,
instruction fetch, data access, or page-table walk — is checked against
the bitvector; accesses outside the allowed regions are simply not emitted
to the memory system, and raise an exception only if they become
non-speculative.  This is what confines even mis-speculated accesses to
the protection domain's own cache sets.

A :class:`ProtectionDomain` groups the resources the security monitor
assigns to one isolated party: a set of DRAM regions, a set of cores, and
a page table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.common.errors import ConfigurationError, ProtectionFault
from repro.common.stats import StatsRegistry
from repro.mem.address import AddressMap
from repro.mem.page_table import PageTable


class RegionBitvector:
    """Per-core DRAM-region permission bitvector (machine-mode writable)."""

    def __init__(self, address_map: AddressMap, stats: Optional[StatsRegistry] = None) -> None:
        self.address_map = address_map
        self._bits = 0
        self._stats = stats or StatsRegistry()
        # Hot-path constants and lazily cached counter handles: the check
        # runs on every physical access the hierarchy emits.
        self._dram_bytes = address_map.dram_bytes
        self._region_bytes = address_map.region_bytes
        self._c_out_of_dram: Optional[object] = None
        self._c_denied: Optional[object] = None

    @property
    def value(self) -> int:
        """Raw bitvector value (bit ``i`` set means region ``i`` accessible)."""
        return self._bits

    def grant(self, region: int) -> None:
        """Allow access to one DRAM region."""
        if not 0 <= region < self.address_map.num_regions:
            raise ConfigurationError(f"region {region} out of range")
        self._bits |= 1 << region

    def revoke(self, region: int) -> None:
        """Remove access to one DRAM region."""
        self._bits &= ~(1 << region)

    def set_regions(self, regions: Set[int]) -> None:
        """Replace the bitvector with exactly the given regions."""
        self._bits = 0
        for region in regions:
            self.grant(region)

    def allowed_regions(self) -> Set[int]:
        """Set of regions currently accessible."""
        return {
            region
            for region in range(self.address_map.num_regions)
            if self._bits & (1 << region)
        }

    def is_allowed(self, physical_address: int) -> bool:
        """Check a physical access against the bitvector.

        Speculative accesses that fail the check are *not emitted*; this
        predicate is what the memory hierarchy consults before touching
        any cache or DRAM state.
        """
        if physical_address < 0 or physical_address >= self._dram_bytes:
            counter = self._c_out_of_dram
            if counter is None:
                counter = self._c_out_of_dram = self._stats.counter("protection.out_of_dram")
            counter.value += 1
            return False
        if self._bits & (1 << (physical_address // self._region_bytes)):
            return True
        counter = self._c_denied
        if counter is None:
            counter = self._c_denied = self._stats.counter("protection.denied")
        counter.value += 1
        return False

    def check_or_fault(self, physical_address: int) -> None:
        """Raise :class:`ProtectionFault` for a non-speculative violation."""
        if not self.is_allowed(physical_address):
            region = (
                self.address_map.region_of(physical_address)
                if self.address_map.contains(physical_address)
                else -1
            )
            raise ProtectionFault(physical_address, region)


@dataclass
class ProtectionDomain:
    """A non-overlapping allocation of machine resources.

    Attributes:
        domain_id: Unique identifier (also used as the cache owner label).
        name: Human-readable name ("os", "enclave-0", "monitor", ...).
        regions: DRAM regions owned by the domain.
        cores: Cores currently assigned to the domain.
        page_table: The domain's page table (None until it is built).
        is_enclave: True for enclave domains (stricter transition rules).
        is_monitor: True for the security monitor's own domain.
    """

    domain_id: int
    name: str
    regions: Set[int] = field(default_factory=set)
    cores: Set[int] = field(default_factory=set)
    page_table: Optional[PageTable] = None
    is_enclave: bool = False
    is_monitor: bool = False

    def overlaps(self, other: ProtectionDomain) -> bool:
        """True if the two domains share any DRAM region or core."""
        return bool(self.regions & other.regions) or bool(self.cores & other.cores)

    def owns_address(self, physical_address: int, address_map: AddressMap) -> bool:
        """True if the physical address lies in one of the domain's regions."""
        if not address_map.contains(physical_address):
            return False
        return address_map.region_of(physical_address) in self.regions

    def build_identity_table(self, address_map: AddressMap) -> PageTable:
        """Identity page table over the domain's regions (for the OS domain).

        The table records one identity range per region and builds its
        8,192-page-per-region dict only when something first reads its
        mappings (:class:`~repro.mem.page_table.PageTable`), so a machine
        that installs the OS but never translates through its table
        never pays for it.
        """
        table = PageTable(asid=self.domain_id)
        for region in sorted(self.regions):
            first_page = address_map.region_base(region) // table.page_bytes
            table.map_identity_pages(first_page, address_map.pages_per_region)
        table.root_physical_address = (
            address_map.region_base(min(self.regions)) if self.regions else 0
        )
        self.page_table = table
        return table
