"""Physical address map, DRAM regions, and LLC index functions.

MI6 divides physical memory into equally sized, contiguous DRAM regions
(Section 5.2).  The DRAM-region ID is formed from the highest bits of the
physical address, and the MI6 LLC replaces the *top* bits of the baseline
cache index with the low bits of the region ID so that different regions
map to disjoint cache sets (set partitioning / page colouring).

The evaluation in Section 7.2 approximates a 16-core, 16 MB LLC machine on
a single core by changing the 1 MB LLC's index function from ``A[9:0]`` to
``{R[1:0], A[7:0]}`` where ``R`` is the DRAM-region ID.  Both index
functions are implemented here and selected per processor variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from repro.common.errors import ConfigurationError


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _log2(value: int) -> int:
    return value.bit_length() - 1


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of a set-associative cache.

    Attributes:
        size_bytes: Total capacity.
        ways: Associativity.
        line_bytes: Cache-line size.
    """

    size_bytes: int
    ways: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        for name in ("size_bytes", "ways", "line_bytes"):
            if not _is_power_of_two(getattr(self, name)):
                raise ConfigurationError(f"cache geometry field {name} must be a power of two")
        if self.size_bytes < self.ways * self.line_bytes:
            raise ConfigurationError("cache smaller than a single set")
        # Derived values are consulted on every cache access; compute them
        # once here instead of re-deriving logarithms per lookup.  They are
        # not dataclass fields, so serialisation and equality are untouched.
        num_sets = self.size_bytes // (self.ways * self.line_bytes)
        object.__setattr__(self, "_num_sets", num_sets)
        object.__setattr__(self, "_offset_bits", _log2(self.line_bytes))
        object.__setattr__(self, "_index_bits", _log2(num_sets))

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self._num_sets

    @property
    def offset_bits(self) -> int:
        """Number of line-offset bits."""
        return self._offset_bits

    @property
    def index_bits(self) -> int:
        """Number of set-index bits."""
        return self._index_bits

    def line_address(self, address: int) -> int:
        """Cache-line address (the physical address without the offset)."""
        return address >> self._offset_bits


class IndexFunction(Enum):
    """How the LLC maps a line address to a set index."""

    BASELINE = auto()
    """Low-order line-address bits, as in the insecure BASE processor."""

    SET_PARTITIONED = auto()
    """MI6 indexing: high bits of the index come from the DRAM-region ID."""


@dataclass(frozen=True)
class AddressMap:
    """Physical memory layout: total DRAM size and region count.

    Attributes:
        dram_bytes: Total physical memory (2 GB in the paper's Figure 4).
        num_regions: Number of equally sized DRAM regions (64 in the
            paper's discussion: the top 6 physical-address bits).
        page_bytes: Page size; each DRAM region must be page aligned.
    """

    dram_bytes: int = 2 * 1024 * 1024 * 1024
    num_regions: int = 64
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.dram_bytes):
            raise ConfigurationError("dram_bytes must be a power of two")
        if not _is_power_of_two(self.num_regions):
            raise ConfigurationError("num_regions must be a power of two")
        if not _is_power_of_two(self.page_bytes):
            raise ConfigurationError("page_bytes must be a power of two")
        if self.region_bytes % self.page_bytes != 0:
            raise ConfigurationError("DRAM regions must hold a whole number of pages")

    @property
    def region_bytes(self) -> int:
        """Size of one DRAM region."""
        return self.dram_bytes // self.num_regions

    @property
    def pages_per_region(self) -> int:
        """Number of 4 KB pages per DRAM region."""
        return self.region_bytes // self.page_bytes

    def region_of(self, physical_address: int) -> int:
        """DRAM-region ID of a physical address (its highest bits)."""
        if physical_address < 0 or physical_address >= self.dram_bytes:
            raise ConfigurationError(
                f"physical address {physical_address:#x} outside DRAM of size {self.dram_bytes:#x}"
            )
        return physical_address // self.region_bytes

    def region_base(self, region: int) -> int:
        """Base physical address of a DRAM region."""
        if region < 0 or region >= self.num_regions:
            raise ConfigurationError(f"region {region} out of range")
        return region * self.region_bytes

    def contains(self, physical_address: int) -> bool:
        """True if ``physical_address`` lies inside DRAM."""
        return 0 <= physical_address < self.dram_bytes


def dram_region_of(physical_address: int, address_map: AddressMap) -> int:
    """Convenience wrapper mirroring the hardware DRAM-region extraction."""
    return address_map.region_of(physical_address)


class LlcIndexer:
    """Computes LLC set indices under the baseline or MI6 index function.

    For a line address ``A`` (physical address shifted right by the line
    offset) and a DRAM-region ID ``R``:

    * baseline index: ``A mod num_sets`` (``A[index_bits-1:0]``),
    * partitioned index: ``{R[region_index_bits-1:0], A[low_bits-1:0]}``
      where ``region_index_bits`` bits of the index are taken from the
      region ID.  With 4 regions allocated to a protection domain (as in
      Section 7.2) only the low 2 region bits vary, which is exactly the
      ``{R[1:0], A[7:0]}`` indexing the paper evaluates.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        address_map: AddressMap,
        index_function: IndexFunction,
        region_index_bits: int = 2,
    ) -> None:
        if region_index_bits < 0 or region_index_bits > geometry.index_bits:
            raise ConfigurationError("region_index_bits must fit within the cache index")
        self._geometry = geometry
        self._address_map = address_map
        self._index_function = index_function
        self._region_index_bits = region_index_bits
        # Precomputed shifts and masks: set_index is called on every LLC
        # access, so the decomposition must not re-derive anything.
        self._offset_bits = geometry.offset_bits
        self._set_mask = geometry.num_sets - 1
        self._baseline = index_function is IndexFunction.BASELINE
        self._low_bits = geometry.index_bits - region_index_bits
        self._low_mask = (1 << self._low_bits) - 1
        self._region_mask = (1 << region_index_bits) - 1
        self._region_bytes = address_map.region_bytes
        self._dram_bytes = address_map.dram_bytes
        self._line_period = geometry.num_sets if self._baseline else 1 << self._low_bits

    @property
    def index_function(self) -> IndexFunction:
        """Which index function this indexer implements."""
        return self._index_function

    @property
    def geometry(self) -> CacheGeometry:
        """Cache geometry this indexer targets."""
        return self._geometry

    @property
    def line_period(self) -> int:
        """Lines after which the index's line-address bits repeat.

        ``num_sets`` under the baseline function, and
        ``2**(index_bits - region_index_bits)`` under set partitioning,
        whose remaining index bits come from the region ID.  Two lines
        this far apart within one DRAM region map to the same set, and
        the low ``log2(line_period)`` bits of a set index are exactly
        those line-address bits.
        """
        return self._line_period

    def set_index(self, physical_address: int) -> int:
        """Set index for a physical address."""
        line = physical_address >> self._offset_bits
        if self._baseline:
            return line & self._set_mask
        if physical_address < 0 or physical_address >= self._dram_bytes:
            # Delegate to the address map for its canonical error message.
            self._address_map.region_of(physical_address)
        region_part = (physical_address // self._region_bytes) & self._region_mask
        return (region_part << self._low_bits) | (line & self._low_mask)

    def tag(self, physical_address: int) -> int:
        """Tag stored for a physical address (everything above the line offset)."""
        return physical_address >> self._offset_bits
