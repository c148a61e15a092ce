"""Bounded address scans within a party's own DRAM region.

Prime+probe-style attacks need two address computations: the distinct
LLC sets a party can occupy from its region, and addresses within the
region that map to a given set.  Both scans must stay inside the
scanning party's *own* region — the parties' regions are disjoint by
construction, and a scan that wandered past the boundary would touch
(or, on MI6, be suppressed touching) another party's memory and corrupt
the experiment.  The co-scheduled prime+probe scenario
(:mod:`repro.attacks.scenarios`) computes both through the helpers
here: each scan stops at the region's end, and :func:`distinct_sets`
with ``required`` raises when the region reaches fewer sets than asked
for.

:func:`addresses_for_set` strides: within one DRAM region, two lines
:attr:`~repro.mem.address.LlcIndexer.line_period` apart share a set, so
the scan visits only the lines whose line-address index bits equal the
target's, and still checks each against the full index function (so a
scan that crosses a region boundary stays exact).  On the evaluated
``{R[1:0], A[7:0]}`` index a foreign set is unreachable, and the stride
turns that case's 131,072-line walk into 512 visits.  The line-by-line
walk stays as the ``REPRO_SLOW_PATH=1`` reference twin.
"""

from __future__ import annotations

from typing import List

from repro.common.fastpath import slow_path_enabled
from repro.mem.llc import LastLevelCache

#: Cap on how far a scan walks into a region (keeps scans fast when
#: regions are large; the region boundary is the hard limit).
REGION_SCAN_BYTES = 8 * 1024 * 1024

#: Cache-line stride of every scan.
LINE_BYTES = 64


def region_scan_limit(llc: LastLevelCache, region_base: int) -> int:
    """Exclusive end of an address scan starting at ``region_base``."""
    return region_base + min(llc.address_map.region_bytes, REGION_SCAN_BYTES)


def addresses_for_set(
    llc: LastLevelCache, region_base: int, target_set: int, count: int
) -> List[int]:
    """``count`` addresses in the region mapping to ``target_set``.

    Under set partitioning a foreign set may be unreachable from the
    region, in which case the result is simply shorter than ``count``
    (possibly empty).
    """
    if slow_path_enabled():
        return _addresses_for_set_reference(llc, region_base, target_set, count)
    return _addresses_for_set_fast(llc, region_base, target_set, count)


def _addresses_for_set_reference(
    llc: LastLevelCache, region_base: int, target_set: int, count: int
) -> List[int]:
    """The line-by-line scan: every line from ``region_base`` to the limit."""
    addresses: List[int] = []
    candidate = region_base
    limit = region_scan_limit(llc, region_base)
    while len(addresses) < count and candidate < limit:
        if llc.set_index(candidate) == target_set:
            addresses.append(candidate)
        candidate += LINE_BYTES
    return addresses


def _addresses_for_set_fast(
    llc: LastLevelCache, region_base: int, target_set: int, count: int
) -> List[int]:
    """The strided scan: only lines whose line-address index bits match."""
    indexer = llc.indexer
    limit = region_scan_limit(llc, region_base)
    dram_bytes = llc.address_map.dram_bytes
    if indexer.geometry.line_bytes != LINE_BYTES or region_base < 0 or limit > dram_bytes:
        # Outside the stride's assumptions (one scan step per LLC line,
        # and every line of the scan inside DRAM, since the partitioned
        # index raises outside it); no caller scans there.
        return _addresses_for_set_reference(llc, region_base, target_set, count)
    period = indexer.line_period
    # The first line at or after the base whose low index bits match:
    # the scan keeps the base's offset within its line, as the walk does.
    first_line = (target_set - (region_base // LINE_BYTES)) & (period - 1)
    addresses: List[int] = []
    set_index = llc.set_index
    for candidate in range(region_base + first_line * LINE_BYTES, limit, period * LINE_BYTES):
        if len(addresses) >= count:
            break
        if set_index(candidate) == target_set:
            addresses.append(candidate)
    return addresses


def distinct_sets(
    llc: LastLevelCache, region_base: int, count: int, *, required: bool = False
) -> List[int]:
    """First ``count`` distinct LLC sets reachable from the region.

    With ``required`` the shortfall raises instead of returning fewer
    sets: under set partitioning a region reaches only
    ``num_sets >> region_index_bits`` sets, and callers that would loop
    or mis-decode on a short list want the hard error.
    """
    sets: List[int] = []
    candidate = region_base
    limit = region_scan_limit(llc, region_base)
    while len(sets) < count and candidate < limit:
        set_index = llc.set_index(candidate)
        if set_index not in sets:
            sets.append(set_index)
        candidate += LINE_BYTES
    if required and len(sets) < count:
        raise ValueError(
            f"region at {region_base:#x} reaches only {len(sets)} "
            f"distinct LLC sets (requested {count})"
        )
    return sets
