"""Private L1 instruction and data caches.

RiscyOO's L1 caches (Figure 4) are 32 KB, 8-way associative, 64 B lines.
(Figure 4 also gives each 8 outstanding requests; no kernel bounds
them.)  They are core private, coherent
with the inclusive LLC, and time-shared between the programs scheduled on
the core — which is why the purge instruction must flush them
(Section 6.1).  Flushing proceeds one line per cycle because the MSI
coherence protocol requires the L1 to notify the LLC even when
invalidating a clean line (Section 7.1).
"""

from __future__ import annotations

from typing import Optional

from repro.common.rng import DeterministicRng
from repro.common.stats import StatsRegistry
from repro.mem.address import CacheGeometry
from repro.mem.cache import SetAssociativeCache
from repro.mem.replacement import PseudoRandomPolicy


class L1Cache:
    """A private L1 cache (instruction or data).

    Args:
        name: Statistics prefix (``"l1i"`` / ``"l1d"``).
        geometry: Cache geometry (defaults to the Figure 4 configuration).
        hit_latency: Load-to-use latency on a hit, in cycles.
        rng: Random source for the pseudo-random replacement policy.
        stats: Statistics registry.
    """

    #: Lines invalidated per cycle during a purge flush (Section 7.1).
    FLUSH_LINES_PER_CYCLE = 1

    def __init__(
        self,
        name: str,
        geometry: Optional[CacheGeometry] = None,
        *,
        hit_latency: int = 2,
        rng: Optional[DeterministicRng] = None,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.geometry = geometry or CacheGeometry(size_bytes=32 * 1024, ways=8, line_bytes=64)
        self.hit_latency = hit_latency
        policy_rng = (rng or DeterministicRng(0)).fork(name, "replacement")
        self._cache = SetAssociativeCache(
            name=name,
            geometry=self.geometry,
            policy=PseudoRandomPolicy(policy_rng),
            stats=stats,
        )

    @property
    def cache(self) -> SetAssociativeCache:
        """Underlying tag-array model."""
        return self._cache

    @property
    def num_lines(self) -> int:
        """Total number of cache lines (512 for the Figure 4 geometry)."""
        return self.geometry.num_sets * self.geometry.ways

    def flush_all(self) -> int:
        """Invalidate every line; returns the number of valid lines flushed."""
        return self._cache.flush_all()

    def flush_stall_cycles(self) -> int:
        """Cycles the core stalls to flush this cache during a purge.

        One line per cycle over every line of the cache, regardless of how
        many are valid: the flush walks all 512 line slots so its duration
        does not depend on program state (an intentionally
        data-independent duration).
        """
        return self.num_lines // self.FLUSH_LINES_PER_CYCLE
