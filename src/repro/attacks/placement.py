"""Core and DRAM-region roles of the co-scheduled security scenarios.

Every scenario puts the attacker on core 0 (:data:`ATTACKER_CORE`) and
the victim on core 1 (:data:`VICTIM_CORE`) of a machine with
``num_cores >= 2``; every remaining core hosts a *bystander* protection
domain with its own disjoint DRAM region.  Bystanders matter even when
idle — each core's queues own a slot in the LLC's round-robin arbiter,
so the ARB entry latency and the MSHR partition arithmetic both scale
with the machine size — and scenarios can hand them background traffic
to model a realistically loaded machine.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.common.errors import ConfigurationError

#: Cores of the two principal parties.
ATTACKER_CORE = 0
VICTIM_CORE = 1

#: DRAM regions of the two principal parties (always disjoint: the
#: attacks are about *shared-structure* leakage, never direct access).
ATTACKER_REGIONS = frozenset({8, 40, 41})
VICTIM_REGIONS = frozenset({9, 10})

#: First DRAM region handed to bystander domains (the allocator walks
#: upward from here, skipping anything the principals own).
_BYSTANDER_FIRST_REGION = 11


def bystander_cores(num_cores: int) -> Tuple[int, ...]:
    """The cores beyond the attacker and victim, each hosting a bystander."""
    if num_cores < 2:
        raise ConfigurationError(
            "co-scheduled scenarios need at least two cores (attacker + victim)"
        )
    return tuple(range(VICTIM_CORE + 1, num_cores))


def bystander_regions(core_id: int, num_cores: int, num_regions: int) -> FrozenSet[int]:
    """DRAM regions of the bystander domain on ``core_id``.

    Each bystander gets one region, allocated deterministically and
    disjoint from the attacker's and victim's regions (and from the
    other bystanders').
    """
    reserved = ATTACKER_REGIONS | VICTIM_REGIONS
    # Keep bystanders in LLC partition 3 (region mod 4, matching the
    # evaluation's two region-index bits): the principals' regions
    # occupy partitions 0-2, so under set partitioning bystander
    # traffic can never evict a monitored or secret-bearing set and
    # turn the background load into false leakage.
    available = [
        region
        for region in range(_BYSTANDER_FIRST_REGION, num_regions)
        if region not in reserved and region % 4 == 3
    ]
    cores = bystander_cores(num_cores)
    position = cores.index(core_id)
    if position >= len(available):
        raise ConfigurationError(f"not enough DRAM regions for {len(cores)} bystanders")
    return frozenset({available[position]})
