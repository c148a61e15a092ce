"""Prime+probe on the shared LLC.

The attacker primes LLC sets with its own lines, lets the victim run, then
probes its lines: a probe miss means the victim touched that set, leaking
the victim's secret-dependent access pattern.  Under MI6's set
partitioning (disjoint DRAM regions map to disjoint sets), the victim can
never evict the attacker's lines, so the probe observes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.attacks.addressing import addresses_for_set, distinct_sets
from repro.common.rng import DeterministicRng
from repro.core.config import LlcConfig
from repro.mem.address import AddressMap, CacheGeometry, IndexFunction
from repro.mem.dram import DramController
from repro.mem.llc import LastLevelCache


@dataclass(frozen=True)
class PrimeProbeResult:
    """Outcome of one prime+probe experiment.

    Attributes:
        observed_sets: LLC sets where the attacker's lines were evicted.
        secret_sets: Sets the victim actually touched (ground truth).
        leaked_bits: Number of secret sets the attacker correctly observed.
    """

    observed_sets: Set[int]
    secret_sets: Set[int]
    leaked_bits: int

    @property
    def leaked(self) -> bool:
        """True if the attacker learned anything about the victim's accesses."""
        return self.leaked_bits > 0


class PrimeProbeAttack:
    """Prime+probe experiment against a (shared) functional LLC model.

    Args:
        set_partitioned: Whether the LLC uses the MI6 index function
            (the defence under test).
        attacker_region / victim_region: DRAM regions of the two parties
            (always disjoint — the attack is about *cache* sharing).
    """

    def __init__(
        self,
        *,
        set_partitioned: bool,
        attacker_region: int = 8,
        victim_region: int = 9,
        ways: int = 16,
    ) -> None:
        self.address_map = AddressMap()
        self.set_partitioned = set_partitioned
        self.attacker_region = attacker_region
        self.victim_region = victim_region
        index_function = (
            IndexFunction.SET_PARTITIONED if set_partitioned else IndexFunction.BASELINE
        )
        config = LlcConfig(
            geometry=CacheGeometry(size_bytes=1024 * 1024, ways=ways, line_bytes=64),
            index_function=index_function,
            region_index_bits=6,
        )
        self.llc = LastLevelCache(config, self.address_map, DramController(), rng=DeterministicRng(1))
        self.ways = ways

    def _addresses_for_set(self, region: int, target_set: int, count: int) -> List[int]:
        """Addresses within ``region`` that map to ``target_set``."""
        return addresses_for_set(
            self.llc, self.address_map.region_base(region), target_set, count
        )

    def _monitored_sets(self, count: int) -> List[int]:
        """The first ``count`` distinct LLC sets the attacker can occupy.

        The scan is bounded to the attacker's own DRAM region (like
        :meth:`_addresses_for_set`): under set partitioning the attacker
        can only ever reach the sets its region maps to, so an unbounded
        scan would walk into other parties' regions — monitoring sets the
        attacker cannot legally occupy — or never terminate when fewer
        than ``count`` distinct sets are reachable (the ``required``
        shortfall raises instead).
        """
        return distinct_sets(
            self.llc,
            self.address_map.region_base(self.attacker_region),
            count,
            required=True,
        )

    def run(self, victim_secret: int, *, monitored_sets: int = 8) -> PrimeProbeResult:
        """Run one round of prime / victim access / probe.

        The victim's "secret" selects which cache set its accesses fall
        into.  On the baseline LLC the victim's region shares sets with
        the attacker's, so the probe reveals the secret; under MI6 set
        partitioning the victim physically cannot reach the attacker's
        sets and the probe observes nothing.
        """
        monitored = self._monitored_sets(monitored_sets)
        target_set = monitored[victim_secret % monitored_sets]
        secret_sets = {target_set}

        # Prime: fill the monitored sets with attacker lines.
        primed: dict = {}
        for target in monitored:
            primed[target] = self._addresses_for_set(self.attacker_region, target, self.ways)
            for address in primed[target]:
                self.llc.access(address, core=0, owner=0)

        # Victim runs: its secret-dependent accesses land in ``target_set``
        # when the index function lets its region reach that set at all.
        victim_addresses = self._addresses_for_set(self.victim_region, target_set, self.ways + 2)
        if not victim_addresses:
            # Set partitioning confines the victim to its own sets; it
            # still executes, touching its private addresses.
            victim_base = self.address_map.region_base(self.victim_region)
            victim_addresses = [victim_base + index * 64 for index in range(self.ways + 2)]
        for address in victim_addresses:
            self.llc.access(address, core=1, owner=1)

        # Probe: any primed line that is gone reveals victim activity.
        observed = set()
        for target, addresses in primed.items():
            if any(not self.llc.lookup(address) for address in addresses):
                observed.add(target)
        leaked_bits = len(observed & secret_sets)
        return PrimeProbeResult(
            observed_sets=observed, secret_sets=secret_sets, leaked_bits=leaked_bits
        )
