"""Multi-core machine model shared by the monitor and the OS.

Each core owns private microarchitectural structures (modelled by a
:class:`~repro.mem.hierarchy.MemoryHierarchy` and an
:class:`~repro.ooo.core.OutOfOrderCore`), a DRAM-region permission
bitvector, and a purge unit; all cores share one LLC and DRAM controller.
The machine is used functionally: the security monitor installs and tears
down protection domains on cores, and the attack/property tests inspect
the shared and private state to check isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.rng import DeterministicRng
from repro.common.stats import StatsRegistry
from repro.core.config import MI6Config
from repro.core.protection import ProtectionDomain, RegionBitvector
from repro.core.purge import PurgeUnit
from repro.mem.dram import DramController
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.llc import LastLevelCache
from repro.ooo.core import OutOfOrderCore


@dataclass
class CoreComplex:
    """One core plus its private structures and protection state.

    ``enforce_protection`` mirrors the presence of the MI6 protection
    hardware (:attr:`repro.core.config.MI6Config.has_protection_hardware`):
    on an insecure BASE machine the region bitvectors still track domain
    ownership but are not wired into the access path, so a hostile OS
    can emit accesses to enclave memory — exactly the hardware
    difference the security evaluation measures.
    """

    core_id: int
    hierarchy: MemoryHierarchy
    core: OutOfOrderCore
    purge_unit: PurgeUnit
    region_bitvector: RegionBitvector
    current_domain: Optional[ProtectionDomain] = None
    purge_count: int = 0
    purge_stall_cycles: int = 0
    enforce_protection: bool = True
    machine_mode_fetch_range: Optional[tuple] = None

    def install_domain(self, domain: Optional[ProtectionDomain]) -> None:
        """Install (or clear) the protection domain running on this core."""
        self.current_domain = domain
        region_allowed = self.region_bitvector.is_allowed if self.enforce_protection else None
        if domain is None:
            self.region_bitvector.set_regions(set())
            self.hierarchy.install_context(None, region_allowed, None)
            return
        self.region_bitvector.set_regions(domain.regions)
        self.hierarchy.install_context(
            page_table=domain.page_table,
            region_allowed=region_allowed,
            owner=domain.domain_id,
        )

    def purge(self) -> int:
        """Execute the purge instruction on this core; returns stall cycles."""
        stall = self.purge_unit.execute()
        self.purge_count += 1
        self.purge_stall_cycles += stall
        return stall


#: Machine seed used when none is given (kept at the historical value so
#: machines built without an explicit seed behave exactly as before).
DEFAULT_MACHINE_SEED = 7


@dataclass
class Machine:
    """A small multiprocessor: N cores, one LLC, one DRAM controller.

    ``seed`` feeds the shared LLC's replacement RNG and each core's
    hierarchy RNG, so experiments that sweep seeds actually perturb the
    machine's stochastic state (it was hardwired to 7 for years).
    """

    config: MI6Config
    num_cores: int = 2
    seed: int = DEFAULT_MACHINE_SEED
    stats: StatsRegistry = field(default_factory=StatsRegistry)
    cores: List[CoreComplex] = field(default_factory=list)
    llc: LastLevelCache = field(init=False)
    dram: DramController = field(init=False)

    def __post_init__(self) -> None:
        rng = DeterministicRng(self.seed)
        self.dram = DramController(self.config.dram, stats=self.stats)
        self.llc = LastLevelCache(
            self.config.effective_llc_config(),
            self.config.address_map,
            self.dram,
            rng=rng,
            stats=self.stats,
        )
        for core_id in range(self.num_cores):
            hierarchy = MemoryHierarchy(
                core_id=core_id,
                llc=self.llc,
                dram=self.dram,
                address_map=self.config.address_map,
                rng=rng.fork("core", core_id),
                stats=self.stats,
            )
            core = OutOfOrderCore(hierarchy, self.config.effective_core_config(), stats=self.stats)
            self.cores.append(
                CoreComplex(
                    core_id=core_id,
                    hierarchy=hierarchy,
                    core=core,
                    purge_unit=PurgeUnit(core, hierarchy, stats=self.stats),
                    region_bitvector=RegionBitvector(self.config.address_map, stats=self.stats),
                    enforce_protection=self.config.has_protection_hardware,
                )
            )

    @property
    def address_map(self):
        """Physical address map of the machine."""
        return self.config.address_map

    def core(self, core_id: int) -> CoreComplex:
        """The core complex with the given id."""
        return self.cores[core_id]

    def purge_audit(self) -> Dict[int, Dict[str, int]]:
        """Per-core purge accounting: executions and accumulated stalls.

        The serving subsystem folds this into each result entry's
        provenance so latency breakdowns are auditable against the
        machine's functional truth (the monitor purges on every
        schedule/deschedule regardless of which variant charges it).
        """
        return {
            core.core_id: {
                "purge_count": core.purge_count,
                "purge_stall_cycles": core.purge_stall_cycles,
            }
            for core in self.cores
        }
