"""MI6Processor: the single-core evaluation vehicle.

The paper evaluates MI6 by running one SPEC benchmark at a time on a
single core of the FPGA prototype, with the multiprocessor effects (LLC
partition size, MSHR partitioning, arbiter latency) folded into the LLC
configuration exactly as described in Sections 7.2-7.4.  An
:class:`MI6Processor` assembles the same single-core machine from an
:class:`~repro.core.config.MI6Config`: shared LLC and DRAM, one core with
its private hierarchy, the protection-domain plumbing, and (for the FLUSH
style variants) a purge unit wired to the trap path.

The multi-core, multi-domain *functional* platform (security monitor,
untrusted OS, enclaves) lives in :mod:`repro.os_model.machine`; this class
is about timing.
"""

from __future__ import annotations

import weakref
from itertools import count
from typing import Callable, Optional, Tuple, Union

from repro.common.fastpath import slow_path_enabled
from repro.common.rng import DeterministicRng
from repro.common.stats import StatsRegistry
from repro.core.config import MI6Config
from repro.core.protection import ProtectionDomain, RegionBitvector
from repro.core.purge import PurgeUnit
from repro.core.results import WarmState, WorkloadRun
from repro.mem.dram import DramController
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.llc import LastLevelCache
from repro.mem.page_table import PageTable
from repro.ooo.core import OutOfOrderCore
from repro.workloads.generator import PreparedWorkload, SyntheticWorkload
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.spec_cint2006 import profile_for

#: What a machine runs: a live generator, or one built once and shared.
Workload = Union[SyntheticWorkload, PreparedWorkload]


def _weak_call(method: Callable[[], int]) -> Callable[[], int]:
    """Call ``method`` through a weak reference to its object.

    The core holds its purge callback and the purge unit holds the core.
    A weak reference on the core's side keeps the machine free of
    reference cycles, so it is freed by reference counting as soon as
    its run is done instead of whenever the cyclic collector runs.
    """
    reference = weakref.WeakMethod(method)

    def call() -> int:
        bound = reference()
        if bound is None:
            raise RuntimeError("the purge unit of this core's machine was freed")
        return bound()

    return call


class MI6Processor:
    """Single-core machine built from an :class:`MI6Config`."""

    def __init__(self, config: MI6Config, *, seed: int = 2019) -> None:
        self.config = config
        self.seed = seed
        self.stats = StatsRegistry()
        rng = DeterministicRng(seed)
        self.dram = DramController(config.dram, stats=self.stats)
        self.llc = LastLevelCache(
            config.effective_llc_config(),
            config.address_map,
            self.dram,
            rng=rng,
            stats=self.stats,
        )
        self.hierarchy = MemoryHierarchy(
            core_id=0,
            llc=self.llc,
            dram=self.dram,
            address_map=config.address_map,
            rng=rng,
            stats=self.stats,
        )
        self.core = OutOfOrderCore(
            self.hierarchy, config.effective_core_config(), stats=self.stats
        )
        self.purge_unit = PurgeUnit(self.core, self.hierarchy, stats=self.stats)
        if config.flush_on_context_switch:
            self.core.purge_callback = _weak_call(self.purge_unit.execute)
        self.region_bitvector = RegionBitvector(config.address_map, stats=self.stats)
        self._domain: Optional[ProtectionDomain] = None
        # Counter and histogram names the last warm-up registered.
        self._warm_registered: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]] = None

    # ------------------------------------------------------------------
    # Protection-domain setup

    def install_domain(self, domain: ProtectionDomain) -> None:
        """Install a protection domain on the core (what the monitor does)."""
        self._domain = domain
        self.region_bitvector.set_regions(domain.regions)
        self.hierarchy.install_context(
            page_table=domain.page_table,
            region_allowed=self.region_bitvector.is_allowed,
            owner=domain.domain_id,
        )

    def build_workload_domain(
        self, workload: Workload, *, domain_id: int = 1, first_region: int = 1
    ) -> ProtectionDomain:
        """Create a protection domain and page tables for a workload.

        Physical pages are allocated *sequentially* from the base of the
        domain's first DRAM region, mirroring how Linux allocates pages
        for a benchmark started right after boot (Section 7.2) — this is
        the allocation pattern that makes the set-partitioned index
        function produce extra conflict misses.
        """
        address_map = self.config.address_map
        regions = set(
            range(first_region, first_region + self.config.regions_per_enclave)
        )
        domain = ProtectionDomain(
            domain_id=domain_id,
            name=f"domain-{workload.profile.name}",
            regions=regions,
            cores={0},
            is_enclave=True,
        )
        table = PageTable(asid=domain_id)
        base_physical = address_map.region_base(first_region)
        table.root_physical_address = base_physical
        # Reserve the first pages for the page table itself, then map the
        # workload's virtual pages to consecutive physical pages.
        first_frame = (base_physical + table.page_bytes * 8) // table.page_bytes
        table.mappings = dict(zip(workload.virtual_pages(table.page_bytes), count(first_frame)))
        domain.page_table = table
        return domain

    # ------------------------------------------------------------------
    # Running workloads

    def warm_up(self, workload: Workload) -> None:
        """Prime the caches/TLBs with the workload's resident working set.

        The paper measures benchmarks that have been running for a long
        time, so their working sets are resident in the hierarchy.  The
        synthetic generator's reuse-distance draws assume the same; this
        touches the pre-populated line history once and then clears the
        statistics so the measured interval starts from steady state.

        Warm-up is the simulator's fast-forward region: every latency it
        computes is discarded and every counter it bumps is reset below,
        so the fast path primes through the hierarchy's timing accessors
        (identical state/statistics effects, no per-access records).  The
        ``REPRO_SLOW_PATH`` escape hatch keeps the original accessors.
        """
        counters, histograms = self.stats.registered()
        if slow_path_enabled():
            for virtual_address in workload.warmup_addresses():
                self.hierarchy.data_access(virtual_address)
            for virtual_address in workload.warmup_code_addresses():
                self.hierarchy.fetch_access(virtual_address)
        else:
            self.hierarchy.prime_data_timing(workload.warmup_addresses())
            self.hierarchy.prime_fetch_timing(workload.warmup_code_addresses())
        self.stats.reset()
        # Registration order is insertion order: what warm-up added is
        # the tail of each name list.
        after_counters, after_histograms = self.stats.registered()
        self._warm_registered = (
            after_counters[len(counters):],
            after_histograms[len(histograms):],
        )

    def capture_warm_state(self) -> WarmState:
        """Copy of this machine's warmed hierarchy (fast kernel only).

        Call it after :meth:`warm_up` and before the measured run; any
        machine of the same warm class running the same workload can
        :meth:`load_warm_state` it instead of warming up itself.
        """
        if self._warm_registered is None:
            raise RuntimeError("only a machine that has warmed up has a warm state")
        counters, histograms = self._warm_registered
        return WarmState(self.hierarchy.capture_warm_state(), counters, histograms)

    def load_warm_state(self, state: WarmState) -> None:
        """Stand in for :meth:`warm_up` by copying a warmed machine's state.

        Bit-identical to warming up when the state came from a machine of
        the same warm class that warmed up on the same workload.
        """
        self.hierarchy.load_warm_state(state.hierarchy)
        self.stats.register(state.counters, state.histograms)
        self.stats.reset()
        self._warm_registered = (state.counters, state.histograms)

    def load_workload(
        self,
        workload: Workload,
        *,
        warm_up: bool = True,
        warm_state: Optional[WarmState] = None,
    ) -> None:
        """Install the workload's domain and, with ``warm_up``, warm the hierarchy.

        A ``warm_state`` is loaded in place of the warm-up (see
        :meth:`load_warm_state`).
        """
        self.install_domain(self.build_workload_domain(workload))
        if not warm_up:
            return
        if warm_state is None:
            self.warm_up(workload)
        else:
            self.load_warm_state(warm_state)

    def run_loaded(self, workload: Workload, instructions: int) -> WorkloadRun:
        """Run the first ``instructions`` of the loaded workload's stream."""
        result = self.core.run(workload.instructions(instructions))
        return WorkloadRun(
            benchmark=workload.profile.name,
            config_name=self.config.name,
            instructions=result.instructions,
            result=result,
        )

    def run_workload(
        self,
        benchmark: Union[str, WorkloadProfile],
        *,
        instructions: int = 50_000,
        seed: Optional[int] = None,
        warm_up: bool = True,
    ) -> WorkloadRun:
        """Run a benchmark profile to completion and return its timing.

        The single-machine case of the engine's run groups: prepare the
        workload, load it, run it.
        """
        profile = profile_for(benchmark) if isinstance(benchmark, str) else benchmark
        workload = PreparedWorkload(
            SyntheticWorkload(profile, seed=seed if seed is not None else self.seed),
            instructions,
        )
        self.load_workload(workload, warm_up=warm_up)
        return self.run_loaded(workload, instructions)
