"""Machine configuration: Figure 4 parameters plus the MI6 switches.

A single :class:`MI6Config` describes both the baseline machine and any of
the secured variants; the evaluation variants of Section 7 are produced by
the mitigation registry (:mod:`repro.core.mitigations`) as specific
settings of the security switches.
The core's :class:`CoreConfig` and the LLC's :class:`LlcConfig` live here
beside it, so a configuration can be built, hashed and decoded without
importing the timing models that consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigurationError
from repro.mem.address import AddressMap, CacheGeometry, IndexFunction
from repro.mem.dram import DramConfig
from repro.mem.mshr import MshrConfig


@dataclass(frozen=True)
class CoreConfig:
    """Parameters of the core timing model (Figure 4 defaults).

    Attributes:
        fetch_width: Instructions fetched/renamed per cycle.
        commit_width: Instructions committed per cycle.
        rob_entries: Reorder-buffer capacity; at least 1 and at least
            ``commit_width``.
        frontend_depth: Cycles from fetch to dispatch.
        load_queue_entries / store_queue_entries / store_buffer_entries:
            Load-store unit capacities of Figure 4.  No kernel bounds
            load-queue, store-queue or store-buffer occupancy: these
            fields are printed by :meth:`MI6Config.describe` and hashed
            into cache keys, but no timing reads them.
        alu_units / mem_units / fp_units: Execution pipelines.
        mul_div_latency / fp_latency: Long-operation latencies.
        mispredict_penalty: Redirect cycles after a resolved misprediction
            (on top of the front-end refill).
        trap_interval_instructions: Deliver a timer interrupt every N
            committed instructions (0 disables timer traps).
        trap_handler_cycles: Cycles spent in the OS trap handler.
        trap_redirect_penalty: Pipeline-drain cycles on trap entry/exit.
        flush_on_trap: FLUSH variant — purge microarchitectural state on
            every trap entry and exit.
        nonspec_memory: NONSPEC variant — memory instructions are not
            renamed until the ROB is empty.
    """

    fetch_width: int = 2
    commit_width: int = 2
    rob_entries: int = 80
    frontend_depth: int = 6
    load_queue_entries: int = 24
    store_queue_entries: int = 14
    store_buffer_entries: int = 4
    alu_units: int = 2
    mem_units: int = 1
    fp_units: int = 1
    mul_div_latency: int = 8
    fp_latency: int = 4
    mispredict_penalty: int = 3
    trap_interval_instructions: int = 0
    trap_handler_cycles: int = 400
    trap_redirect_penalty: int = 10
    flush_on_trap: bool = False
    nonspec_memory: bool = False

    def __post_init__(self) -> None:
        # The commit-width rule reads the commit cycle commit_width
        # instructions back from the ROB's ring of commit cycles.
        if self.rob_entries < max(1, self.commit_width):
            raise ConfigurationError("rob_entries must be at least 1 and at least commit_width")


@dataclass(frozen=True)
class LlcConfig:
    """LLC organisation.

    Attributes:
        geometry: Cache geometry (Figure 4: 1 MB, 16-way, 64 B lines).
        hit_latency: LLC hit latency seen by the L1 on top of its own.
        index_function: Baseline or MI6 set-partitioned indexing.
        region_index_bits: Index bits taken from the DRAM-region ID when
            set partitioning is enabled (2 in the Section 7.2 evaluation).
        extra_pipeline_latency: Added cycles at the cache-access pipeline
            entry (models the round-robin arbiter; 8 for a 16-core MI6).
        mshr: MSHR file organisation.
    """

    geometry: CacheGeometry = CacheGeometry(size_bytes=1024 * 1024, ways=16, line_bytes=64)
    hit_latency: int = 16
    index_function: IndexFunction = IndexFunction.BASELINE
    region_index_bits: int = 2
    extra_pipeline_latency: int = 0
    mshr: MshrConfig = MshrConfig()


@dataclass(frozen=True)
class MI6Config:
    """Full machine configuration.

    Attributes:
        name: Human-readable configuration name (e.g. ``"BASE"``).
        num_cores: Cores in the conceptual multiprocessor.  The evaluation
            approximates a 16-core machine on one core (Section 7.2); this
            value is used for arbiter latency (N/2) and MSHR partitioning
            arithmetic.
        address_map: DRAM size and region layout.
        core: Core timing parameters and variant switches.
        llc: LLC organisation (index function, MSHRs, arbiter latency).
        dram: DRAM controller parameters.
        flush_on_context_switch: FLUSH — purge core-private state on every
            trap entry/exit.
        set_partition_llc: PART — use the DRAM-region-aware LLC index.
        partition_mshrs: MISS — partition and re-size the LLC MSHRs.
        llc_arbiter: ARB — charge the round-robin arbiter's entry latency.
        nonspec_memory: NONSPEC — memory instructions wait for an empty ROB.
        machine_mode_fetch_restricted: Restrict machine-mode instruction
            fetch to the security monitor's text (Section 6.2).  No
            kernel enforces it: no run fetches in machine mode.  It stays
            because every cache key hashes it (ROADMAP item 7).
        trap_interval_instructions: Timer-trap period used in evaluation
            runs (scaled with run length; see EXPERIMENTS.md).
        regions_per_enclave: DRAM regions allocated to the protection
            domain under evaluation (4 in Section 7.2, i.e. 2 index bits).
    """

    name: str = "BASE"
    num_cores: int = 16
    address_map: AddressMap = field(default_factory=AddressMap)
    core: CoreConfig = field(default_factory=CoreConfig)
    llc: LlcConfig = field(default_factory=LlcConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    flush_on_context_switch: bool = False
    set_partition_llc: bool = False
    partition_mshrs: bool = False
    llc_arbiter: bool = False
    nonspec_memory: bool = False
    machine_mode_fetch_restricted: bool = True
    trap_interval_instructions: int = 20_000
    regions_per_enclave: int = 4

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError("num_cores must be positive")
        if self.regions_per_enclave < 1:
            raise ConfigurationError("an enclave needs at least one DRAM region")
        if self.regions_per_enclave > self.address_map.num_regions:
            raise ConfigurationError("regions_per_enclave exceeds the number of DRAM regions")

    # ------------------------------------------------------------------
    # Derived configurations

    @property
    def has_protection_hardware(self) -> bool:
        """Whether the machine ships the MI6 protection hardware.

        The DRAM-region protection checker (Section 5.3) is part of
        every secured MI6 machine; the insecure BASE processor has none.
        Any of the variant switches marks the machine as an MI6 build.
        """
        return bool(
            self.flush_on_context_switch
            or self.set_partition_llc
            or self.partition_mshrs
            or self.llc_arbiter
            or self.nonspec_memory
        )

    def effective_core_config(self) -> CoreConfig:
        """Core configuration with the variant switches applied."""
        return replace(
            self.core,
            flush_on_trap=self.flush_on_context_switch,
            nonspec_memory=self.nonspec_memory,
            trap_interval_instructions=self.trap_interval_instructions,
        )

    def effective_llc_config(self) -> LlcConfig:
        """LLC configuration with the variant switches applied."""
        index_function = (
            IndexFunction.SET_PARTITIONED if self.set_partition_llc else IndexFunction.BASELINE
        )
        region_index_bits = max(1, (self.regions_per_enclave - 1).bit_length())
        extra_latency = self.num_cores // 2 if self.llc_arbiter else 0
        if self.partition_mshrs:
            # Section 7.3: dmax/2 = 12 MSHRs for the evaluated machine,
            # sliced into 4 banks, with the pessimistic whole-file stall.
            mshr = MshrConfig(
                total_entries=self.dram.max_outstanding // 2,
                partitioned=False,
                num_cores=1,
                banks=4,
                stall_whole_file_on_full_bank=True,
            )
        else:
            mshr = MshrConfig(total_entries=16, partitioned=False, num_cores=1, banks=1)
        return replace(
            self.llc,
            index_function=index_function,
            region_index_bits=region_index_bits,
            extra_pipeline_latency=extra_latency,
            mshr=mshr,
        )

    def describe(self) -> str:
        """Multi-line human-readable summary (the Figure 4 table)."""
        core = self.core
        llc_geometry = self.llc.geometry
        lines = [
            f"Configuration {self.name}",
            f"  Front-end    {core.fetch_width}-wide fetch/decode/rename, "
            "256-entry BTB, tournament predictor, 8-entry RAS",
            f"  Execution    {core.rob_entries}-entry ROB, {core.commit_width}-way commit, "
            f"{core.alu_units} ALU + {core.mem_units} MEM + {core.fp_units} FP/MUL pipelines",
            f"  Ld-St unit   {core.load_queue_entries}-entry LQ, {core.store_queue_entries}-entry SQ, "
            f"{core.store_buffer_entries}-entry SB",
            "  L1 TLBs      32-entry fully associative (I and D)",
            "  L2 TLB       1024-entry, 4-way, with 24-entry translation cache",
            "  L1 caches    32KB 8-way (I and D)",
            f"  L2 (LLC)     {llc_geometry.size_bytes // 1024}KB {llc_geometry.ways}-way, "
            f"{self.effective_llc_config().mshr.total_entries} MSHRs, "
            f"index={'partitioned' if self.set_partition_llc else 'baseline'}, "
            f"arbiter=+{self.effective_llc_config().extra_pipeline_latency} cycles",
            f"  Memory       {self.address_map.dram_bytes // (1024 * 1024)}MB, "
            f"{self.dram.latency_cycles}-cycle latency, max {self.dram.max_outstanding} requests, "
            f"{self.address_map.num_regions} DRAM regions",
            f"  Security     flush_on_context_switch={self.flush_on_context_switch}, "
            f"set_partition_llc={self.set_partition_llc}, partition_mshrs={self.partition_mshrs}, "
            f"llc_arbiter={self.llc_arbiter}, nonspec_memory={self.nonspec_memory}",
        ]
        return "\n".join(lines)
