"""Miss status handling registers (MSHRs) of the shared LLC.

The LLC can only track a bounded number of in-flight requests; when no
MSHR is free it backpressures the L1s (Section 5.2).  MI6 makes two
changes:

* **Partitioning** — the MSHRs are divided equally among the processor
  cores so one core filling the MSHRs cannot stall another core's
  requests (a major timing leak in the baseline).
* **Sizing** — each MSHR entry can generate up to two DRAM requests
  (a writeback and a read), so the total number of MSHRs must not exceed
  ``dmax / 2`` where ``dmax`` is the DRAM controller's outstanding-request
  limit; otherwise the DRAM controller's backpressure becomes a shared,
  observable channel.

The evaluation's MISS variant additionally banks the (reduced) MSHR file
into four banks indexed by low set-index bits, and pessimistically stalls
the whole structure when one bank is full (Section 7.3).

:class:`MshrConfig` describes the organisation; both core timing loops
(:mod:`repro.ooo.core`) apply its rules to the misses a core has
outstanding, and the detailed LLC (:mod:`repro.mem.llc_detail`) keeps its
own entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class MshrConfig:
    """Organisation of the LLC MSHR file.

    Attributes:
        total_entries: Total MSHR entries in the LLC.
        partitioned: If True, entries are divided equally among cores and a
            core can only use its own partition.
        num_cores: Number of cores sharing the LLC (partition denominator).
        banks: Number of MSHR banks (1 = unbanked).
        stall_whole_file_on_full_bank: Pessimistic model used by the MISS
            variant: a full bank stalls every new request, not just
            requests to that bank.
    """

    total_entries: int = 16
    partitioned: bool = False
    num_cores: int = 1
    banks: int = 1
    stall_whole_file_on_full_bank: bool = False

    def __post_init__(self) -> None:
        if self.total_entries <= 0:
            raise ConfigurationError("MSHR file needs at least one entry")
        if self.banks <= 0 or self.total_entries % self.banks != 0:
            raise ConfigurationError("MSHR entries must divide evenly into banks")
        if self.partitioned and self.total_entries % self.num_cores != 0:
            raise ConfigurationError("partitioned MSHRs must divide evenly among cores")

    @property
    def entries_per_bank(self) -> int:
        """MSHR entries per bank."""
        return self.total_entries // self.banks

    @property
    def entries_per_core(self) -> int:
        """MSHR entries available to one core (all of them when unpartitioned)."""
        if not self.partitioned:
            return self.total_entries
        return self.total_entries // self.num_cores

    def validate_against_dram(self, dram_max_outstanding: int) -> None:
        """Check the sizing rule of Section 5.2 (entries <= dmax / 2)."""
        if self.total_entries > dram_max_outstanding // 2:
            raise ConfigurationError(
                f"{self.total_entries} LLC MSHRs can generate up to "
                f"{self.total_entries * 2} DRAM requests, exceeding the DRAM "
                f"controller limit of {dram_max_outstanding}; size MSHRs to at most "
                f"{dram_max_outstanding // 2} (Section 5.2)"
            )
