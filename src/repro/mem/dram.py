"""Constant-latency DRAM controller.

The paper's evaluation platform uses a DRAM controller model with a fixed
latency (120 cycles, Figure 4) and a bounded number of outstanding
requests (24).  Section 5.2 explains why MI6 requires either this constant
latency or a protection-domain-aware scheduler: a reordering controller
lets one domain's bank locality change another domain's request timing.

The approximate core timing model reads the fixed latency from
``DramConfig.latency_cycles``; the detailed LLC model submits requests
to the controller's queue and reads their completion times.  The
bank-reordering mode (``constant_latency=False``) that would show the
timing leak the constant-latency design avoids is built by no run; it
waits on ROADMAP item 7 with the other modelled features no run builds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

from repro.common.stats import Counter, StatsRegistry


@dataclass(frozen=True)
class DramConfig:
    """DRAM controller parameters (Figure 4 defaults).

    Attributes:
        latency_cycles: Fixed access latency.
        max_outstanding: Maximum in-flight requests before backpressure.
        constant_latency: True for the timing-independent controller;
            False enables the illustrative bank-reordering model.
        num_banks: Banks used by the reordering model.
        row_hit_latency_cycles: Latency of a back-to-back same-bank access
            in the reordering model (a row-buffer hit).
    """

    latency_cycles: int = 120
    max_outstanding: int = 24
    constant_latency: bool = True
    num_banks: int = 8
    row_hit_latency_cycles: int = 60


class DramRequest(NamedTuple):
    """One request accepted by the DRAM controller."""

    core: int
    line_address: int
    is_write: bool
    accept_cycle: int
    complete_cycle: int


class DramController:
    """Bounded-occupancy DRAM controller with constant or banked latency."""

    def __init__(self, config: Optional[DramConfig] = None, stats: Optional[StatsRegistry] = None) -> None:
        self.config = config or DramConfig()
        self._stats = stats or StatsRegistry()
        # Completion cycles of the requests in flight, as a min-heap.
        self._in_flight: List[int] = []
        self._last_bank_row: Dict[int, int] = {}
        # Counter handles, bound on first use.
        self._c_requests: Optional[Counter] = None
        self._c_reads: Optional[Counter] = None
        self._c_writes: Optional[Counter] = None

    @property
    def max_outstanding(self) -> int:
        """Maximum number of in-flight requests."""
        return self.config.max_outstanding

    def bank_of(self, line_address: int) -> int:
        """Bank a line address maps to (reordering model only)."""
        return line_address % self.config.num_banks

    def _retire_completed(self, now: int) -> None:
        in_flight = self._in_flight
        while in_flight and in_flight[0] <= now:
            heapq.heappop(in_flight)

    def occupancy(self, now: int) -> int:
        """Number of requests still in flight at cycle ``now``."""
        self._retire_completed(now)
        return len(self._in_flight)

    def earliest_accept_cycle(self, now: int) -> int:
        """Earliest cycle at which a new request would be accepted.

        Backpressure: if ``max_outstanding`` requests are in flight, the
        new request must wait for the oldest to complete.
        """
        self._retire_completed(now)
        if len(self._in_flight) < self.config.max_outstanding:
            return now
        return self._in_flight[0]

    def submit(self, core: int, line_address: int, is_write: bool, now: int) -> DramRequest:
        """Accept a request at (or after) cycle ``now`` and return it.

        The returned request's ``complete_cycle`` is when the data (for a
        read) is available at the LLC.
        """
        accept = self.earliest_accept_cycle(now)
        latency = self._latency_for(line_address)
        request = DramRequest(
            core=core,
            line_address=line_address,
            is_write=is_write,
            accept_cycle=accept,
            complete_cycle=accept + latency,
        )
        heapq.heappush(self._in_flight, request.complete_cycle)
        counter = self._c_requests
        if counter is None:
            counter = self._c_requests = self._stats.counter("dram.requests")
        counter.value += 1
        if is_write:
            counter = self._c_writes
            if counter is None:
                counter = self._c_writes = self._stats.counter("dram.writes")
        else:
            counter = self._c_reads
            if counter is None:
                counter = self._c_reads = self._stats.counter("dram.reads")
        counter.value += 1
        if accept > now:
            self._stats.counter("dram.backpressure_cycles").increment(accept - now)
        return request

    def _latency_for(self, line_address: int) -> int:
        if self.config.constant_latency:
            return self.config.latency_cycles
        # Illustrative reordering model: a request to the bank most
        # recently accessed with the same row gets the shorter row-hit
        # latency.  This is the behaviour MI6 forbids across protection
        # domains because it couples their timing.
        bank = self.bank_of(line_address)
        row = line_address // self.config.num_banks
        previous_row = self._last_bank_row.get(bank)
        self._last_bank_row[bank] = row
        if previous_row is not None and previous_row == row:
            self._stats.counter("dram.row_hits").increment()
            return self.config.row_hit_latency_cycles
        return self.config.latency_cycles
