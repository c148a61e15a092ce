"""Detailed, message-level model of the RiscyOO / MI6 last-level cache.

This module reproduces the microarchitecture of the paper's Figure 2
(baseline LLC) and Figure 3 (MI6 LLC) at the granularity of individual
coherence messages and cycles.  It exists to demonstrate the *strong
timing independence* argument of Section 5.4: with the MI6 changes, the
latency of every request issued by one core is completely independent of
the traffic generated by other cores (in other protection domains), while
the baseline organisation leaks through

* the shared MSHR pool (backpressure on the requesting L1),
* the pipeline-entry mux (cross-core contention for the entry slot),
* the single shared UQ (head-of-line blocking of upgrade responses),
* the DQ dequeue port (two-cycle dequeues for replacements),
* the shared Downgrade-L1 logic (unfair arbitration), and
* DRAM-controller backpressure when MSHRs are not sized to ``dmax / 2``.

Its one driver is :class:`~repro.attacks.coschedule.CoScheduledExecutor`,
which injects a request per LLC-bound access of a co-scheduled scenario
with the machine's functional hit verdict attached, and reads back each
request's completion cycle.
:func:`~repro.attacks.scenarios.victim_timing_difference` checks the
Section 5.4 claim through it.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.common.stats import Counter, StatsRegistry
from repro.mem.arbiter import PipelineEntryArbiter, RoundRobinArbiter, TwoLevelMuxArbiter
from repro.mem.coherence import Directory
from repro.mem.dram import DramConfig, DramController
from repro.mem.replacement import LruPolicy


#: Sets in the (scaled-down) tag array.
NUM_SETS = 64
#: Associativity.
WAYS = 4
#: MSHR pool size in the baseline organisation.
TOTAL_MSHRS = 8
#: Cycles a message spends in the cache-access pipeline.
PIPELINE_DEPTH = 4
#: Cycles an L1 takes to answer a downgrade request.
L1_DOWNGRADE_DELAY = 10
#: Bytes per cache line (a request names its line, not its byte address).
LINE_BYTES = 64

#: Sets per region colour under the partitioned index.
_COLOUR_SETS = NUM_SETS // 4


@dataclass(frozen=True)
class DetailedLlcConfig:
    """Configuration of the detailed LLC model.

    The tag-array shape, the baseline's MSHR pool, the pipeline depth,
    the L1 downgrade delay and the line size are the module's constants.

    Attributes:
        num_cores: Number of cores attached to the LLC.
        secure: True builds the Figure 3 (MI6) organisation, False the
            Figure 2 baseline.
        mshrs_per_core: MSHR partition size in the secure organisation.
        dram_latency: Constant DRAM latency in cycles.
        dram_max_outstanding: DRAM controller occupancy limit.
        set_partitioned: Use a region-aware index function (secure mode).
        region_bytes: Size of a DRAM region for the partitioned indexing.
    """

    num_cores: int = 2
    secure: bool = True
    mshrs_per_core: int = 4
    dram_latency: int = 60
    dram_max_outstanding: int = 24
    set_partitioned: bool = True
    region_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError("need at least one core")
        if self.secure and self.mshrs_per_core * self.num_cores * 2 > self.dram_max_outstanding:
            raise ConfigurationError(
                "secure configuration violates the MSHR sizing rule: "
                f"{self.mshrs_per_core} MSHRs/core x {self.num_cores} cores can emit "
                f"{self.mshrs_per_core * self.num_cores * 2} DRAM requests > "
                f"{self.dram_max_outstanding} (Section 5.2)"
            )


@dataclass(slots=True)
class LlcRequest:
    """One L1 upgrade request injected into the simulation.

    ``llc_hit`` is the functional verdict: the co-scheduled executor
    (:mod:`repro.attacks.coschedule`) keeps the authoritative tag state
    in the machine's shared :class:`~repro.mem.llc.LastLevelCache` and
    uses this pipeline only for cycle-level timing (queues, MSHRs,
    arbiters).  ``complete_cycle`` is set when the response leaves its UQ.
    """

    core: int
    line_address: int
    want_modified: bool
    llc_hit: bool
    complete_cycle: Optional[int] = None


#: Downgrade set of every MSHR that needs no downgrade; never written.
_NO_DOWNGRADES: Set[int] = set()

#: ``DetailedLlc._dram_ready`` while no MSHR waits on DRAM.
_NEVER = sys.maxsize


class _Mshr:
    """Internal MSHR entry of the detailed model."""

    __slots__ = (
        "mshr_id", "request", "state", "needs_writeback", "retry",
        "pending_downgrades", "downgrades_to_send", "dram_ready_cycle",
    )

    def __init__(self, mshr_id: int, request: LlcRequest) -> None:
        self.mshr_id = mshr_id
        self.request = request
        self.state = "new"            # new -> wait_downgrade -> wait_dram -> respond
        self.needs_writeback = False
        self.retry = False
        self.pending_downgrades = _NO_DOWNGRADES
        self.downgrades_to_send = _NO_DOWNGRADES
        self.dram_ready_cycle = 0


class DetailedLlc:
    """Cycle-stepped LLC with explicit queues, MSHRs and arbitration.

    The tag array is three flat slabs indexed ``set * ways + way``: the
    line address a way holds (``None`` when invalid), its dirty bit, and
    the MSHR that locked the way for its fill.  Recency is an
    :class:`~repro.mem.replacement.LruPolicy`, whose sets share one
    initial stack until first reordered, so building the model allocates
    no per-line or per-set objects.
    """

    def __init__(self, config: DetailedLlcConfig, stats: Optional[StatsRegistry] = None) -> None:
        self.config = config
        self.stats = stats or StatsRegistry()
        self.cycle = 0
        self.directory = Directory()
        self.dram = DramController(
            DramConfig(
                latency_cycles=config.dram_latency,
                max_outstanding=config.dram_max_outstanding,
                constant_latency=True,
            )
        )
        # Tag array.
        slots = NUM_SETS * WAYS
        self._tags: List[Optional[int]] = [None] * slots
        self._dirty: List[bool] = [False] * slots
        self._locks: List[Optional[int]] = [None] * slots
        self._lru = LruPolicy(NUM_SETS, WAYS)
        self._partitioned = config.secure and config.set_partitioned
        # Input queues per core: upgrade requests, downgrade responses,
        # DRAM responses (per-core in secure mode), retries (secure mode).
        cores = range(config.num_cores)
        self._upgrade_in: List[List[LlcRequest]] = [[] for _ in cores]
        self._downgrade_resp_in: List[List[Tuple[int, int]]] = [[] for _ in cores]
        self._dram_resp_in: List[List[int]] = [[] for _ in cores]
        self._retry_in: List[List[int]] = [[] for _ in cores]
        self._shared_dram_resp_in: List[int] = []
        # The cache-access pipeline: (exit_cycle, handler, payload).
        self._pipeline: deque = deque()
        # MSHRs.  Per-core occupancy is tracked incrementally so the
        # allocation check does not scan the MSHR file every message.
        self._mshrs: Dict[int, _Mshr] = {}
        self._next_mshr_id = 0
        self._occupancy_by_core: List[int] = [0] * config.num_cores
        # MSHRs waiting on a DRAM response, kept aside so the delivery
        # scan touches only them, and the earliest cycle one is ready.
        self._dram_waiting: List[_Mshr] = []
        self._dram_ready = _NEVER
        # Count of downgrade requests still to be sent, across all MSHRs;
        # lets the per-cycle downgrade logic exit without scanning.
        self._downgrades_unsent = 0
        # UQ / DQ, and the count of responses waiting in the UQs.
        self._uq: List[deque] = [deque() for _ in cores]
        self._shared_uq: deque = deque()
        self._uq_count = 0
        self._dq: deque = deque()
        self._dq_blocked_until = 0
        # Downgrade requests scheduled to be answered by remote L1s.
        self._pending_l1_answers: List[Tuple[int, int, int]] = []  # (cycle, core, line)
        # Arbiter.  The entry queues are grouped once by slot owner; each
        # is tagged with the handler its messages take at the pipeline
        # exit.
        self._arbiter: PipelineEntryArbiter
        if config.secure:
            self._arbiter = RoundRobinArbiter(config.num_cores)
        else:
            self._arbiter = TwoLevelMuxArbiter()
        self._entry_groups = self._arbiter.entry_groups(self._tagged_entry_queues())
        # Every entry queue but the upgrade queues: a message there is due.
        self._message_queues = tuple(
            fifo
            for group in self._entry_groups
            for handler, fifo in group
            if handler is not DetailedLlc._process_upgrade
        )
        # Counter handles, bound on first use so the registration order
        # does not change.
        self._c_pipeline_entries: Optional[Counter] = None
        self._c_mshr_stalls: Optional[Counter] = None
        self._c_hits: Optional[Counter] = None
        self._c_misses: Optional[Counter] = None
        self._c_responses: Optional[Counter] = None
        # Completed requests.
        self.completed: List[LlcRequest] = []

    # ------------------------------------------------------------------
    # Address helpers

    def _set_index(self, line_address: int) -> int:
        if self._partitioned:
            # A quarter of the sets per region colour (region mod 4).
            region = (line_address * LINE_BYTES) // self.config.region_bytes
            return (region % 4) * _COLOUR_SETS + line_address % _COLOUR_SETS
        return line_address % NUM_SETS

    # ------------------------------------------------------------------
    # MSHR helpers

    def _can_allocate_mshr(self, core: int) -> bool:
        if self.config.secure:
            return self._occupancy_by_core[core] < self.config.mshrs_per_core
        return len(self._mshrs) < TOTAL_MSHRS

    def _parked(self, core: int) -> bool:
        """Whether ``core``'s upgrade queue waits on a full MSHR file."""
        return bool(self._upgrade_in[core]) and not self._can_allocate_mshr(core)

    def _allocate_mshr(self, request: LlcRequest) -> _Mshr:
        mshr = _Mshr(self._next_mshr_id, request)
        self._mshrs[mshr.mshr_id] = mshr
        self._next_mshr_id += 1
        self._occupancy_by_core[request.core] += 1
        return mshr

    def _count_mshr_stalls(self, cycles: int) -> None:
        counter = self._c_mshr_stalls
        if counter is None:
            counter = self._c_mshr_stalls = self.stats.counter("llc_detail.mshr_stall_cycles")
        counter.value += cycles

    # ------------------------------------------------------------------
    # Public driving interface

    def inject_request(self, request: LlcRequest) -> None:
        """Queue an L1 upgrade request for pipeline entry."""
        self._upgrade_in[request.core].append(request)

    def step(self) -> None:
        """Advance the LLC by one cycle.

        A phase is called only when it has work due, tested on a field:
        pending L1 answers, the earliest DRAM-ready cycle, the count of
        UQ entries, unsent downgrades, an unblocked DQ, and the pipeline
        head's exit cycle.  A phase with nothing due would change
        nothing, so skipping it is exact; both kernels run this step.
        Pipeline entry is offered every cycle, to the queues of the slot
        owner the arbiter's groups name.
        """
        cycle = self.cycle
        if self._pending_l1_answers:
            self._deliver_due_l1_answers()
        if self._dram_ready <= cycle:
            self._deliver_due_dram_responses()
        if self._uq_count:
            self._dequeue_uq()
        if self._downgrades_unsent:
            self._run_downgrade_logic()
        if self._dq and self._dq_blocked_until <= cycle:
            self._dequeue_dq()
        pipeline = self._pipeline
        if pipeline and pipeline[0][0] <= cycle:
            _exit_cycle, handler, payload = pipeline.popleft()
            handler(self, payload)
        self._arbitrate_pipeline_entry()
        self.cycle = cycle + 1

    def next_event_cycle(self) -> Optional[int]:
        """Earliest cycle (>= the current one) at which ``step`` can do work.

        Every per-cycle phase of :meth:`step` acts only when something is
        due: a queue is non-empty, a downgrade request is unsent, the
        pipeline head reaches its exit cycle, a DRAM read returns, or a
        remote L1 answer arrives.  A cycle where none of those hold
        mutates nothing but the clock, so drivers may jump straight to
        the returned cycle (:meth:`advance_to`) with bit-identical state
        and statistics.  Returns ``None`` when the LLC is fully quiescent
        and only new injections can wake it.  The UQ count and the
        earliest DRAM-ready cycle are read from fields that :meth:`step`
        keeps; only the entry queues and the pending L1 answers are
        looked at.

        An upgrade queue whose head cannot take an MSHR is *parked*
        and is not an event: the arbiter keeps offering it entry slots,
        and each slot it wins only adds one to
        ``llc_detail.mshr_stall_cycles``.  MSHRs free only when a response
        leaves a UQ, which is an event itself, so a parked queue stays
        parked over any gap this method reports, and :meth:`advance_to`
        charges the gap's stall cycles in closed form.  Every other
        waiting message is conservative: a non-empty queue reports the
        current cycle even if arbitration would leave it waiting, and so
        does a DQ head held by DRAM backpressure, so the driver steps
        per-cycle while such a message waits.
        """
        cycle = self.cycle
        if self._downgrades_unsent or self._uq_count or any(self._message_queues):
            return cycle
        for core, fifo in enumerate(self._upgrade_in):
            if fifo and self._can_allocate_mshr(core):
                return cycle
        best = self._dram_ready
        if self._dq:
            best = min(best, max(self._dq_blocked_until, cycle))
        if self._pipeline and self._pipeline[0][0] < best:
            best = self._pipeline[0][0]
        for due, _core, _line in self._pending_l1_answers:
            if due < best:
                best = due
        if best == _NEVER:
            return None
        return best if best > cycle else cycle

    def advance_to(self, cycle: int) -> None:
        """Jump the clock forward over a provably idle gap.

        Only valid for gaps where :meth:`next_event_cycle` guarantees no
        phase would act; the per-cycle reference loop never calls it.
        The entry slots parked upgrade queues would have lost in the
        skipped cycles are added to ``llc_detail.mshr_stall_cycles``:
        every cycle under the fixed-priority mux, and under the
        round-robin arbiter each cycle ``c`` with
        ``c % num_cores == core`` for each parked core.
        """
        start = self.cycle
        if cycle <= start:
            return
        self.cycle = cycle
        if not any(self._upgrade_in):
            return
        parked = [core for core in range(self.config.num_cores) if self._parked(core)]
        if not parked:
            return
        if self.config.secure:
            cores = self.config.num_cores
            # Cycles c in [start, cycle) with c % cores == core.
            stalled = sum(
                (cycle - core - 1) // cores - (start - core - 1) // cores for core in parked
            )
        else:
            stalled = cycle - start
        if stalled:
            self._count_mshr_stalls(stalled)

    # ------------------------------------------------------------------
    # Per-cycle phases

    def _deliver_due_l1_answers(self) -> None:
        pending = self._pending_l1_answers
        cycle = self.cycle
        due = [item for item in pending if item[0] <= cycle]
        if not due:
            return
        self._pending_l1_answers = [item for item in pending if item[0] > cycle]
        for _cycle, core, line_address in due:
            self._downgrade_resp_in[core].append((core, line_address))

    def _deliver_due_dram_responses(self) -> None:
        # DRAM responses are buffered in the MSHR that issued the read and
        # re-enter the pipeline; they are never backpressured.  Only the
        # MSHRs actually waiting on DRAM are scanned; same-cycle
        # deliveries happen in MSHR-id order, matching a scan of the whole
        # file in allocation order.
        cycle = self.cycle
        due: List[_Mshr] = []
        waiting: List[_Mshr] = []
        for mshr in self._dram_waiting:
            (due if mshr.dram_ready_cycle <= cycle else waiting).append(mshr)
        self._dram_waiting = waiting
        self._dram_ready = min((mshr.dram_ready_cycle for mshr in waiting), default=_NEVER)
        due.sort(key=lambda mshr: mshr.mshr_id)
        for mshr in due:
            if self.config.secure:
                self._dram_resp_in[mshr.request.core].append(mshr.mshr_id)
            else:
                self._shared_dram_resp_in.append(mshr.mshr_id)

    def _dram_wait(self, mshr: _Mshr, ready_cycle: int) -> None:
        """Park an MSHR until its DRAM read returns."""
        mshr.state = "wait_dram"
        mshr.dram_ready_cycle = ready_cycle
        self._dram_waiting.append(mshr)
        if ready_cycle < self._dram_ready:
            self._dram_ready = ready_cycle

    def _dequeue_uq(self) -> None:
        if self.config.secure:
            for queue in self._uq:
                if queue:
                    self._uq_count -= 1
                    self._respond(queue.popleft())
        else:
            self._uq_count -= 1
            self._respond(self._shared_uq.popleft())

    def _respond(self, mshr_id: int) -> None:
        mshr = self._mshrs.pop(mshr_id, None)
        if mshr is None:
            return
        request = mshr.request
        self._occupancy_by_core[request.core] -= 1
        request.complete_cycle = self.cycle
        self.completed.append(request)
        counter = self._c_responses
        if counter is None:
            counter = self._c_responses = self.stats.counter("llc_detail.responses")
        counter.value += 1

    def _run_downgrade_logic(self) -> None:
        if self.config.secure:
            # One duplicated Downgrade-L1 logic per MSHR partition: each
            # core's partition can send one downgrade request per cycle.
            for core in range(self.config.num_cores):
                for mshr in self._mshrs.values():
                    if mshr.request.core == core and mshr.downgrades_to_send:
                        self._send_one_downgrade(mshr)
                        break
        else:
            # Single shared logic: at most one downgrade request per cycle
            # across all MSHRs, scanned in MSHR-id order (unfair).
            for mshr in sorted(self._mshrs.values(), key=lambda entry: entry.mshr_id):
                if mshr.downgrades_to_send:
                    self._send_one_downgrade(mshr)
                    break

    def _send_one_downgrade(self, mshr: _Mshr) -> None:
        target = min(mshr.downgrades_to_send)
        mshr.downgrades_to_send.discard(target)
        self._downgrades_unsent -= 1
        self._pending_l1_answers.append(
            (self.cycle + L1_DOWNGRADE_DELAY, target, mshr.request.line_address)
        )
        self.stats.counter("llc_detail.downgrade_requests").increment()

    def _dequeue_dq(self) -> None:
        mshr_id = self._dq[0]
        mshr = self._mshrs.get(mshr_id)
        if mshr is None:
            self._dq.popleft()
            return
        if self.dram.occupancy(self.cycle) >= self.dram.max_outstanding:
            self.stats.counter("llc_detail.dram_backpressure_cycles").increment()
            return
        self._dq.popleft()
        request = mshr.request
        if self.config.secure:
            # Retry-bit organisation: each dequeue sends exactly one DRAM
            # request and takes exactly one cycle.
            if mshr.retry and mshr.needs_writeback:
                self.dram.submit(request.core, request.line_address, True, self.cycle)
                mshr.needs_writeback = False
                # The MSHR re-enters the pipeline as a pure miss through
                # its own core's retry queue.
                self._retry_in[request.core].append(mshr.mshr_id)
            else:
                read = self.dram.submit(request.core, request.line_address, False, self.cycle)
                self._dram_wait(mshr, read.complete_cycle)
        else:
            # Baseline: an entry completing a replacement sends both the
            # writeback and the read, blocking the dequeue port an extra
            # cycle (the DQ minor leak of Section 5.4.2).
            if mshr.needs_writeback:
                self.dram.submit(request.core, request.line_address, True, self.cycle)
                mshr.needs_writeback = False
                self._dq_blocked_until = self.cycle + 2
            read = self.dram.submit(request.core, request.line_address, False, self.cycle)
            self._dram_wait(mshr, read.complete_cycle)

    def _tag_lookup(self, set_index: int, line_address: int) -> Optional[int]:
        base = set_index * WAYS
        tags = self._tags
        for way in range(WAYS):
            if tags[base + way] == line_address:
                return way
        return None

    def _process_upgrade(self, mshr_id: int) -> None:
        mshr = self._mshrs[mshr_id]
        request = mshr.request
        downgrades = self.directory.needed_downgrades(
            request.core, request.line_address, request.want_modified
        )
        if downgrades:
            mshr.state = "wait_downgrade"
            mshr.pending_downgrades = set(downgrades)
            mshr.downgrades_to_send = set(downgrades)
            self._downgrades_unsent += len(downgrades)
            return
        self._resolve_tag_access(mshr)

    def _process_retry(self, mshr_id: int) -> None:
        mshr = self._mshrs.get(mshr_id)
        if mshr is None:
            return
        # The cache slot was locked when the replacement was initiated, so
        # the retry behaves as a pure cache miss: issue the DRAM read.
        self._dq.append(mshr.mshr_id)
        mshr.retry = False

    def _process_dram_response(self, mshr_id: int) -> None:
        mshr = self._mshrs.get(mshr_id)
        if mshr is None:
            return
        request = mshr.request
        set_index = self._set_index(request.line_address)
        way = self._fill_way(set_index, mshr.mshr_id)
        slot = set_index * WAYS + way
        self._tags[slot] = request.line_address
        self._dirty[slot] = request.want_modified
        self._locks[slot] = None
        self._lru.touch(set_index, way)
        self.directory.grant(request.core, request.line_address, request.want_modified)
        self._enqueue_uq(mshr)

    def _process_downgrade_response(self, payload: Tuple[int, int]) -> None:
        core, line_address = payload
        self.directory.revoke(core, line_address)
        for mshr in self._mshrs.values():
            if mshr.state == "wait_downgrade" and mshr.request.line_address == line_address:
                mshr.pending_downgrades.discard(core)
                if not mshr.pending_downgrades:
                    self._resolve_tag_access(mshr)
                break

    def _fill_way(self, set_index: int, mshr_id: int) -> int:
        base = set_index * WAYS
        locks = self._locks
        for way in range(WAYS):
            if locks[base + way] == mshr_id:
                return way
        for way in range(WAYS):
            if self._tags[base + way] is None and locks[base + way] is None:
                return way
        return self._lru.victim(set_index, [True] * WAYS)

    def _resolve_tag_access(self, mshr: _Mshr) -> None:
        request = mshr.request
        set_index = self._set_index(request.line_address)
        if request.llc_hit:
            # The functional verdict decides the hit; a line this model
            # also holds only has its recency refreshed.
            way = self._tag_lookup(set_index, request.line_address)
            if way is not None:
                self._lru.touch(set_index, way)
            self.directory.grant(request.core, request.line_address, request.want_modified)
            counter = self._c_hits
            if counter is None:
                counter = self._c_hits = self.stats.counter("llc_detail.hits")
            counter.value += 1
            self._enqueue_uq(mshr)
            return
        counter = self._c_misses
        if counter is None:
            counter = self._c_misses = self.stats.counter("llc_detail.misses")
        counter.value += 1
        # Choose a victim: prefer an unlocked invalid way, else LRU unlocked.
        base = set_index * WAYS
        tags, locks = self._tags, self._locks
        victim_way = None
        for way in range(WAYS):
            if tags[base + way] is None and locks[base + way] is None:
                victim_way = way
                break
        else:
            for way in reversed(self._lru.recency_order(set_index)):
                if locks[base + way] is None:
                    victim_way = way
                    break
        if victim_way is None:
            # Every way is locked by an in-flight fill; retry next cycle by
            # re-entering through the core's retry path.
            self._retry_in[request.core].append(mshr.mshr_id)
            return
        slot = base + victim_way
        victim_line = tags[slot]
        mshr.needs_writeback = victim_line is not None and self._dirty[slot]
        if victim_line is not None:
            self.directory.entry(victim_line).owners.clear()
        # Reset the victim way in place, locked for this MSHR's fill.
        tags[slot] = None
        self._dirty[slot] = False
        locks[slot] = mshr.mshr_id
        if self.config.secure and mshr.needs_writeback:
            mshr.retry = True
        self._dq.append(mshr.mshr_id)

    def _enqueue_uq(self, mshr: _Mshr) -> None:
        mshr.state = "respond"
        if self.config.secure:
            self._uq[mshr.request.core].append(mshr.mshr_id)
        else:
            self._shared_uq.append(mshr.mshr_id)
        self._uq_count += 1

    # ------------------------------------------------------------------
    # Pipeline entry

    def _tagged_entry_queues(self) -> List[Tuple[int, Tuple[Callable, list]]]:
        """``(core, (handler, fifo))`` for every entry queue, in priority order.

        ``handler`` is the method a message from the queue runs at the
        pipeline exit; core ``-1`` is the baseline's shared DRAM
        response queue.
        """
        queues: List[Tuple[int, Tuple[Callable, list]]] = []
        downgrade = DetailedLlc._process_downgrade_response
        dram = DetailedLlc._process_dram_response
        retry = DetailedLlc._process_retry
        upgrade = DetailedLlc._process_upgrade
        if self.config.secure:
            # Per-core merge: each core presents one logical queue; we
            # expose the core's sub-queues in a fixed priority order
            # (downgrade responses, DRAM responses, retries, upgrades).
            for core in range(self.config.num_cores):
                queues.append((core, (downgrade, self._downgrade_resp_in[core])))
                queues.append((core, (dram, self._dram_resp_in[core])))
                queues.append((core, (retry, self._retry_in[core])))
                queues.append((core, (upgrade, self._upgrade_in[core])))
        else:
            # Type-major merge: all downgrade responses, then DRAM
            # responses, then upgrade requests.  The per-type merge uses an
            # arbitrary fixed priority (highest-numbered core first), which
            # is exactly the kind of unfair arbitration Section 5.4.2 calls
            # out as a minor timing leak.
            for core in range(self.config.num_cores):
                queues.append((core, (downgrade, self._downgrade_resp_in[core])))
            queues.append((-1, (dram, self._shared_dram_resp_in)))
            for core in reversed(range(self.config.num_cores)):
                queues.append((core, (retry, self._retry_in[core])))
                queues.append((core, (upgrade, self._upgrade_in[core])))
        return queues

    def _arbitrate_pipeline_entry(self) -> None:
        cycle = self.cycle
        groups = self._entry_groups
        for handler, fifo in groups[cycle % len(groups)]:
            if fifo:
                break
        else:
            return
        payload = fifo[0]
        if handler is DetailedLlc._process_upgrade:
            # An upgrade request must reserve an MSHR before entering the
            # pipeline.
            if not self._can_allocate_mshr(payload.core):
                self._count_mshr_stalls(1)
                return
            payload = self._allocate_mshr(payload).mshr_id
        fifo.pop(0)
        self._pipeline.append((cycle + PIPELINE_DEPTH, handler, payload))
        counter = self._c_pipeline_entries
        if counter is None:
            counter = self._c_pipeline_entries = self.stats.counter("llc_detail.pipeline_entries")
        counter.value += 1

