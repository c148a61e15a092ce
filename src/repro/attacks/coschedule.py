"""Co-scheduled multi-core execution of attacker and victim streams.

Every attack experiment used to hand-build its own private
:class:`~repro.mem.llc.LastLevelCache`; none of them ever ran on the
multi-core :class:`~repro.os_model.machine.Machine`, and the
cycle-accurate :mod:`repro.mem.llc_detail` pipeline (with the real
:class:`~repro.mem.arbiter.RoundRobinArbiter` /
:class:`~repro.mem.arbiter.TwoLevelMuxArbiter`) never saw traffic from an
actual attack.  This module closes that gap: a
:class:`CoScheduledExecutor` runs an attacker access stream and a victim
access stream on two :class:`~repro.os_model.machine.CoreComplex`es of
one shared machine, resolving every LLC-bound access cycle-by-cycle
through a :class:`~repro.mem.llc_detail.DetailedLlc`.

The division of labour between the two LLC models:

* **functional truth** — hits, misses, evictions, owner labels, and the
  DRAM-region protection check — comes from the machine's shared
  :class:`~repro.mem.llc.LastLevelCache`, reached through each core's own
  :class:`~repro.mem.hierarchy.MemoryHierarchy` (so L1 filtering and the
  MI6 region bitvector behave exactly as in the perf runs), whose
  :meth:`~repro.mem.hierarchy.MemoryHierarchy.data_access_parts`
  returns the five fields the executor keeps as a plain tuple;
* **cycle-level timing** — pipeline-entry arbitration, MSHR occupancy
  and backpressure, UQ/DQ queueing, DRAM latency — comes from the
  detailed pipeline, which receives one
  :class:`~repro.mem.llc_detail.LlcRequest` per LLC-bound access with
  its functional hit/miss verdict attached (``hit_override``).

A scenario drives the executor in *phases* (prime, victim, probe, or a
single co-resident phase): machine state and the detailed pipeline's
clock persist across phases, so later phases observe everything earlier
phases did to the shared cache.

The fast path pays per event, not per cycle: each party caches the
cycle its next op issues at and its earliest local completion, the
clock jumps to the earliest cached cycle or detailed-LLC event, and
only the parties something is due for issue or are collected (see
:meth:`CoScheduledExecutor.run_phase`).  Ops and completion records
are named tuples.  ``REPRO_SLOW_PATH=1`` keeps the per-cycle reference
loop, the oracle that ``tests/test_differential.py`` compares it with.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Union

from repro.common.errors import ConfigurationError
from repro.common.fastpath import slow_path_enabled
from repro.core.config import MI6Config
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.llc_detail import DetailedLlc, DetailedLlcConfig, LlcRequest
from repro.os_model.machine import Machine

#: Default cap on in-flight LLC requests per core (an aggressive OoO
#: core's memory-level parallelism; a flooding attacker can saturate the
#: baseline's shared 8-entry MSHR pool with this).
DEFAULT_MAX_OUTSTANDING = 8


class MemOp(NamedTuple):
    """One memory access of a party's stream.

    Attributes:
        address: Physical address touched (domains run identity-mapped).
        is_write: Store rather than load.
        issue_gap: Minimum cycles after the party's previous op *issued*
            before this one may issue (0 = back-to-back, subject to the
            outstanding-request cap).
        l1_bypass: Skip the private L1 (the flush+access idiom) so the
            access latency reflects shared-LLC state alone.
        label: Free-form tag echoed on the completion record; scenarios
            use it to group accesses for decoding (set index, candidate
            value, bit-slot, ...).
    """

    address: int
    is_write: bool = False
    issue_gap: int = 0
    l1_bypass: bool = False
    label: str = ""


class CompletedAccess(NamedTuple):
    """Timing and functional outcome of one completed :class:`MemOp`.

    ``latency`` is what the issuing party can measure; everything else is
    ground truth the scenario uses for bookkeeping, never for decoding.
    """

    core_id: int
    index: int
    address: int
    issue_cycle: int
    complete_cycle: int
    l1_hit: bool
    llc_hit: bool
    blocked: bool
    label: str = ""

    @property
    def latency(self) -> int:
        """Cycles from issue to completion."""
        return self.complete_cycle - self.issue_cycle


def detailed_config_for(config: MI6Config, *, num_cores: int = 2) -> DetailedLlcConfig:
    """Detailed-LLC timing configuration matching a machine configuration.

    The secure (Figure 3) organisation — per-core MSHR partitions,
    round-robin pipeline-entry arbiter, per-core UQ/DQ paths — is built
    only when the machine enables *both* the MSHR and the arbiter
    defences: the detailed model implements the two organisations
    wholesale, and a partial defence leaves the other coupling open, so
    MISS-only and ARB-only machines conservatively get the baseline
    (Figure 2) organisation with the shared MSHR pool and the
    fixed-priority two-level mux.  Set partitioning and DRAM parameters
    carry over from the machine configuration.
    """
    secure = bool(config.partition_mshrs and config.llc_arbiter)
    # Section 5.2 sizing rule: each core's MSHR partition may emit two
    # DRAM requests, and the sum must stay within the controller's
    # occupancy limit.  The classic two-core machine keeps its historic
    # 4 MSHRs/core; bigger machines shrink the partitions accordingly.
    mshrs_per_core = min(4, max(1, config.dram.max_outstanding // (2 * num_cores)))
    return DetailedLlcConfig(
        num_cores=num_cores,
        secure=secure,
        mshrs_per_core=mshrs_per_core,
        total_mshrs=8,
        dram_latency=config.dram.latency_cycles,
        dram_max_outstanding=config.dram.max_outstanding,
        set_partitioned=config.set_partition_llc,
        region_bytes=config.address_map.region_bytes,
    )


#: A cached cycle of :class:`_CoreState` while nothing is due.
_NEVER = sys.maxsize


@dataclass(slots=True)
class _CoreState:
    """Issue cursor, cached event cycles and in-flight bookkeeping for one party."""

    core_id: int
    ops: List[MemOp]
    cap: int
    hierarchy: MemoryHierarchy
    sink: List[CompletedAccess]
    phase_start: int
    next_index: int = 0
    last_issue_cycle: int = -1
    # The cycle the next op issues at (the last issue, or the phase
    # start, plus its gap), or _NEVER while the in-flight cap is full or
    # the stream is done.  Recomputed only when the party issues or a
    # collection frees a slot.
    issue_at: int = _NEVER
    # In-flight entries: (op index, op, functional outcome, issue cycle,
    # llc request or local completion cycle).
    in_flight: List[tuple] = field(default_factory=list)
    # Earliest completion cycle among the in-flight local entries (L1
    # hits and suppressed accesses), or _NEVER when there are none.
    local_due: int = _NEVER

    def rearm(self) -> None:
        """Cache the next op's issue cycle, if the cap leaves room for it."""
        if self.next_index < len(self.ops) and len(self.in_flight) < self.cap:
            last_issue = self.last_issue_cycle
            base = last_issue if last_issue >= 0 else self.phase_start
            self.issue_at = base + self.ops[self.next_index].issue_gap
        else:
            self.issue_at = _NEVER


class CoScheduledExecutor:
    """Interleaves per-core access streams on one shared machine.

    Args:
        machine: The shared multi-core machine (functional state).
        detailed_config: Timing-pipeline configuration; derived from the
            machine configuration via :func:`detailed_config_for` when
            omitted.
        max_outstanding: In-flight request cap, either one value for all
            cores or a per-core mapping (receiver cores in contention
            scenarios typically run with a small cap, flooding senders
            with a large one).
    """

    def __init__(
        self,
        machine: Machine,
        *,
        detailed_config: Optional[DetailedLlcConfig] = None,
        max_outstanding: Union[int, Mapping[int, int]] = DEFAULT_MAX_OUTSTANDING,
    ) -> None:
        self.machine = machine
        config = detailed_config or detailed_config_for(
            machine.config, num_cores=machine.num_cores
        )
        if config.num_cores < machine.num_cores:
            raise ConfigurationError(
                "detailed LLC must serve at least as many cores as the machine"
            )
        self.detailed = DetailedLlc(config, stats=machine.stats)
        self._max_outstanding = max_outstanding
        self._next_request_id = 0
        self.completed: List[CompletedAccess] = []

    @property
    def cycle(self) -> int:
        """Current cycle of the shared timing pipeline."""
        return self.detailed.cycle

    # ------------------------------------------------------------------
    # Driving

    def run_phase(
        self,
        traces: Mapping[int, List[MemOp]],
        *,
        max_cycles: int = 500_000,
    ) -> Dict[int, List[CompletedAccess]]:
        """Run one co-scheduled phase to completion.

        The phase's bookkeeping is set up once: the cores in ascending
        id order (the order they issue and are collected in), each
        core's in-flight cap, and a count of the ops not yet collected,
        which ends the phase when it reaches zero.

        The fast path does work only when an event is due.  Each party
        caches its next issue cycle (:attr:`_CoreState.issue_at`: the
        last issue, or the phase start, plus the next op's gap) and its
        earliest local completion (an L1 hit or a suppressed access).
        The clock jumps to the earliest of those and the detailed LLC's
        next event; a party issues only when its cached cycle is due,
        and is collected after a step only when the detailed LLC
        answered one of its requests in that step or its earliest local
        completion is due.  Under ``REPRO_SLOW_PATH=1`` the reference
        loop steps every cycle, applies the issue-gap rule to every
        party in every cycle (:meth:`_issue_ready_ops`) and collects
        every party after every step; it is the oracle for the cached
        cycles.

        Args:
            traces: Mapping core id -> that party's access stream.  Cores
                absent from the mapping stay idle (their queues still own
                their round-robin arbiter slots, as in the hardware).
            max_cycles: Safety bound on cycles simulated in this phase.

        Returns:
            Mapping core id -> completed accesses in completion order.
            All completions are also appended to :attr:`completed`.
        """
        for core_id in traces:
            if core_id < 0 or core_id >= self.machine.num_cores:
                raise ConfigurationError(f"core {core_id} not present on the machine")
        detailed = self.detailed
        phase_start = detailed.cycle
        max_outstanding = self._max_outstanding
        results: Dict[int, List[CompletedAccess]] = {core_id: [] for core_id in traces}
        parties: List[_CoreState] = []
        remaining = 0
        for core_id in sorted(traces):
            if isinstance(max_outstanding, int):
                cap = max_outstanding
            else:
                cap = max_outstanding.get(core_id, DEFAULT_MAX_OUTSTANDING)
            state = _CoreState(
                core_id=core_id,
                ops=list(traces[core_id]),
                cap=cap,
                hierarchy=self.machine.core(core_id).hierarchy,
                sink=results[core_id],
                phase_start=phase_start,
            )
            state.rearm()
            parties.append(state)
            remaining += len(state.ops)
        deadline = phase_start + max_cycles
        llc_completed = detailed.completed
        slow = slow_path_enabled()
        while remaining:
            cycle = detailed.cycle
            if cycle >= deadline:
                in_flight = sum(len(state.in_flight) for state in parties)
                raise RuntimeError(
                    f"co-scheduled phase exceeded {max_cycles} cycles ({in_flight} in flight)"
                )
            if slow:
                for state in parties:
                    self._issue_ready_ops(state, cycle)
                detailed.step()
                for state in parties:
                    remaining -= self._collect_completions(state, cycle + 1)
                continue
            # Jump over cycles where nothing is due.  A local completion
            # due at P is collected after the step of cycle P - 1.  The
            # skipped cycles only add MSHR stall cycles in the reference
            # loop, which advance_to charges in closed form.
            event = detailed.next_event_cycle()
            if event is None or event > cycle:
                target = _NEVER if event is None else event
                for state in parties:
                    if state.issue_at < target:
                        target = state.issue_at
                    if state.local_due <= target:
                        target = state.local_due - 1
                if target > cycle:
                    detailed.advance_to(min(target, deadline))
                    cycle = detailed.cycle
                    if cycle >= deadline:
                        continue
            for state in parties:
                while state.issue_at <= cycle:
                    self._issue(state, cycle)
            answered = len(llc_completed)
            detailed.step()
            cycle += 1
            if len(llc_completed) != answered:
                cores = {request.core for request in llc_completed[answered:]}
                for state in parties:
                    if state.core_id in cores or state.local_due <= cycle:
                        remaining -= self._collect_completions(state, cycle)
            else:
                for state in parties:
                    if state.local_due <= cycle:
                        remaining -= self._collect_completions(state, cycle)
        return results

    def _issue_ready_ops(self, state: _CoreState, cycle: int) -> None:
        """Issue each next op of ``state`` whose issue gap has run out by ``cycle``.

        The reference rule, applied to every party in every cycle under
        ``REPRO_SLOW_PATH=1``; the fast path trusts the cached
        :attr:`_CoreState.issue_at` instead.
        """
        while state.next_index < len(state.ops) and len(state.in_flight) < state.cap:
            gap_base = (
                state.last_issue_cycle if state.last_issue_cycle >= 0 else state.phase_start
            )
            if cycle < gap_base + state.ops[state.next_index].issue_gap:
                break
            self._issue(state, cycle)

    def _issue(self, state: _CoreState, cycle: int) -> None:
        """Issue ``state``'s next op at ``cycle`` and cache the following op's cycle."""
        index = state.next_index
        op = state.ops[index]
        state.next_index = index + 1
        state.last_issue_cycle = cycle
        outcome = state.hierarchy.data_access_parts(
            op.address, is_write=op.is_write, l1_bypass=op.l1_bypass
        )
        latency, _l1_hit, llc_accessed, llc_hit, blocked = outcome
        if llc_accessed:
            request = LlcRequest(
                core=state.core_id,
                line_address=op.address // self.detailed.config.line_bytes,
                want_modified=op.is_write,
                issue_cycle=cycle,
                request_id=self._next_request_id,
                hit_override=llc_hit,
            )
            self._next_request_id += 1
            self.detailed.inject_request(request)
            state.in_flight.append((index, op, outcome, cycle, request))
        else:
            # Suppressed accesses and L1 hits never reach the shared LLC:
            # they complete locally after a fixed private delay.
            due = cycle + (1 if blocked else max(1, latency))
            state.in_flight.append((index, op, outcome, cycle, due))
            if due < state.local_due:
                state.local_due = due
        state.rearm()

    def _collect_completions(self, state: _CoreState, cycle: int) -> int:
        """Record ``state``'s accesses finished by ``cycle``; returns how many."""
        still_pending: List[tuple] = []
        local_due = _NEVER
        for entry in state.in_flight:
            index, op, outcome, issue, pending = entry
            if type(pending) is int:
                if pending > cycle:
                    still_pending.append(entry)
                    if pending < local_due:
                        local_due = pending
                    continue
                complete = pending
            else:
                complete = pending.complete_cycle
                if complete is None:
                    still_pending.append(entry)
                    continue
            _latency, l1_hit, _llc_accessed, llc_hit, blocked = outcome
            record = CompletedAccess(
                core_id=state.core_id,
                index=index,
                address=op.address,
                issue_cycle=issue,
                complete_cycle=complete,
                l1_hit=l1_hit,
                llc_hit=llc_hit,
                blocked=blocked,
                label=op.label,
            )
            state.sink.append(record)
            self.completed.append(record)
        collected = len(state.in_flight) - len(still_pending)
        state.in_flight = still_pending
        state.local_due = local_due
        if collected and state.issue_at == _NEVER:
            # A freed slot re-arms an issue cut off by the cap.
            state.rearm()
        return collected

    # ------------------------------------------------------------------
    # Conveniences for sequential (time-sliced) scenarios

    def idle(self, cycles: int) -> None:
        """Let the pipeline drain for ``cycles`` with no new traffic."""
        detailed = self.detailed
        target = detailed.cycle + cycles
        if slow_path_enabled():
            while detailed.cycle < target:
                detailed.step()
            return
        while detailed.cycle < target:
            event = detailed.next_event_cycle()
            if event is None or event >= target:
                detailed.advance_to(target)
                return
            if event > detailed.cycle:
                detailed.advance_to(event)
            detailed.step()


def latencies_by_label(
    accesses: List[CompletedAccess],
) -> Dict[str, List[int]]:
    """Group completion latencies by their op label (decode helper)."""
    grouped: Dict[str, List[int]] = {}
    for access in accesses:
        grouped.setdefault(access.label, []).append(access.latency)
    return grouped
