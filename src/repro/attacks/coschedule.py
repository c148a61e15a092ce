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
  MI6 region bitvector behave exactly as in the perf runs);
* **cycle-level timing** — pipeline-entry arbitration, MSHR occupancy
  and backpressure, UQ/DQ queueing, DRAM latency — comes from the
  detailed pipeline, which receives one
  :class:`~repro.mem.llc_detail.LlcRequest` per LLC-bound access with
  its functional hit/miss verdict attached (``hit_override``).

A scenario drives the executor in *phases* (prime, victim, probe, or a
single co-resident phase): machine state and the detailed pipeline's
clock persist across phases, so later phases observe everything earlier
phases did to the shared cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.common.fastpath import slow_path_enabled
from repro.core.config import MI6Config
from repro.mem.hierarchy import HierarchyAccess
from repro.mem.llc_detail import DetailedLlc, DetailedLlcConfig, LlcRequest
from repro.os_model.machine import Machine

#: Default cap on in-flight LLC requests per core (an aggressive OoO
#: core's memory-level parallelism; a flooding attacker can saturate the
#: baseline's shared 8-entry MSHR pool with this).
DEFAULT_MAX_OUTSTANDING = 8


@dataclass(frozen=True)
class MemOp:
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


@dataclass(frozen=True)
class CompletedAccess:
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


@dataclass
class _CoreState:
    """Issue cursor and in-flight bookkeeping for one party."""

    ops: List[MemOp]
    cap: int
    phase_start: int = 0
    next_index: int = 0
    last_issue_cycle: int = -1
    # In-flight entries: (op index, op, functional outcome, issue cycle,
    # llc request or local completion cycle).
    in_flight: List[tuple] = field(default_factory=list)
    # Earliest completion cycle among the in-flight local entries (L1
    # hits and suppressed accesses), or None when there are none.
    local_due: Optional[int] = None


#: One party of a phase: core id, its state, and its completion sink.
_Party = Tuple[int, _CoreState, List[CompletedAccess]]


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
    # Functional resolution

    def _functional_access(self, core_id: int, op: MemOp) -> HierarchyAccess:
        hierarchy = self.machine.core(core_id).hierarchy
        if op.l1_bypass:
            return hierarchy.llc_probe_access(op.address, is_write=op.is_write)
        return hierarchy.data_access(op.address, is_write=op.is_write)

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

        On the fast path a core is collected after a step only when a
        completion can be waiting: the detailed LLC answered a request
        in that step (:attr:`DetailedLlc.completed` grew), or the core's
        earliest local completion (an L1 hit or a suppressed access,
        noted as it issues) is due.  A core skipped otherwise holds
        nothing to collect, so the completion records and their order
        are the reference loop's; under ``REPRO_SLOW_PATH=1`` that loop
        collects every core after every cycle and stays the oracle.

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
        cores: List[_Party] = []
        remaining = 0
        for core_id in sorted(traces):
            if isinstance(max_outstanding, int):
                cap = max_outstanding
            else:
                cap = max_outstanding.get(core_id, DEFAULT_MAX_OUTSTANDING)
            state = _CoreState(ops=list(traces[core_id]), cap=cap, phase_start=phase_start)
            cores.append((core_id, state, results[core_id]))
            remaining += len(state.ops)
        deadline = phase_start + max_cycles
        llc_completed = detailed.completed
        # Event-batched driving: jump the shared clock over gaps where the
        # detailed pipeline is idle or only MSHR-parked, no local
        # completion is due, and no party may issue (issue-gap spacing).
        # The skipped cycles only add MSHR stall cycles in the per-cycle
        # reference loop, which advance_to charges in closed form; that
        # loop stays reachable under REPRO_SLOW_PATH=1 as the
        # bit-identity oracle.
        batched = not slow_path_enabled()
        while remaining:
            if detailed.cycle >= deadline:
                in_flight = sum(len(state.in_flight) for _core_id, state, _sink in cores)
                raise RuntimeError(
                    f"co-scheduled phase exceeded {max_cycles} cycles ({in_flight} in flight)"
                )
            if batched:
                target = self._next_interesting_cycle(cores)
                if target is not None and target > detailed.cycle:
                    detailed.advance_to(min(target, deadline))
                    if detailed.cycle >= deadline:
                        continue
            cycle = detailed.cycle
            for core_id, state, _sink in cores:
                self._issue_ready_ops(core_id, state, cycle)
            answered_before = len(llc_completed)
            detailed.step()
            collect_all = not batched or len(llc_completed) != answered_before
            cycle = detailed.cycle
            for core_id, state, sink in cores:
                if collect_all or (state.local_due is not None and state.local_due <= cycle):
                    remaining -= self._collect_completions(core_id, state, sink)
        return results

    def _next_interesting_cycle(self, cores: List[_Party]) -> Optional[int]:
        """Earliest pre-step cycle at which issuing, stepping, or collecting acts.

        Detailed-LLC events act in the step of the cycle they report.  A
        locally completing access (L1 hit / suppressed) with completion
        cycle ``P`` is collected after the step of cycle ``P - 1`` — and
        only then frees its slot in the in-flight cap — so each core's
        earliest one contributes ``P - 1``.  An issuable op contributes
        its earliest issue cycle.
        """
        best = self.detailed.next_event_cycle()
        for _core_id, state, _sink in cores:
            local_due = state.local_due
            if local_due is not None and (best is None or local_due - 1 < best):
                best = local_due - 1
            if state.next_index < len(state.ops) and len(state.in_flight) < state.cap:
                op = state.ops[state.next_index]
                gap_base = (
                    state.last_issue_cycle
                    if state.last_issue_cycle >= 0
                    else state.phase_start
                )
                due = gap_base + op.issue_gap
                if best is None or due < best:
                    best = due
        if best is not None and best < self.detailed.cycle:
            best = self.detailed.cycle
        return best

    def _issue_ready_ops(self, core_id: int, state: _CoreState, cycle: int) -> None:
        cap = state.cap
        while state.next_index < len(state.ops) and len(state.in_flight) < cap:
            op = state.ops[state.next_index]
            gap_base = (
                state.last_issue_cycle if state.last_issue_cycle >= 0 else state.phase_start
            )
            if cycle < gap_base + op.issue_gap:
                break
            index = state.next_index
            state.next_index += 1
            state.last_issue_cycle = cycle
            outcome = self._functional_access(core_id, op)
            if outcome.blocked_by_protection or not outcome.llc_accessed:
                # Suppressed accesses and L1 hits never reach the shared
                # LLC: they complete locally after a fixed private delay.
                local_delay = 1 if outcome.blocked_by_protection else max(1, outcome.latency)
                due = cycle + local_delay
                state.in_flight.append((index, op, outcome, cycle, due))
                if state.local_due is None or due < state.local_due:
                    state.local_due = due
                continue
            request = LlcRequest(
                core=core_id,
                line_address=op.address // self.detailed.config.line_bytes,
                want_modified=op.is_write,
                issue_cycle=cycle,
                request_id=self._next_request_id,
                hit_override=outcome.llc_hit,
            )
            self._next_request_id += 1
            self.detailed.inject_request(request)
            state.in_flight.append((index, op, outcome, cycle, request))

    def _collect_completions(
        self, core_id: int, state: _CoreState, sink: List[CompletedAccess]
    ) -> int:
        """Record ``core_id``'s finished accesses; returns how many."""
        cycle = self.detailed.cycle
        still_pending: List[tuple] = []
        local_due: Optional[int] = None
        for entry in state.in_flight:
            index, op, outcome, issue, pending = entry
            if isinstance(pending, LlcRequest):
                if pending.complete_cycle is None:
                    still_pending.append(entry)
                    continue
                complete = pending.complete_cycle
            else:
                if pending > cycle:
                    still_pending.append(entry)
                    if local_due is None or pending < local_due:
                        local_due = pending
                    continue
                complete = pending
            record = CompletedAccess(
                core_id=core_id,
                index=index,
                address=op.address,
                issue_cycle=issue,
                complete_cycle=complete,
                l1_hit=outcome.l1_hit and not outcome.llc_accessed,
                llc_hit=outcome.llc_hit,
                blocked=outcome.blocked_by_protection,
                label=op.label,
            )
            sink.append(record)
            self.completed.append(record)
        collected = len(state.in_flight) - len(still_pending)
        state.in_flight = still_pending
        state.local_due = local_due
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
