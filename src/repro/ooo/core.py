"""Cycle-approximate timing model of the RiscyOO out-of-order core.

The model processes a dynamic instruction stream in program order and
computes, for each instruction, the cycles at which it is fetched,
dispatched, issued, completed and committed, subject to the structural
constraints of Figure 4 (2-wide fetch/rename/commit, an 80-entry ROB,
four execution pipelines, bounded load/store queues) and to the memory
hierarchy model of :mod:`repro.mem`.  Branch mispredictions, cache and TLB
misses, MSHR availability, and trap handling all feed back into the
instruction timing, which is what the paper's evaluation measures.

It is a timing *approximation*, not an RTL simulator: instructions are
processed one at a time with O(1) bookkeeping, which keeps full SPEC-like
workload sweeps tractable in pure Python while preserving the effects the
MI6 evaluation depends on (Sections 7.1-7.6).  Known simplifications are
listed in DESIGN.md.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional

from repro.common.fastpath import slow_path_enabled
from repro.common.stats import StatsRegistry
from repro.core.config import CoreConfig
from repro.core.results import CoreResult
from repro.isa.instructions import Instruction, InstructionKind, TrapCause
from repro.mem.hierarchy import MemoryHierarchy
from repro.ooo.frontend import FrontEnd
from repro.ooo.lsq import LoadStoreQueue, MissSlots, StoreBuffer
from repro.ooo.rename import FreeList, ReadyFile, RenameTable
from repro.ooo.rob import CommitRing, IssueQueue, ReorderBuffer


class OutOfOrderCore:
    """Cycle-approximate RiscyOO core model.

    Args:
        hierarchy: Per-core memory hierarchy (owns L1s/TLBs, references the
            shared LLC and DRAM).
        config: Core timing parameters and variant switches.
        stats: Statistics registry shared with the hierarchy.
        purge_callback: Invoked on trap entry/exit when ``flush_on_trap``
            is set; must scrub the core-private state and return the
            number of stall cycles charged (the MI6 purge).
    """

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        config: Optional[CoreConfig] = None,
        *,
        stats: Optional[StatsRegistry] = None,
        purge_callback: Optional[Callable[[], int]] = None,
    ) -> None:
        self.config = config or CoreConfig()
        self.hierarchy = hierarchy
        self.stats = stats if stats is not None else hierarchy.stats
        self.purge_callback = purge_callback
        self.frontend = FrontEnd(hierarchy, fetch_width=self.config.fetch_width, stats=self.stats)
        # Structural models kept for purge audits and unit tests; the hot
        # timing loop uses scalar bookkeeping for speed.
        self.rob = ReorderBuffer(self.config.rob_entries, self.config.commit_width)
        self.issue_queues = {
            "alu": IssueQueue(16),
            "mem": IssueQueue(16),
            "fp": IssueQueue(16),
            "branch": IssueQueue(16),
        }
        self.lsq = LoadStoreQueue(self.config.load_queue_entries, self.config.store_queue_entries)
        self.store_buffer = StoreBuffer(self.config.store_buffer_entries)
        self.rename_table = RenameTable()
        self.free_list = FreeList()
        self._trap_hooks: List[Callable[[TrapCause], None]] = []

    def add_trap_hook(self, hook: Callable[[TrapCause], None]) -> None:
        """Register a callback invoked (functionally) on every trap."""
        self._trap_hooks.append(hook)

    # ------------------------------------------------------------------

    def run(self, instructions: Iterable[Instruction], *, max_instructions: Optional[int] = None) -> CoreResult:
        """Execute an instruction stream and return the timing summary.

        Dispatches to the fast stage loop by default; ``REPRO_SLOW_PATH=1``
        selects :meth:`_run_reference`, the original straight-line
        implementation kept as the bit-identical reference (see
        :mod:`repro.common.fastpath`).
        """
        if slow_path_enabled():
            return self._run_reference(instructions, max_instructions=max_instructions)
        return self._run_fast(instructions, max_instructions=max_instructions)

    def _run_reference(
        self, instructions: Iterable[Instruction], *, max_instructions: Optional[int] = None
    ) -> CoreResult:
        """Reference implementation of the stage loop (the slow path)."""
        config = self.config
        stats = self.stats
        hierarchy = self.hierarchy
        frontend = self.frontend

        mshr_config = hierarchy.llc.config.mshr
        mshr_capacity = mshr_config.entries_per_core
        bank_count = mshr_config.banks
        bank_capacity = mshr_config.entries_per_bank
        stall_on_any_full_bank = mshr_config.stall_whole_file_on_full_bank

        commit_history: deque = deque(maxlen=config.rob_entries)
        reg_ready: Dict[int, int] = {}
        fu_free: Dict[str, List[int]] = {
            "alu": [0] * config.alu_units,
            "mem": [0] * config.mem_units,
            "fp": [0] * config.fp_units,
        }
        outstanding_misses: List[tuple] = []   # (complete_cycle, bank)
        fetch_floor = 0
        dispatch_floor = 0
        last_commit = 0
        # Commit cycles of the most recent commit_width instructions: an
        # instruction may not commit in the same cycle as the instruction
        # commit_width older, bounding throughput to commit_width/cycle.
        commit_window: deque = deque(maxlen=max(1, config.commit_width))
        committed = 0
        committed_since_trap = 0

        counter_committed = stats.counter("core.instructions")
        counter_branches = stats.counter("core.branches")
        counter_traps = stats.counter("core.traps")
        counter_syscalls = stats.counter("core.syscalls")
        counter_flush_stall = stats.counter("core.flush_stall_cycles")
        counter_mshr_wait = stats.counter("core.mshr_wait_cycles")
        counter_mispredict_redirects = stats.counter("core.mispredict_redirects")

        for instruction in instructions:
            if max_instructions is not None and committed >= max_instructions:
                break

            # ---------------- fetch ----------------
            outcome = frontend.fetch(instruction, fetch_floor)
            dispatch = max(outcome.fetch_cycle + config.frontend_depth, dispatch_floor)

            # ROB occupancy: wait for the instruction rob_entries older to commit.
            if len(commit_history) == config.rob_entries:
                dispatch = max(dispatch, commit_history[0])

            # NONSPEC / serialising instructions wait for an empty ROB before
            # they can be renamed; because rename is in order, everything
            # younger is held up behind them (dispatch_floor).
            if instruction.is_serialising or (config.nonspec_memory and instruction.is_memory):
                dispatch = max(dispatch, last_commit)
                dispatch_floor = max(dispatch_floor, dispatch)

            # ---------------- issue ----------------
            ready = dispatch
            for source in instruction.srcs:
                ready = max(ready, reg_ready.get(source, 0))

            kind = instruction.kind
            if kind in (InstructionKind.LOAD, InstructionKind.STORE):
                unit = "mem"
            elif kind in (InstructionKind.FP, InstructionKind.MUL_DIV):
                unit = "fp"
            else:
                unit = "alu"
            unit_slots = fu_free[unit]
            slot_index = min(range(len(unit_slots)), key=unit_slots.__getitem__)
            issue = max(ready, unit_slots[slot_index])
            unit_slots[slot_index] = issue + 1

            # ---------------- execute ----------------
            mshr_wait = 0
            if kind is InstructionKind.LOAD or kind is InstructionKind.STORE:
                access = hierarchy.data_access(
                    instruction.vaddr or 0, is_write=(kind is InstructionKind.STORE)
                )
                latency = access.latency
                if access.llc_accessed and not access.llc_hit:
                    # The miss needs an MSHR (and a bank slot); wait for
                    # availability based on the misses still outstanding.
                    start = issue
                    outstanding_misses[:] = [
                        entry for entry in outstanding_misses if entry[0] > start
                    ]
                    if len(outstanding_misses) >= mshr_capacity:
                        completions = sorted(entry[0] for entry in outstanding_misses)
                        start = completions[len(outstanding_misses) - mshr_capacity]
                    if bank_count > 1:
                        bank_completions = sorted(
                            entry[0] for entry in outstanding_misses if entry[1] == access.llc_bank
                        )
                        if len(bank_completions) >= bank_capacity:
                            start = max(start, bank_completions[len(bank_completions) - bank_capacity])
                        if stall_on_any_full_bank:
                            for bank in range(bank_count):
                                per_bank = sorted(
                                    entry[0] for entry in outstanding_misses if entry[1] == bank
                                )
                                if len(per_bank) >= bank_capacity:
                                    start = max(start, per_bank[len(per_bank) - bank_capacity])
                    mshr_wait = start - issue
                    if mshr_wait:
                        counter_mshr_wait.increment(mshr_wait)
                    outstanding_misses.append((start + latency, access.llc_bank))
                if kind is InstructionKind.STORE:
                    # Stores complete through the store buffer; they do not
                    # hold up dependents or commit for their miss latency.
                    complete = issue + 1 + mshr_wait
                else:
                    complete = issue + latency + mshr_wait
            elif kind is InstructionKind.MUL_DIV:
                complete = issue + config.mul_div_latency
            elif kind is InstructionKind.FP:
                complete = issue + config.fp_latency
            else:
                complete = issue + 1

            # ---------------- control resolution ----------------
            if instruction.is_control:
                counter_branches.increment()
                mispredicted = frontend.resolve_control(instruction, outcome)
                if mispredicted:
                    counter_mispredict_redirects.increment()
                    redirect = complete + config.mispredict_penalty
                    fetch_floor = max(fetch_floor, redirect)
                    frontend.redirect(redirect)

            # ---------------- commit ----------------
            commit = max(complete, last_commit)
            if len(commit_window) == commit_window.maxlen and commit <= commit_window[0]:
                commit = commit_window[0] + 1
            commit_window.append(commit)
            last_commit = commit
            commit_history.append(commit)
            if instruction.dst >= 0:
                reg_ready[instruction.dst] = complete
            committed += 1
            committed_since_trap += 1
            counter_committed.increment()

            # ---------------- traps ----------------
            trap_cause: Optional[TrapCause] = instruction.trap
            if trap_cause is None and config.trap_interval_instructions:
                if committed_since_trap >= config.trap_interval_instructions:
                    trap_cause = TrapCause.TIMER_INTERRUPT
            if trap_cause is not None:
                committed_since_trap = 0
                counter_traps.increment()
                if trap_cause is TrapCause.SYSCALL:
                    counter_syscalls.increment()
                for hook in self._trap_hooks:
                    hook(trap_cause)
                penalty = config.trap_redirect_penalty + config.trap_handler_cycles
                if config.flush_on_trap and self.purge_callback is not None:
                    # Flush on trap entry and again on return from handling
                    # (Section 7.1), stalling the core both times.
                    stall = self.purge_callback() + self.purge_callback()
                    counter_flush_stall.increment(stall)
                    penalty += stall
                fetch_floor = max(fetch_floor, commit + penalty)
                frontend.redirect(fetch_floor)
                last_commit = max(last_commit, fetch_floor)

        total_cycles = last_commit if committed else 0
        return CoreResult(cycles=total_cycles, instructions=committed, stats=stats)

    # repro: allow[fastpath-parity]: the frontend.* counters are inlined bumps of counters
    # the reference path registers inside FrontEnd itself; the equivalence suite compares
    # the full counter sets of both kernels field-for-field.
    def _run_fast(
        self, instructions: Iterable[Instruction], *, max_instructions: Optional[int] = None
    ) -> CoreResult:
        """Fast stage loop: same semantics as :meth:`_run_reference`.

        Differences are strictly mechanical — attribute lookups hoisted
        into locals, enum membership tests against prebound members,
        counter handles bound once, the per-instruction
        ``FetchOutcome``/``HierarchyAccess`` records replaced by inlined
        fetch-slot arithmetic and the timing tuple of
        :meth:`MemoryHierarchy.data_access_timing`, and the per-entry hot
        state held in flat slot structures (:class:`CommitRing`,
        :class:`ReadyFile`, :class:`MissSlots`) instead of
        deque/dict/tuple-list containers.

        The front-end fetch state (``_current_cycle`` / ``_slots_used`` /
        ``_last_fetch_line``) lives in locals for the duration of the
        loop; it is synchronised back to the :class:`FrontEnd` around any
        callback that may observe or scrub it (trap hooks, the purge
        callback, which clears the fetch line via ``flush_predictors``)
        and when the run ends.  ``fetch_range`` is bound once: nothing
        changes it mid-run.

        ALU instructions additionally go through a memoized timing lane:
        for a straight-line ALU instruction (same fetch line, no trap
        pending) the cycle deltas it produces are a pure function of the
        pipeline state *relative to the fetch base cycle* — the memo key.
        A key miss computes the deltas once; a key hit replays them.
        Divergent state (an instruction-line crossing, a pending
        redirect past the fetch cycle, a timer trap about to fire, or a
        machine-mode fetch range) fails the applicability gate and takes
        the generic path, which is the "invalidated when cache/branch
        state diverges" rule: anything whose timing could depend on cache
        or predictor state is never served from the memo.  The
        equivalence suite asserts bit-identical results against the
        reference.
        """
        config = self.config
        stats = self.stats
        frontend = self.frontend
        resolve_control_timing = frontend.resolve_control_timing
        predictor_predict = frontend.predictor.predict
        btb_lookup = frontend.btb.lookup
        ras_push = frontend.ras.push
        ras_pop = frontend.ras.pop
        fetch_width = frontend.fetch_width
        fetch_range = frontend.fetch_range
        line_bytes = frontend._line_bytes
        l1i_hit_latency = frontend._l1i_hit_latency
        btb_miss_bubble = frontend.BTB_MISS_BUBBLE
        fetch_access_timing = self.hierarchy.fetch_access_timing
        data_access_timing = self.hierarchy.data_access_timing

        mshr_config = self.hierarchy.llc.config.mshr
        mshr_capacity = mshr_config.entries_per_core
        bank_count = mshr_config.banks
        bank_capacity = mshr_config.entries_per_bank
        stall_on_any_full_bank = mshr_config.stall_whole_file_on_full_bank

        frontend_depth = config.frontend_depth
        rob_entries = config.rob_entries
        nonspec_memory = config.nonspec_memory
        mul_div_latency = config.mul_div_latency
        fp_latency = config.fp_latency
        mispredict_penalty = config.mispredict_penalty
        trap_interval = config.trap_interval_instructions
        trap_base_penalty = config.trap_redirect_penalty + config.trap_handler_cycles
        flush_on_trap = config.flush_on_trap
        trap_hooks = self._trap_hooks

        LOAD = InstructionKind.LOAD
        STORE = InstructionKind.STORE
        MUL_DIV = InstructionKind.MUL_DIV
        FP = InstructionKind.FP
        BRANCH = InstructionKind.BRANCH
        JUMP = InstructionKind.JUMP
        RETURN = InstructionKind.RETURN
        CSR = InstructionKind.CSR
        FENCE = InstructionKind.FENCE
        SYSCALL = InstructionKind.SYSCALL
        PURGE = InstructionKind.PURGE
        TIMER_INTERRUPT = TrapCause.TIMER_INTERRUPT
        SYSCALL_CAUSE = TrapCause.SYSCALL

        ALU = InstructionKind.ALU

        # Slot-backed hot state (tentpole: array/slot representations).
        commit_ring = CommitRing(rob_entries)
        ring_cycles = commit_ring.cycles
        ring_index = 0
        ready_file = ReadyFile()
        reg_ready = ready_file.cycles
        reg_count = len(reg_ready)
        alu_slots = [0] * config.alu_units
        mem_slots = [0] * config.mem_units
        fp_slots = [0] * config.fp_units
        miss_slots = MissSlots(mshr_capacity)
        miss_completions = miss_slots.completions
        miss_banks = miss_slots.banks
        miss_count = 0
        fetch_floor = 0
        dispatch_floor = 0
        last_commit = 0
        window_len = max(1, config.commit_width)
        window_ring = CommitRing(window_len)
        window_cycles = window_ring.cycles
        window_index = 0
        committed = 0
        committed_since_trap = 0
        limit = max_instructions if max_instructions is not None else float("inf")

        # Front-end fetch state, held in locals (see docstring).
        fe_cycle = frontend._current_cycle
        fe_slots = frontend._slots_used
        fe_line = frontend._last_fetch_line

        # Memoized ALU timing lane (see docstring).
        memo_enabled = config.alu_units == 2 and fetch_range is None
        memo: Dict[tuple, tuple] = {}
        memo_get = memo.get

        counter_committed = stats.counter("core.instructions")
        counter_branches = stats.counter("core.branches")
        counter_traps = stats.counter("core.traps")
        counter_syscalls = stats.counter("core.syscalls")
        counter_flush_stall = stats.counter("core.flush_stall_cycles")
        counter_mshr_wait = stats.counter("core.mshr_wait_cycles")
        counter_mispredict_redirects = stats.counter("core.mispredict_redirects")
        counter_fetched = stats.counter("frontend.fetched")
        counter_range_violations = None
        counter_ras_mispredicts = None

        for instruction in instructions:
            if committed >= limit:
                break

            # One tuple unpack instead of per-field descriptor lookups
            # (Instruction is a NamedTuple, i.e. a real tuple).
            (
                kind,
                _sequence,
                pc,
                dst,
                srcs,
                vaddr,
                _sizes,
                _branch_id,
                _taken,
                target,
                trap,
            ) = instruction

            # ---------------- memoized ALU lane ----------------
            if (
                memo_enabled
                and kind is ALU
                and trap is None
                and committed >= window_len
                and (not trap_interval or committed_since_trap + 1 < trap_interval)
            ):
                if fetch_floor > fe_cycle:
                    base = fetch_floor
                    eff_slots = 0
                else:
                    base = fe_cycle
                    eff_slots = fe_slots
                if pc // line_bytes == fe_line:
                    # Straight-line fetch: no i-cache access, the timing is
                    # a pure function of the relative pipeline state.
                    src_max = 0
                    for source in srcs:
                        if source < reg_count:
                            source_ready = reg_ready[source]
                            if source_ready > src_max:
                                src_max = source_ready
                    fetch_rel = 1 if eff_slots >= fetch_width else 0
                    dispatch = base + fetch_rel + frontend_depth
                    if dispatch_floor > dispatch:
                        dispatch = dispatch_floor
                    if committed >= rob_entries:
                        oldest = ring_cycles[ring_index]
                        if oldest > dispatch:
                            dispatch = oldest
                    ready = dispatch if dispatch > src_max else src_max
                    signature = (
                        eff_slots,
                        ready - base,
                        alu_slots[0] - base,
                        alu_slots[1] - base,
                        last_commit - base,
                        window_cycles[window_index] - base,
                    )
                    deltas = memo_get(signature)
                    if deltas is not None:
                        slot_index, issue_rel, commit_rel = deltas
                        fe_cycle = base + fetch_rel
                        fe_slots = (0 if fetch_rel else eff_slots) + 1
                        alu_slots[slot_index] = base + issue_rel + 1
                        commit = base + commit_rel
                        window_cycles[window_index] = commit
                        window_index += 1
                        if window_index == window_len:
                            window_index = 0
                        last_commit = commit
                        ring_cycles[ring_index] = commit
                        ring_index += 1
                        if ring_index == rob_entries:
                            ring_index = 0
                        if dst >= 0:
                            if dst >= reg_count:
                                reg_ready.extend([0] * (dst + 1 - reg_count))
                                reg_count = dst + 1
                            reg_ready[dst] = base + issue_rel + 1
                        committed += 1
                        committed_since_trap += 1
                        counter_committed.value += 1
                        counter_fetched.value += 1
                        continue
                    # Memo miss: compute the ALU timing once and record the
                    # deltas for this signature.
                    fe_cycle = base + fetch_rel
                    fe_slots = (0 if fetch_rel else eff_slots) + 1
                    alu0 = alu_slots[0]
                    alu1 = alu_slots[1]
                    if alu1 < alu0:
                        slot_index = 1
                        issue = alu1
                    else:
                        slot_index = 0
                        issue = alu0
                    if ready > issue:
                        issue = ready
                    alu_slots[slot_index] = issue + 1
                    complete = issue + 1
                    commit = complete if complete > last_commit else last_commit
                    window_oldest = window_cycles[window_index]
                    if commit <= window_oldest:
                        commit = window_oldest + 1
                    window_cycles[window_index] = commit
                    window_index += 1
                    if window_index == window_len:
                        window_index = 0
                    last_commit = commit
                    ring_cycles[ring_index] = commit
                    ring_index += 1
                    if ring_index == rob_entries:
                        ring_index = 0
                    if dst >= 0:
                        if dst >= reg_count:
                            reg_ready.extend([0] * (dst + 1 - reg_count))
                            reg_count = dst + 1
                        reg_ready[dst] = complete
                    committed += 1
                    committed_since_trap += 1
                    counter_committed.value += 1
                    counter_fetched.value += 1
                    if len(memo) > 65536:
                        memo.clear()
                    memo[signature] = (slot_index, issue - base, commit - base)
                    continue

            # ---------------- fetch (inlined FrontEnd.fetch_timing) -----
            if fetch_floor > fe_cycle:
                fe_cycle = fetch_floor
                fe_slots = 0
            if fe_slots >= fetch_width:
                fe_cycle += 1
                fe_slots = 0
            if fetch_range is not None:
                range_low, range_high = fetch_range
                if not (range_low <= pc < range_high):
                    if counter_range_violations is None:
                        counter_range_violations = stats.counter(
                            "frontend.fetch_range_violations"
                        )
                    counter_range_violations.value += 1
            line = pc // line_bytes
            if line != fe_line:
                fe_line = line
                fetch_latency, l1_hit = fetch_access_timing(pc)
                if not l1_hit:
                    # The fetch stream stalls for the miss latency.
                    fe_cycle += fetch_latency - l1i_hit_latency
                    fe_slots = 0
            fetch_cycle = fe_cycle
            fe_slots += 1
            counter_fetched.value += 1

            is_control = False
            if kind is BRANCH:
                is_control = True
                predicted_taken = predictor_predict(pc)
                target_known = True
                if predicted_taken and btb_lookup(pc) is None:
                    target_known = False
                    fe_cycle += btb_miss_bubble
                    fe_slots = 0
            elif kind is JUMP:
                is_control = True
                predicted_taken = True
                target_known = btb_lookup(pc) is not None
                if not target_known:
                    fe_cycle += btb_miss_bubble
                    fe_slots = 0
                ras_push(pc + 4)
            elif kind is RETURN:
                is_control = True
                predicted_taken = True
                predicted_return = ras_pop()
                target_known = predicted_return is not None and (
                    target is None or predicted_return == target
                )
                if not target_known:
                    if counter_ras_mispredicts is None:
                        counter_ras_mispredicts = stats.counter("frontend.ras_mispredicts")
                    counter_ras_mispredicts.value += 1

            dispatch = fetch_cycle + frontend_depth
            if dispatch_floor > dispatch:
                dispatch = dispatch_floor

            # ROB occupancy: wait for the instruction rob_entries older to commit.
            if committed >= rob_entries:
                oldest = ring_cycles[ring_index]
                if oldest > dispatch:
                    dispatch = oldest

            # NONSPEC / serialising instructions wait for an empty ROB before
            # they can be renamed; because rename is in order, everything
            # younger is held up behind them (dispatch_floor).
            if (
                kind is CSR
                or kind is FENCE
                or kind is SYSCALL
                or kind is PURGE
                or (nonspec_memory and (kind is LOAD or kind is STORE))
            ):
                if last_commit > dispatch:
                    dispatch = last_commit
                if dispatch > dispatch_floor:
                    dispatch_floor = dispatch

            # ---------------- issue ----------------
            ready = dispatch
            for source in srcs:
                source_ready = reg_ready[source] if source < reg_count else 0
                if source_ready > ready:
                    ready = source_ready

            if kind is LOAD or kind is STORE:
                unit_slots = mem_slots
            elif kind is FP or kind is MUL_DIV:
                unit_slots = fp_slots
            else:
                unit_slots = alu_slots
            slot_index = 0
            issue = unit_slots[0]
            for index in range(1, len(unit_slots)):
                slot_free = unit_slots[index]
                if slot_free < issue:
                    issue = slot_free
                    slot_index = index
            if ready > issue:
                issue = ready
            unit_slots[slot_index] = issue + 1

            # ---------------- execute ----------------
            mshr_wait = 0
            if kind is LOAD or kind is STORE:
                is_store = kind is STORE
                latency, llc_miss, llc_bank = data_access_timing(
                    vaddr or 0, is_write=is_store
                )
                if llc_miss:
                    # The miss needs an MSHR (and a bank slot); wait for
                    # availability based on the misses still outstanding.
                    start = issue
                    if miss_count:
                        # Expire completed misses in place.
                        write_index = 0
                        for read_index in range(miss_count):
                            completion = miss_completions[read_index]
                            if completion > start:
                                if write_index != read_index:
                                    miss_completions[write_index] = completion
                                    miss_banks[write_index] = miss_banks[read_index]
                                write_index += 1
                        miss_count = write_index
                        if miss_count >= mshr_capacity:
                            completions = sorted(miss_completions[:miss_count])
                            start = completions[miss_count - mshr_capacity]
                        if bank_count > 1:
                            bank_completions = sorted(
                                miss_completions[entry]
                                for entry in range(miss_count)
                                if miss_banks[entry] == llc_bank
                            )
                            if len(bank_completions) >= bank_capacity:
                                candidate = bank_completions[len(bank_completions) - bank_capacity]
                                if candidate > start:
                                    start = candidate
                            if stall_on_any_full_bank:
                                for bank in range(bank_count):
                                    per_bank = sorted(
                                        miss_completions[entry]
                                        for entry in range(miss_count)
                                        if miss_banks[entry] == bank
                                    )
                                    if len(per_bank) >= bank_capacity:
                                        candidate = per_bank[len(per_bank) - bank_capacity]
                                        if candidate > start:
                                            start = candidate
                        mshr_wait = start - issue
                        if mshr_wait:
                            counter_mshr_wait.value += mshr_wait
                    if miss_count == len(miss_completions):
                        miss_completions.append(start + latency)
                        miss_banks.append(llc_bank)
                    else:
                        miss_completions[miss_count] = start + latency
                        miss_banks[miss_count] = llc_bank
                    miss_count += 1
                if is_store:
                    # Stores complete through the store buffer; they do not
                    # hold up dependents or commit for their miss latency.
                    complete = issue + 1 + mshr_wait
                else:
                    complete = issue + latency + mshr_wait
            elif kind is MUL_DIV:
                complete = issue + mul_div_latency
            elif kind is FP:
                complete = issue + fp_latency
            else:
                complete = issue + 1

            # ---------------- control resolution ----------------
            if is_control:
                counter_branches.value += 1
                if resolve_control_timing(instruction, predicted_taken, target_known):
                    counter_mispredict_redirects.value += 1
                    redirect = complete + mispredict_penalty
                    if redirect > fetch_floor:
                        fetch_floor = redirect
                    # Inlined FrontEnd.redirect.
                    if redirect > fe_cycle:
                        fe_cycle = redirect
                        fe_slots = 0
                    fe_line = None

            # ---------------- commit ----------------
            commit = complete if complete > last_commit else last_commit
            if committed >= window_len:
                window_oldest = window_cycles[window_index]
                if commit <= window_oldest:
                    commit = window_oldest + 1
            window_cycles[window_index] = commit
            window_index += 1
            if window_index == window_len:
                window_index = 0
            last_commit = commit
            ring_cycles[ring_index] = commit
            ring_index += 1
            if ring_index == rob_entries:
                ring_index = 0
            if dst >= 0:
                if dst >= reg_count:
                    reg_ready.extend([0] * (dst + 1 - reg_count))
                    reg_count = dst + 1
                reg_ready[dst] = complete
            committed += 1
            committed_since_trap += 1
            counter_committed.value += 1

            # ---------------- traps ----------------
            trap_cause: Optional[TrapCause] = trap
            if trap_cause is None and trap_interval:
                if committed_since_trap >= trap_interval:
                    trap_cause = TIMER_INTERRUPT
            if trap_cause is not None:
                committed_since_trap = 0
                counter_traps.value += 1
                if trap_cause is SYSCALL_CAUSE:
                    counter_syscalls.value += 1
                # Callbacks may observe or scrub front-end state (the purge
                # clears the fetch line): synchronise the locals around them.
                frontend._current_cycle = fe_cycle
                frontend._slots_used = fe_slots
                frontend._last_fetch_line = fe_line
                for hook in trap_hooks:
                    hook(trap_cause)
                penalty = trap_base_penalty
                if flush_on_trap and self.purge_callback is not None:
                    # Flush on trap entry and again on return from handling
                    # (Section 7.1), stalling the core both times.
                    stall = self.purge_callback() + self.purge_callback()
                    counter_flush_stall.value += stall
                    penalty += stall
                fe_cycle = frontend._current_cycle
                fe_slots = frontend._slots_used
                fe_line = frontend._last_fetch_line
                floor = commit + penalty
                if floor > fetch_floor:
                    fetch_floor = floor
                # Inlined FrontEnd.redirect.
                if fetch_floor > fe_cycle:
                    fe_cycle = fetch_floor
                    fe_slots = 0
                fe_line = None
                if fetch_floor > last_commit:
                    last_commit = fetch_floor

        # Synchronise the state the loop kept in locals.
        frontend._current_cycle = fe_cycle
        frontend._slots_used = fe_slots
        frontend._last_fetch_line = fe_line
        commit_ring.index = ring_index
        commit_ring.filled = committed if committed < rob_entries else rob_entries
        window_ring.index = window_index
        window_ring.filled = committed if committed < window_len else window_len
        miss_slots.count = miss_count

        total_cycles = last_commit if committed else 0
        return CoreResult(cycles=total_cycles, instructions=committed, stats=stats)
