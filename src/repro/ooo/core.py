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
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.common.fastpath import slow_path_enabled
from repro.common.stats import StatsRegistry
from repro.core.config import CoreConfig
from repro.core.results import CoreResult
from repro.isa.instructions import ARCH_REGISTER_COUNT, Instruction, InstructionKind, TrapCause
from repro.mem.cache import SetAssociativeCache
from repro.mem.hierarchy import MemoryHierarchy
from repro.ooo.frontend import FrontEnd
from repro.ooo.lsq import LoadStoreQueue, StoreBuffer
from repro.ooo.rename import FreeList, RenameTable
from repro.ooo.rob import IssueQueue, ReorderBuffer


#: The page mappings the fused lanes of :meth:`OutOfOrderCore._run_fast`
#: see when they cannot run: every lookup misses, so every access takes
#: the hierarchy's full accessor.
_NO_PAGES: Dict[int, int] = {}


def _fusable(cache: SetAssociativeCache) -> bool:
    """Whether a fused lane may apply an L1 hit to ``cache``'s slabs in place.

    That needs the slab layout, the default index and tag functions, and
    a replacement policy with no recency state to touch on a hit (the
    L1s' pseudo-random one).
    """
    return cache._uses_slabs and cache._fast_offset_bits is not None and cache._lru_stacks is None


def _kind_classes(
    config: CoreConfig, alu_slots: List[int], mem_slots: List[int], fp_slots: List[int]
) -> Dict[object, tuple]:
    """What :meth:`OutOfOrderCore._run_fast` needs of each instruction kind.

    Keyed by the kind's ``_value_``, which the loop reads faster than an
    enum member hashes: ``(pipelines, fixed_latency, is_control,
    serialising)``, the free-cycle list of the pipelines the kind issues
    to, its latency (``None`` for loads and stores: the access's), and
    whether it redirects the front end or waits for an empty ROB.
    """
    classes: Dict[object, tuple] = {}
    for kind in InstructionKind:
        probe = Instruction(kind)
        if probe.is_memory:
            entry = (mem_slots, None, False, config.nonspec_memory)
        elif kind is InstructionKind.MUL_DIV:
            entry = (fp_slots, config.mul_div_latency, False, False)
        elif kind is InstructionKind.FP:
            entry = (fp_slots, config.fp_latency, False, False)
        else:
            entry = (alu_slots, 1, probe.is_control, probe.is_serialising)
        classes[kind._value_] = entry
    return classes


def _region_memo(
    region_allowed: Optional[Callable[[int], bool]], page_bytes: int, region_bytes: int
) -> Tuple[Set[int], Callable[[int, int], bool]]:
    """The DRAM-region check memoized per physical page: ``(allowed_frames, check)``.

    The fused lanes test ``frame in allowed_frames or check(physical,
    frame)``; ``check`` runs the check on the address and records the
    page frame when it allows.  Only an allowing verdict is kept: the
    check counts nothing when it allows and counts every denied access.
    A page that may straddle two DRAM regions is never recorded.
    """
    allowed_frames: Set[int] = set()
    record = allowed_frames.add
    straddles = region_bytes % page_bytes != 0

    def check(physical: int, frame: int) -> bool:
        if region_allowed is not None and not region_allowed(physical):
            return False
        if not straddles:
            record(frame)
        return True

    return allowed_frames, check


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

    def _lane_context(self) -> tuple:
        """State :meth:`_run_fast` holds in locals that a callback may replace.

        A trap hook may install a new page table, region check or owner
        (a context switch), and a purge replaces the L1 tag slabs and the
        BTB lists, so the loop reads these again after every trap.  When
        the fused lanes cannot read the structures directly (bare
        physical mode, or L1s without the slab layout), the mappings
        are empty and every access takes the hierarchy's full accessor.
        The region check comes memoized per physical page
        (:func:`_region_memo`), with a new, empty memo on every read: a
        trap hook is the only code that changes a region bitvector
        mid-run, so a memo never outlives the bitvector it answered for.
        """
        hierarchy = self.hierarchy
        page_table = hierarchy.page_table
        l1d = hierarchy.l1d.cache
        l1i = hierarchy.l1i.cache
        btb = self.frontend.btb
        mappings = (
            page_table.mappings
            if page_table is not None and _fusable(l1d) and _fusable(l1i)
            else _NO_PAGES
        )
        page_bytes = page_table.page_bytes if page_table is not None else 1
        allowed_frames, check_region = _region_memo(
            hierarchy.region_allowed, page_bytes, hierarchy.address_map.region_bytes
        )
        return (
            mappings.get,
            page_bytes,
            allowed_frames,
            check_region,
            hierarchy.owner,
            l1d._tag_maps,
            l1d._slab_dirty,
            l1d._slab_owners,
            l1i._tag_maps,
            l1i._slab_owners,
            btb._tags,
            btb._targets,
        )

    def _add_tallies(self, instructions: int, *lane_hits: int) -> None:
        """Add the counts :meth:`_run_fast` keeps in locals to their counters.

        ``instructions`` is both the fetched and the committed count, and
        ``lane_hits`` the fused-lane hits of the I-TLB, L1I, D-TLB and L1D,
        each one access and one hit.  A structure with hits holds both
        handles: the lanes run only once it does.
        """
        stats = self.stats
        stats.counter("core.instructions").value += instructions
        stats.counter("frontend.fetched").value += instructions
        hierarchy = self.hierarchy
        structures = (hierarchy.itlb, hierarchy.l1i.cache, hierarchy.dtlb, hierarchy.l1d.cache)
        for structure, hits in zip(structures, lane_hits):
            if hits:
                structure._c_access.value += hits
                structure._c_hit.value += hits

    # repro: allow[fastpath-parity]: the frontend.* counters are inlined bumps of counters
    # the reference path registers inside FrontEnd itself; the equivalence suite compares
    # the full counter sets of both kernels field-for-field.
    def _run_fast(
        self, instructions: Iterable[Instruction], *, max_instructions: Optional[int] = None
    ) -> CoreResult:
        """Fast stage loop: same semantics as :meth:`_run_reference`.

        Differences are strictly mechanical: attribute lookups hoisted
        into locals, counter handles bound once, ``FrontEnd.fetch`` and
        ``FrontEnd.resolve_control`` inlined without their
        ``FetchOutcome`` records, the issue slot picked without a loop
        for one or two pipelines, and the per-instruction hot state in
        plain lists instead of deque/dict/tuple-list containers.

        Per-event bookkeeping is paid per event, not per instruction:

        * one lookup in :func:`_kind_classes` classifies each instruction;
        * one ring of the last ``rob_entries`` commit cycles, preset to
          -1 (earlier than any cycle), answers both the ROB-occupancy
          rule and the commit-width rule, which reads ``commit_width``
          entries back (:class:`CoreConfig` keeps that within the ring);
        * the timer trap is a countdown, kept as the index where it runs
          out, that every trap, SYSCALL traps included, restarts;
          ``max_instructions`` is an :func:`itertools.islice`;
        * ``core.instructions``, ``frontend.fetched`` and the fused
          lanes' TLB and L1 access/hit pairs are tallied in locals and
          added to their counters (:meth:`_add_tallies`) before each
          trap callback and when the run ends, so a trap hook sees the
          counters the reference kernel shows it.  A run an accessor
          aborts counts the instruction it raised in as fetched and
          committed.

        The common memory access runs in the loop itself.  A fetch of a
        new line whose I-TLB entry is resident and mapped, and a load or
        store whose D-TLB entry is, touch the TLB's LRU list in place;
        if the L1 also holds the line and the region check passes, the
        L1 hit is applied in place too.  Every other case takes the
        hierarchy's own code, so each counter bump, fill and eviction
        happens exactly once: a TLB miss or page fault goes to
        ``fetch_access_timing`` / ``data_access_timing``, and an L1 miss
        after a TLB hit to ``_physical_fetch_timing`` /
        ``_physical_data_timing``.  The lanes run only once the TLB and
        L1 hold their hit counter handles; until then, their accesses
        take the full accessor, which registers them.

        The front-end fetch state (``_current_cycle`` / ``_slots_used`` /
        ``_last_fetch_line``) lives in locals for the duration of the
        loop; it is synchronised back to the :class:`FrontEnd` around any
        callback that may observe or scrub it (trap hooks, the purge
        callback, which clears the fetch line via ``flush_predictors``)
        and when the run ends.  The hierarchy context, the region memo
        and the L1 and BTB lists come from :meth:`_lane_context`, read
        again after those callbacks.  ``fetch_range`` is bound once:
        nothing changes it mid-run.
        """
        config = self.config
        stats = self.stats
        hierarchy = self.hierarchy
        frontend = self.frontend
        predictor_predict = frontend.predictor.predict
        predictor_update = frontend.predictor.update
        btb_lookup = frontend.btb.lookup
        btb_entries = frontend.btb.entries
        ras_push = frontend.ras.push
        ras_pop = frontend.ras.pop
        fetch_width = frontend.fetch_width
        fetch_range = frontend.fetch_range
        line_bytes = frontend._line_bytes
        l1i_hit_latency = frontend._l1i_hit_latency
        btb_miss_bubble = frontend.BTB_MISS_BUBBLE

        # Fused TLB/L1 hit lanes (see docstring).
        fetch_access_timing = hierarchy.fetch_access_timing
        data_access_timing = hierarchy.data_access_timing
        physical_fetch_timing = hierarchy._physical_fetch_timing
        physical_data_timing = hierarchy._physical_data_timing
        count_blocked_fetch = hierarchy._count_blocked_fetch
        count_blocked_access = hierarchy._count_blocked_access
        itlb = hierarchy.itlb
        itlb_sets = itlb._sets
        itlb_asid_get = itlb._asid_of.get
        itlb_page_bytes = itlb.page_bytes
        itlb_num_sets = itlb.num_sets
        dtlb = hierarchy.dtlb
        dtlb_sets = dtlb._sets
        dtlb_asid_get = dtlb._asid_of.get
        dtlb_page_bytes = dtlb.page_bytes
        dtlb_num_sets = dtlb.num_sets
        l1i = hierarchy.l1i.cache
        l1i_shift = l1i._fast_offset_bits
        l1i_set_mask = l1i._fast_set_mask
        l1i_ways = l1i._ways
        l1d = hierarchy.l1d.cache
        l1d_shift = l1d._fast_offset_bits
        l1d_set_mask = l1d._fast_set_mask
        l1d_ways = l1d._ways
        l1d_hit_latency = hierarchy.l1d.hit_latency
        c_itlb_hit = itlb._c_hit
        c_dtlb_hit = dtlb._c_hit
        c_l1i_hit = l1i._c_hit
        c_l1d_hit = l1d._c_hit
        (
            mappings_get, page_bytes, allowed_frames, check_region, owner,
            l1d_tag_maps, l1d_dirty, l1d_owners, l1i_tag_maps, l1i_owners,
            btb_tags, btb_targets,
        ) = self._lane_context()

        mshr_config = hierarchy.llc.config.mshr
        mshr_capacity = mshr_config.entries_per_core
        bank_count = mshr_config.banks
        bank_capacity = mshr_config.entries_per_bank
        stall_on_any_full_bank = mshr_config.stall_whole_file_on_full_bank

        frontend_depth = config.frontend_depth
        rob_entries = config.rob_entries
        window_len = max(1, config.commit_width)
        mispredict_penalty = config.mispredict_penalty
        trap_interval = config.trap_interval_instructions
        trap_base_penalty = config.trap_redirect_penalty + config.trap_handler_cycles
        flush_on_trap = config.flush_on_trap
        trap_hooks = self._trap_hooks

        STORE = InstructionKind.STORE
        BRANCH = InstructionKind.BRANCH
        JUMP = InstructionKind.JUMP
        TIMER_INTERRUPT = TrapCause.TIMER_INTERRUPT
        SYSCALL_CAUSE = TrapCause.SYSCALL

        alu_slots = [0] * config.alu_units
        mem_slots = [0] * config.mem_units
        fp_slots = [0] * config.fp_units
        kind_classes = _kind_classes(config, alu_slots, mem_slots, fp_slots)
        # Commit cycles of the last rob_entries instructions; the entry of
        # instruction i is ring_cycles[i % rob_entries].
        ring_cycles = [-1] * rob_entries
        # Ready cycle of each architectural register (0 if never written).
        reg_ready = [0] * ARCH_REGISTER_COUNT
        reg_count = ARCH_REGISTER_COUNT
        # Outstanding LLC misses: parallel completion-cycle and bank lists,
        # live in the first miss_count entries.
        miss_completions: List[int] = []
        miss_banks: List[int] = []
        miss_count = 0
        fetch_floor = 0
        dispatch_floor = 0
        last_commit = 0
        # The timer countdown: the index at which the next timer trap falls.
        timer_step = max(trap_interval, 1) if trap_interval else 0
        timer_at = timer_step - 1
        if max_instructions is not None:
            instructions = islice(instructions, max(0, max_instructions))

        # Front-end fetch state, held in locals (see docstring).
        fe_cycle = frontend._current_cycle
        fe_slots = frontend._slots_used
        fe_line = frontend._last_fetch_line

        # The tallied counters are registered here; _add_tallies adds to them.
        stats.counter("core.instructions")
        counter_branches = stats.counter("core.branches")
        counter_traps = stats.counter("core.traps")
        counter_syscalls = stats.counter("core.syscalls")
        counter_flush_stall = stats.counter("core.flush_stall_cycles")
        counter_mshr_wait = stats.counter("core.mshr_wait_cycles")
        counter_mispredict_redirects = stats.counter("core.mispredict_redirects")
        stats.counter("frontend.fetched")
        counter_range_violations = None
        counter_ras_mispredicts = None
        counter_branch_mispredicts = None
        counter_target_mispredicts = None

        # Tallies (see docstring): the instructions up to ``tallied`` and
        # every fused-lane hit before the last trap are in the counters.
        index = -1
        tallied = 0
        itlb_hits = l1i_hits = dtlb_hits = l1d_hits = 0
        try:
            for index, (
                kind, _sequence, pc, dst, srcs, vaddr, _size, _branch_id, taken, target, trap,
            ) in enumerate(instructions):
                unit_slots, fixed_latency, is_control, serialising = kind_classes[kind._value_]

                # ---------------- fetch (inlined FrontEnd.fetch) ----------------
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
                    # Fused I-TLB-hit -> L1I-hit lane.
                    vpn = pc // itlb_page_bytes
                    entries = itlb_sets[vpn % itlb_num_sets]
                    ppn = (
                        mappings_get(pc // page_bytes)
                        if c_itlb_hit is not None and vpn in entries and itlb_asid_get(vpn, 0) == 0
                        else None
                    )
                    if ppn is None:
                        fetch_latency, l1_hit = fetch_access_timing(pc)
                        c_itlb_hit = itlb._c_hit
                    else:
                        itlb_hits += 1
                        if entries[0] != vpn:
                            entries.remove(vpn)
                            entries.insert(0, vpn)
                        physical = ppn * page_bytes + pc % page_bytes
                        tag = physical >> l1i_shift
                        set_index = tag & l1i_set_mask
                        way = l1i_tag_maps[set_index].get(tag)
                        if way is None or c_l1i_hit is None:
                            fetch_latency, l1_hit = physical_fetch_timing(physical)
                            c_l1i_hit = l1i._c_hit
                        else:
                            l1_hit = True
                            if ppn in allowed_frames or check_region(physical, ppn):
                                l1i_hits += 1
                                if owner is not None:
                                    l1i_owners[set_index * l1i_ways + way] = owner
                            else:
                                count_blocked_fetch()
                    if not l1_hit:
                        # The fetch stream stalls for the miss latency.
                        fe_cycle += fetch_latency - l1i_hit_latency
                        fe_slots = 0
                fetch_cycle = fe_cycle
                fe_slots += 1

                if is_control:
                    if kind is BRANCH:
                        predicted_taken = predictor_predict(pc)
                        target_known = True
                        if predicted_taken and btb_lookup(pc) is None:
                            target_known = False
                            fe_cycle += btb_miss_bubble
                            fe_slots = 0
                    elif kind is JUMP:
                        predicted_taken = True
                        target_known = btb_lookup(pc) is not None
                        if not target_known:
                            fe_cycle += btb_miss_bubble
                            fe_slots = 0
                        ras_push(pc + 4)
                    else:
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
                slot = index % rob_entries
                oldest = ring_cycles[slot]
                if oldest > dispatch:
                    dispatch = oldest

                # NONSPEC / serialising instructions wait for an empty ROB before
                # they can be renamed; because rename is in order, everything
                # younger is held up behind them (dispatch_floor).
                if serialising:
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

                # The earliest-free pipeline, lowest index on a tie.
                issue = unit_slots[0]
                pipeline = 0
                unit_count = len(unit_slots)
                if unit_count == 2:
                    if unit_slots[1] < issue:
                        issue = unit_slots[1]
                        pipeline = 1
                elif unit_count > 2:
                    for candidate_index in range(1, unit_count):
                        slot_free = unit_slots[candidate_index]
                        if slot_free < issue:
                            issue = slot_free
                            pipeline = candidate_index
                if ready > issue:
                    issue = ready
                unit_slots[pipeline] = issue + 1

                # ---------------- execute ----------------
                if fixed_latency is not None:
                    complete = issue + fixed_latency
                else:
                    is_store = kind is STORE
                    address = vaddr or 0
                    # Fused D-TLB-hit -> L1D-hit lane.
                    vpn = address // dtlb_page_bytes
                    entries = dtlb_sets[vpn % dtlb_num_sets]
                    ppn = (
                        mappings_get(address // page_bytes)
                        if c_dtlb_hit is not None and vpn in entries and dtlb_asid_get(vpn, 0) == 0
                        else None
                    )
                    if ppn is None:
                        latency, llc_miss, llc_bank = data_access_timing(address, is_write=is_store)
                        c_dtlb_hit = dtlb._c_hit
                    else:
                        dtlb_hits += 1
                        if entries[0] != vpn:
                            entries.remove(vpn)
                            entries.insert(0, vpn)
                        physical = ppn * page_bytes + address % page_bytes
                        tag = physical >> l1d_shift
                        set_index = tag & l1d_set_mask
                        way = l1d_tag_maps[set_index].get(tag)
                        llc_miss = False
                        if way is None or c_l1d_hit is None:
                            latency, llc_parts, _blocked = physical_data_timing(
                                physical, is_write=is_store
                            )
                            c_l1d_hit = l1d._c_hit
                            if llc_parts is not None and not llc_parts[0]:
                                llc_miss = True
                                llc_bank = llc_parts[3]
                        elif ppn in allowed_frames or check_region(physical, ppn):
                            l1d_hits += 1
                            line_slot = set_index * l1d_ways + way
                            if is_store:
                                l1d_dirty[line_slot] = True
                            if owner is not None:
                                l1d_owners[line_slot] = owner
                            latency = l1d_hit_latency
                        else:
                            count_blocked_access()
                            latency = 0
                    mshr_wait = 0
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

                # ------- control resolution (inlined FrontEnd.resolve_control) -------
                if is_control:
                    counter_branches.value += 1
                    if kind is BRANCH:
                        correct = predictor_update(pc, taken)
                        if taken and target is not None:
                            btb_index = (pc >> 2) % btb_entries
                            btb_tags[btb_index] = pc
                            btb_targets[btb_index] = target
                        mispredicted = (
                            not correct or predicted_taken != taken or (taken and not target_known)
                        )
                        if mispredicted:
                            if counter_branch_mispredicts is None:
                                counter_branch_mispredicts = stats.counter(
                                    "frontend.branch_mispredicts"
                                )
                            counter_branch_mispredicts.value += 1
                    else:
                        if target is not None:
                            btb_index = (pc >> 2) % btb_entries
                            btb_tags[btb_index] = pc
                            btb_targets[btb_index] = target
                        mispredicted = not target_known
                        if mispredicted:
                            if counter_target_mispredicts is None:
                                counter_target_mispredicts = stats.counter(
                                    "frontend.target_mispredicts"
                                )
                            counter_target_mispredicts.value += 1
                    if mispredicted:
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
                # Commit width: not in the cycle of the instruction
                # commit_width older (a negative index wraps the ring).
                window_oldest = ring_cycles[slot - window_len]
                if commit <= window_oldest:
                    commit = window_oldest + 1
                last_commit = commit
                ring_cycles[slot] = commit
                if dst >= 0:
                    if dst >= reg_count:
                        reg_ready.extend([0] * (dst + 1 - reg_count))
                        reg_count = dst + 1
                    reg_ready[dst] = complete

                # ---------------- traps ----------------
                if trap is not None or index == timer_at:
                    trap_cause = TIMER_INTERRUPT if trap is None else trap
                    timer_at = index + timer_step
                    counter_traps.value += 1
                    if trap_cause is SYSCALL_CAUSE:
                        counter_syscalls.value += 1
                    # Callbacks may observe the counters and observe or scrub
                    # front-end state (the purge clears the fetch line): add
                    # the tallies and synchronise the locals around them.
                    self._add_tallies(index + 1 - tallied, itlb_hits, l1i_hits, dtlb_hits, l1d_hits)
                    tallied = index + 1
                    itlb_hits = l1i_hits = dtlb_hits = l1d_hits = 0
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
                    (
                        mappings_get, page_bytes, allowed_frames, check_region, owner,
                        l1d_tag_maps, l1d_dirty, l1d_owners, l1i_tag_maps, l1i_owners,
                        btb_tags, btb_targets,
                    ) = self._lane_context()
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
        finally:
            # Add the tallies, also when a callback or an accessor raised.
            self._add_tallies(index + 1 - tallied, itlb_hits, l1i_hits, dtlb_hits, l1d_hits)

        # Synchronise the front-end state the loop kept in locals.
        frontend._current_cycle = fe_cycle
        frontend._slots_used = fe_slots
        frontend._last_fetch_line = fe_line
        committed = index + 1
        total_cycles = last_commit if committed else 0
        return CoreResult(cycles=total_cycles, instructions=committed, stats=stats)
