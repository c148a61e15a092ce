"""Deterministic synthetic instruction-stream generator.

Turns a :class:`~repro.workloads.profiles.WorkloadProfile` into a lazy
stream of abstract instructions with the statistical structure the core
and memory models care about:

* the instruction mix and register dependencies (with a configurable
  producer-consumer distance and load-use probability);
* a static branch population whose outcomes follow loop-like patterns for
  the predictable classes and biased coin flips for the hard class, so a
  history-based predictor behaves realistically (it predicts patterns
  well, recovers its accuracy gradually after a purge, and cannot do much
  about data-dependent branches);
* a data access stream described by a reuse-distance mix (L1-resident,
  LLC-resident, far, and never-seen lines), which gives direct control of
  the L1/LLC miss rates and of the sensitivity to the MI6 set-partitioned
  LLC index;
* periodic system calls.

The stream is fully reproducible: the same profile and seed always produce
the same instructions, so every experiment in the benchmark harness is
deterministic.
"""

from __future__ import annotations

from bisect import bisect
from collections import deque
from itertools import accumulate, islice
from typing import Iterator, List

from repro.common.fastpath import slow_path_enabled
from repro.common.rng import DeterministicRng
from repro.isa.instructions import Instruction, InstructionKind, TrapCause
from repro.workloads.profiles import WorkloadProfile

#: Base virtual address of the code segment.
CODE_BASE = 0x0040_0000
#: Base virtual address of the data segment.
DATA_BASE = 0x1000_0000
#: Bytes per cache line (fixed by the Figure 4 configuration).
LINE_BYTES = 64
#: Bytes per synthetic "function" of code.
FUNCTION_BYTES = 256
#: Dynamic branches after which the active branch window drifts.
BRANCH_PHASE_LENGTH = 6000
#: Size of the active branch window as a fraction of the static population.
ACTIVE_WINDOW_FRACTION = 0.25


class _StaticBranch:
    """Behaviour of one static branch."""

    __slots__ = ("pc", "pattern_period", "off_phase", "noise", "bias", "is_hard", "executions")

    def __init__(
        self,
        pc: int,
        pattern_period: int,
        off_phase: int,
        noise: float,
        bias: float,
        is_hard: bool,
    ) -> None:
        self.pc = pc
        self.pattern_period = pattern_period
        self.off_phase = off_phase
        self.noise = noise
        self.bias = bias
        self.is_hard = is_hard
        self.executions = 0

    def next_outcome(self, rng: DeterministicRng) -> bool:
        """Outcome of the next dynamic execution of this branch."""
        self.executions += 1
        if self.is_hard:
            return rng.chance(self.bias)
        taken = (self.executions % self.pattern_period) != self.off_phase
        if self.noise and rng.chance(self.noise):
            taken = not taken
        return taken


class SyntheticWorkload:
    """Generates the dynamic instruction stream for one benchmark profile.

    Args:
        profile: Benchmark description.
        seed: Base random seed; forked per concern so that, for example,
            branch outcomes do not change when the memory parameters do.
    """

    def __init__(self, profile: WorkloadProfile, seed: int = 2019) -> None:
        self.profile = profile
        self.seed = seed
        rng = DeterministicRng(seed).fork("workload", profile.name)
        self._mix_rng = rng.fork("mix")
        self._mem_rng = rng.fork("mem")
        self._branch_rng = rng.fork("branch")
        self._dep_rng = rng.fork("dep")
        self._branches = self._build_branch_population(rng.fork("branch-shape"))
        self._num_functions = max(1, profile.code_footprint_bytes // FUNCTION_BYTES)
        self._active_window = max(8, int(profile.static_branches * ACTIVE_WINDOW_FRACTION))
        self._footprint_lines = profile.total_footprint_bytes // LINE_BYTES
        # Distinct data lines in first-touch order; pre-populated so that
        # reuse-distance draws are meaningful from the first instruction.
        self._line_history: List[int] = list(range(min(profile.far_window_lines, self._footprint_lines)))
        self._next_new_line = len(self._line_history) % self._footprint_lines

    # ------------------------------------------------------------------
    # Construction helpers

    def _build_branch_population(self, rng: DeterministicRng) -> List[_StaticBranch]:
        profile = self.profile
        branches: List[_StaticBranch] = []
        for branch_id in range(profile.static_branches):
            pc = CODE_BASE + (branch_id * 52) % profile.code_footprint_bytes
            pc &= ~0x3
            draw = rng.fraction()
            if draw < profile.easy_branch_fraction:
                branches.append(
                    _StaticBranch(
                        pc=pc,
                        pattern_period=rng.integer(16, 48),
                        off_phase=0,
                        noise=0.0,
                        bias=0.95,
                        is_hard=False,
                    )
                )
            elif draw < profile.easy_branch_fraction + profile.biased_branch_fraction:
                branches.append(
                    _StaticBranch(
                        pc=pc,
                        pattern_period=rng.integer(4, 8),
                        off_phase=rng.integer(0, 3),
                        noise=0.05,
                        bias=0.85,
                        is_hard=False,
                    )
                )
            else:
                branches.append(
                    _StaticBranch(
                        pc=pc,
                        pattern_period=1,
                        off_phase=0,
                        noise=0.0,
                        bias=profile.hard_branch_bias,
                        is_hard=True,
                    )
                )
        return branches

    # ------------------------------------------------------------------
    # Address-space layout helpers (used by the OS model to map pages)

    def code_range(self) -> tuple:
        """Virtual address range ``[start, end)`` of the code segment."""
        return (CODE_BASE, CODE_BASE + self.profile.code_footprint_bytes)

    def data_range(self) -> tuple:
        """Virtual address range ``[start, end)`` of the data segment."""
        return (DATA_BASE, DATA_BASE + self.profile.total_footprint_bytes)

    def virtual_pages(self, page_bytes: int = 4096) -> List[int]:
        """All virtual page numbers the workload can touch."""
        pages: List[int] = []
        for start, end in (self.code_range(), self.data_range()):
            first = start // page_bytes
            last = (end + page_bytes - 1) // page_bytes
            pages.extend(range(first, last))
        return pages

    def warmup_addresses(self) -> List[int]:
        """Virtual line addresses to prime the caches with before measuring.

        The generator's reuse-distance draws assume the pre-populated line
        history is resident in the hierarchy; the evaluation harness
        touches these addresses once (and then resets the statistics) so
        that the measured miss rates reflect steady state rather than a
        cold start — mirroring how the paper's benchmarks run for a long
        time before the measured interval.  The most recently used
        ``llc_window_lines`` are touched a second time so that they are
        resident even when the reachable LLC is smaller than the full
        history (the set-partitioned configurations).
        """
        addresses = [DATA_BASE + line * LINE_BYTES for line in self._line_history]
        recent = self._line_history[-self.profile.llc_window_lines:]
        addresses.extend(DATA_BASE + line * LINE_BYTES for line in recent)
        return addresses

    def warmup_code_addresses(self) -> List[int]:
        """Virtual addresses covering the code footprint, one per line.

        The instruction footprint of a long-running benchmark is resident
        in the LLC; priming it avoids counting its one-time cold misses in
        the measured interval.
        """
        start, end = self.code_range()
        return list(range(start, end, LINE_BYTES))

    # ------------------------------------------------------------------
    # Stream generation internals

    def _data_address(self) -> int:
        profile = self.profile
        history = self._line_history
        draw = self._mem_rng.fraction()
        new_threshold = profile.new_line_fraction
        far_threshold = new_threshold + profile.reuse_far_fraction
        llc_threshold = far_threshold + profile.reuse_llc_fraction
        if draw < new_threshold:
            line = self._next_new_line
            self._next_new_line = (self._next_new_line + 1) % self._footprint_lines
            history.append(line)
            if len(history) > profile.far_window_lines * 2:
                del history[: profile.far_window_lines]
            return DATA_BASE + line * LINE_BYTES
        if draw < far_threshold:
            window = min(len(history), profile.far_window_lines)
            low = min(len(history), profile.llc_window_lines)
            distance = self._mem_rng.integer(low, max(low, window))
        elif draw < llc_threshold:
            window = min(len(history), profile.llc_window_lines)
            low = min(len(history), profile.l1_window_lines)
            distance = self._mem_rng.integer(low, max(low, window))
        else:
            window = min(len(history), profile.l1_window_lines)
            distance = self._mem_rng.integer(1, max(1, window))
        line = history[-distance]
        return DATA_BASE + line * LINE_BYTES

    def _pick_branch(self, dynamic_branch_count: int) -> int:
        profile = self.profile
        phase = dynamic_branch_count // BRANCH_PHASE_LENGTH
        window_start = (phase * 37) % profile.static_branches
        offset = self._branch_rng.integer(0, self._active_window - 1)
        return (window_start + offset) % profile.static_branches

    #: Probability that an instruction depends on a recent (cheap) ALU result.
    GENERIC_DEPENDENCY_PROBABILITY = 0.7
    #: Probability that an ALU instruction consumes the most recent load value.
    LOAD_USE_PROBABILITY = 0.3

    def _sources(self, recent_alu: deque, last_load_dst: int, *, is_load: bool, is_alu: bool) -> tuple:
        """Register sources for the next instruction.

        Two dependency channels are modelled separately because they have
        very different timing consequences: a dependence on a recent ALU
        result is almost always satisfied by the time the consumer issues,
        while a dependence on a load (pointer chasing for loads,
        load-to-use for ALU operations) serialises cache misses and is
        what the ``load_use_fraction`` / NONSPEC behaviour hinges on.
        """
        sources: List[int] = []
        if recent_alu and self._dep_rng.chance(self.GENERIC_DEPENDENCY_PROBABILITY):
            distance = min(
                len(recent_alu),
                self._dep_rng.geometric(self.profile.dependency_mean_distance),
            )
            sources.append(recent_alu[-distance])
        if last_load_dst >= 0:
            if is_load and self._dep_rng.chance(self.profile.load_use_fraction):
                sources.append(last_load_dst)
            elif is_alu and self._dep_rng.chance(self.LOAD_USE_PROBABILITY):
                sources.append(last_load_dst)
        return tuple(sources)

    # ------------------------------------------------------------------
    # Public stream

    def instructions(self, count: int) -> Iterator[Instruction]:
        """Yield ``count`` dynamic instructions.

        Dispatches between two draw-for-draw identical implementations:
        the reference stream below (kept verbatim as the oracle under
        ``REPRO_SLOW_PATH=1``) and an inlined fast path that hoists every
        RNG helper into locals.  Both consume the forked RNG streams in
        exactly the same order, so the generated stream is bit-identical.
        """
        if slow_path_enabled():
            return self._instructions_reference(count)
        return self._instructions_fast(count)

    def _instructions_reference(self, count: int) -> Iterator[Instruction]:
        """Reference stream: one helper call per draw (the oracle path)."""
        profile = self.profile
        mix_items = list(profile.instruction_mix.items())
        kinds = [name for name, _ in mix_items]
        weights = [weight for _, weight in mix_items]
        # Draw-for-draw equivalent of weighted_choice with the cumulative
        # weights precomputed once for the whole stream.
        pick_class = self._mix_rng.weighted_picker(kinds, weights)
        recent_alu: deque = deque(maxlen=64)
        last_load_dst = -1
        pc = CODE_BASE
        next_register = 1
        dynamic_branches = 0
        since_syscall = 0

        for sequence in range(count):
            if profile.syscall_interval and since_syscall >= profile.syscall_interval:
                since_syscall = 0
                yield Instruction(
                    kind=InstructionKind.SYSCALL,
                    sequence=sequence,
                    pc=pc,
                    trap=TrapCause.SYSCALL,
                )
                continue
            since_syscall += 1

            class_name = pick_class()
            dst = next_register
            next_register = next_register + 1 if next_register < 31 else 1
            sources = self._sources(
                recent_alu,
                last_load_dst,
                is_load=class_name == "load",
                is_alu=class_name in ("alu", "mul_div", "fp"),
            )

            if class_name == "branch":
                branch_id = self._pick_branch(dynamic_branches)
                dynamic_branches += 1
                static_branch = self._branches[branch_id]
                taken = static_branch.next_outcome(self._branch_rng)
                # Control transfers concentrate on a hot set of functions
                # (loops and frequently called helpers); only occasionally
                # does execution stray into the colder parts of the text.
                hot_functions = max(1, min(64, self._num_functions))
                if self._branch_rng.chance(0.92):
                    target_function = self._branch_rng.integer(0, hot_functions - 1)
                else:
                    target_function = self._branch_rng.integer(0, self._num_functions - 1)
                target = CODE_BASE + target_function * FUNCTION_BYTES
                yield Instruction(
                    kind=InstructionKind.BRANCH,
                    sequence=sequence,
                    pc=static_branch.pc,
                    srcs=sources,
                    branch_id=branch_id,
                    taken=taken,
                    target=target,
                )
                pc = target if taken else static_branch.pc + 4
                continue

            if class_name == "load":
                yield Instruction(
                    kind=InstructionKind.LOAD,
                    sequence=sequence,
                    pc=pc,
                    dst=dst,
                    srcs=sources,
                    vaddr=self._data_address(),
                )
                last_load_dst = dst
            elif class_name == "store":
                yield Instruction(
                    kind=InstructionKind.STORE,
                    sequence=sequence,
                    pc=pc,
                    srcs=sources,
                    vaddr=self._data_address(),
                )
            elif class_name == "mul_div":
                yield Instruction(
                    kind=InstructionKind.MUL_DIV, sequence=sequence, pc=pc, dst=dst, srcs=sources
                )
                recent_alu.append(dst)
            elif class_name == "fp":
                yield Instruction(
                    kind=InstructionKind.FP, sequence=sequence, pc=pc, dst=dst, srcs=sources
                )
                recent_alu.append(dst)
            else:
                yield Instruction(
                    kind=InstructionKind.ALU, sequence=sequence, pc=pc, dst=dst, srcs=sources
                )
                recent_alu.append(dst)

            pc += 4
            if pc >= CODE_BASE + profile.code_footprint_bytes:
                pc = CODE_BASE

    def _instructions_fast(self, count: int) -> Iterator[Instruction]:
        """Inlined stream generator (the fast kernel's path).

        Identical draw sequence to :meth:`_instructions_reference`: every
        ``chance``/``integer``/``geometric``/``weighted_picker`` helper is
        expanded in place against bound ``random()``/``_randbelow()``
        handles of the same forked :class:`random.Random` instances, which
        is draw-for-draw equivalent (``randint(low, high)`` is
        ``low + _randbelow(high - low + 1)``, and ``chance(p)`` draws only
        for ``0 < p < 1``).
        """
        profile = self.profile
        mix_items = list(profile.instruction_mix.items())
        kinds = [name for name, _ in mix_items]
        weights = [weight for _, weight in mix_items]
        # Inline of DeterministicRng.weighted_picker, including its
        # validation, against a bound random() handle.
        cum_weights = list(accumulate(weights))
        if len(cum_weights) != len(kinds):
            raise ValueError("weights must match items")
        total = cum_weights[-1] + 0.0
        if total <= 0.0:
            raise ValueError("total of weights must be greater than zero")
        hi = len(kinds) - 1
        # repro: allow[determinism]: sanctioned RNG-internals tap — the fast stream binds
        # the forked generators' own methods; draw-for-draw identical to the reference
        # stream's helper calls (tests/test_fastpath.py enforces bit-identical output).
        mix_random = self._mix_rng._random.random

        mem_rand = self._mem_rng._random  # repro: allow[determinism]: same sanctioned tap.
        mem_random = mem_rand.random
        mem_randbelow = getattr(mem_rand, "_randbelow", None)
        # CPython's _randbelow(n) draws getrandbits(n.bit_length()) until
        # the value is below n; inlining that loop against a bound
        # getrandbits keeps the draw sequence bit-identical while skipping
        # a Python call per draw.  Non-CPython implementations fall back
        # to randrange (draw-identical to their randint).
        # repro: allow[determinism]: same sanctioned tap.
        mem_getrandbits = mem_rand.getrandbits if mem_randbelow is not None else None
        if mem_randbelow is None:  # pragma: no cover - non-CPython fallback
            mem_randbelow = mem_rand.randrange
        branch_rand = self._branch_rng._random  # repro: allow[determinism]: same sanctioned tap.
        branch_random = branch_rand.random
        branch_randbelow = getattr(branch_rand, "_randbelow", None)
        branch_getrandbits = (
            # repro: allow[determinism]: same sanctioned tap.
            branch_rand.getrandbits if branch_randbelow is not None else None
        )
        if branch_randbelow is None:  # pragma: no cover - non-CPython fallback
            branch_randbelow = branch_rand.randrange
        dep_random = self._dep_rng._random.random  # repro: allow[determinism]: same sanctioned tap.

        # Hot constants.
        generic_dep = self.GENERIC_DEPENDENCY_PROBABILITY
        load_use_p = self.LOAD_USE_PROBABILITY
        dep_mean = profile.dependency_mean_distance
        dep_geo_p = 1.0 / dep_mean if dep_mean > 1.0 else 1.0
        dep_geo_cap = dep_mean * 20
        lu_fraction = profile.load_use_fraction
        lu_draws = 0.0 < lu_fraction < 1.0
        lu_always = lu_fraction >= 1.0
        new_threshold = profile.new_line_fraction
        far_threshold = new_threshold + profile.reuse_far_fraction
        llc_threshold = far_threshold + profile.reuse_llc_fraction
        far_window = profile.far_window_lines
        far_window_2 = far_window * 2
        llc_window = profile.llc_window_lines
        l1_window = profile.l1_window_lines
        footprint_lines = self._footprint_lines
        history = self._line_history
        history_append = history.append
        branches = self._branches
        static_branches = profile.static_branches
        active_window = self._active_window
        num_functions = self._num_functions
        hot_functions = max(1, min(64, num_functions))
        active_window_bits = active_window.bit_length()
        hot_function_bits = hot_functions.bit_length()
        num_function_bits = num_functions.bit_length()
        syscall_interval = profile.syscall_interval
        code_end = CODE_BASE + profile.code_footprint_bytes
        instruction = Instruction
        kind_alu = InstructionKind.ALU
        kind_mul_div = InstructionKind.MUL_DIV
        kind_fp = InstructionKind.FP
        kind_load = InstructionKind.LOAD
        kind_store = InstructionKind.STORE
        kind_branch = InstructionKind.BRANCH
        kind_syscall = InstructionKind.SYSCALL
        trap_syscall = TrapCause.SYSCALL

        recent_alu: deque = deque(maxlen=64)
        recent_append = recent_alu.append
        last_load_dst = -1
        pc = CODE_BASE
        next_register = 1
        dynamic_branches = 0
        since_syscall = 0

        for sequence in range(count):
            if syscall_interval and since_syscall >= syscall_interval:
                since_syscall = 0
                yield instruction(
                    kind_syscall, sequence, pc, -1, (), None, 8, None, False, None, trap_syscall
                )
                continue
            since_syscall += 1

            class_name = kinds[bisect(cum_weights, mix_random() * total, 0, hi)]
            dst = next_register
            next_register = next_register + 1 if next_register < 31 else 1

            # Inline of _sources (chance + geometric expanded in place).
            src_dep = -1
            src_load = -1
            if recent_alu and dep_random() < generic_dep:
                if dep_mean <= 1.0:
                    distance = 1
                else:
                    distance = 1
                    while not dep_random() < dep_geo_p:
                        distance += 1
                        if distance > dep_geo_cap:
                            break
                available = len(recent_alu)
                if distance > available:
                    distance = available
                src_dep = recent_alu[-distance]
            if last_load_dst >= 0:
                if class_name == "load":
                    if lu_always or (lu_draws and dep_random() < lu_fraction):
                        src_load = last_load_dst
                elif class_name in ("alu", "mul_div", "fp") and dep_random() < load_use_p:
                    src_load = last_load_dst
            if src_dep >= 0:
                sources = (src_dep, src_load) if src_load >= 0 else (src_dep,)
            else:
                sources = (src_load,) if src_load >= 0 else ()

            if class_name == "branch":
                # Inline of _pick_branch and the target draws.
                phase = dynamic_branches // BRANCH_PHASE_LENGTH
                window_start = (phase * 37) % static_branches
                if branch_getrandbits is not None:
                    pick = branch_getrandbits(active_window_bits)
                    while pick >= active_window:
                        pick = branch_getrandbits(active_window_bits)
                else:  # pragma: no cover - non-CPython fallback
                    pick = branch_randbelow(active_window)
                branch_id = (window_start + pick) % static_branches
                dynamic_branches += 1
                static_branch = branches[branch_id]
                # Inline of _StaticBranch.next_outcome.
                static_branch.executions += 1
                if static_branch.is_hard:
                    bias = static_branch.bias
                    if bias <= 0.0:
                        taken = False
                    elif bias >= 1.0:
                        taken = True
                    else:
                        taken = branch_random() < bias
                else:
                    taken = (
                        static_branch.executions % static_branch.pattern_period
                    ) != static_branch.off_phase
                    noise = static_branch.noise
                    if noise > 0.0 and (noise >= 1.0 or branch_random() < noise):
                        taken = not taken
                if branch_random() < 0.92:
                    if branch_getrandbits is not None:
                        target_function = branch_getrandbits(hot_function_bits)
                        while target_function >= hot_functions:
                            target_function = branch_getrandbits(hot_function_bits)
                    else:  # pragma: no cover - non-CPython fallback
                        target_function = branch_randbelow(hot_functions)
                elif branch_getrandbits is not None:
                    target_function = branch_getrandbits(num_function_bits)
                    while target_function >= num_functions:
                        target_function = branch_getrandbits(num_function_bits)
                else:  # pragma: no cover - non-CPython fallback
                    target_function = branch_randbelow(num_functions)
                target = CODE_BASE + target_function * FUNCTION_BYTES
                branch_pc = static_branch.pc
                yield instruction(
                    kind_branch, sequence, branch_pc, -1, sources, None, 8,
                    branch_id, taken, target, None,
                )
                pc = target if taken else branch_pc + 4
                continue

            if class_name == "load" or class_name == "store":
                # Inline of _data_address.
                draw = mem_random()
                if draw < new_threshold:
                    line = self._next_new_line
                    self._next_new_line = (line + 1) % footprint_lines
                    history_append(line)
                    if len(history) > far_window_2:
                        del history[:far_window]
                else:
                    history_len = len(history)
                    if draw < far_threshold:
                        window = history_len if history_len < far_window else far_window
                        low = history_len if history_len < llc_window else llc_window
                    elif draw < llc_threshold:
                        window = history_len if history_len < llc_window else llc_window
                        low = history_len if history_len < l1_window else l1_window
                    else:
                        window = history_len if history_len < l1_window else l1_window
                        low = 1
                    if window < low:
                        window = low
                    span = window - low + 1
                    if mem_getrandbits is not None:
                        span_bits = span.bit_length()
                        offset = mem_getrandbits(span_bits)
                        while offset >= span:
                            offset = mem_getrandbits(span_bits)
                    else:  # pragma: no cover - non-CPython fallback
                        offset = mem_randbelow(span)
                    distance = low + offset
                    line = history[-distance]
                vaddr = DATA_BASE + line * LINE_BYTES
                if class_name == "load":
                    yield instruction(kind_load, sequence, pc, dst, sources, vaddr)
                    last_load_dst = dst
                else:
                    yield instruction(kind_store, sequence, pc, -1, sources, vaddr)
            elif class_name == "mul_div":
                yield instruction(kind_mul_div, sequence, pc, dst, sources)
                recent_append(dst)
            elif class_name == "fp":
                yield instruction(kind_fp, sequence, pc, dst, sources)
                recent_append(dst)
            else:
                yield instruction(kind_alu, sequence, pc, dst, sources)
                recent_append(dst)

            pc += 4
            if pc >= code_end:
                pc = CODE_BASE


class PreparedWorkload:
    """One workload built once, then shared read-only by many runs.

    What a run takes from its (profile, seed) — the virtual pages its
    domain maps, the warm-up address lists and the instruction stream —
    never depends on the machine, so the engine builds it once for every
    run of one benchmark at one seed.  It offers the surface of
    :class:`SyntheticWorkload` the processor uses; ``instructions(n)``
    yields the first ``n`` instructions of the materialized stream,
    which is exactly what a fresh generator yields for ``n`` (the draws
    never depend on the count).

    Args:
        workload: A generator that has not produced instructions yet.
        instructions: Length of the stream to materialize (the longest
            run that will consume it).
    """

    def __init__(self, workload: SyntheticWorkload, instructions: int) -> None:
        self.profile = workload.profile
        self._source = workload
        self._pages = workload.virtual_pages()
        # Warm-up reads the pre-populated line history, which generating
        # the stream advances: take the address lists first.
        self._warmup = workload.warmup_addresses()
        self._warmup_code = workload.warmup_code_addresses()
        self._stream = list(workload.instructions(instructions))

    def virtual_pages(self, page_bytes: int = 4096) -> List[int]:
        """All virtual page numbers the workload can touch."""
        if page_bytes == 4096:
            return self._pages
        return self._source.virtual_pages(page_bytes)

    def warmup_addresses(self) -> List[int]:
        """Data-side warm-up addresses (see :meth:`SyntheticWorkload.warmup_addresses`)."""
        return self._warmup

    def warmup_code_addresses(self) -> List[int]:
        """Code-side warm-up addresses, one per line of the code footprint."""
        return self._warmup_code

    def instructions(self, count: int) -> Iterator[Instruction]:
        """The first ``count`` instructions of the materialized stream."""
        if not 0 <= count <= len(self._stream):
            raise ValueError(
                f"the prepared stream holds {len(self._stream)} instructions; "
                f"{count} were asked for"
            )
        return islice(self._stream, count)
