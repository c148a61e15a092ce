"""Instruction kinds, privilege modes, and the abstract instruction record.

The out-of-order timing model (:mod:`repro.ooo.core`) consumes a stream of
:class:`Instruction` objects produced either by the synthetic workload
generator (:mod:`repro.workloads`) or by hand in tests.  Each instruction
carries only microarchitecturally relevant attributes: which execution
pipeline it needs, which architectural registers it reads and writes,
which virtual address it touches, and whether it traps.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple, Optional, Tuple


class InstructionKind(Enum):
    """The classes of instructions the RiscyOO timing model distinguishes."""

    ALU = auto()          # single-cycle integer operation
    MUL_DIV = auto()      # long-latency integer multiply / divide
    FP = auto()           # floating-point operation
    LOAD = auto()         # memory read
    STORE = auto()        # memory write
    BRANCH = auto()       # conditional branch
    JUMP = auto()         # unconditional jump / call
    RETURN = auto()       # function return (uses the return-address stack)
    CSR = auto()          # control/status register access (serialising)
    SYSCALL = auto()      # environment call: traps to the OS
    FENCE = auto()        # memory fence (serialising)
    PURGE = auto()        # the MI6 purge instruction (machine mode only)
    NOP = auto()


class MemoryAccessType(Enum):
    """Why a physical address is being touched.

    Section 5 of the paper is explicit that the *set of physical addresses
    accessed by a program* includes speculative instruction fetches,
    speculative loads, and speculative page-table walks; the protection
    checker therefore needs to know the access class.
    """

    INSTRUCTION_FETCH = auto()
    DATA_LOAD = auto()
    DATA_STORE = auto()
    PAGE_TABLE_WALK = auto()


class PrivilegeMode(Enum):
    """RISC-V privilege modes relevant to MI6."""

    USER = 0
    SUPERVISOR = 1
    MACHINE = 3


class TrapCause(Enum):
    """Causes of traps the OS / security monitor model distinguishes."""

    SYSCALL = auto()
    TIMER_INTERRUPT = auto()
    PAGE_FAULT = auto()
    PROTECTION_FAULT = auto()
    ILLEGAL_INSTRUCTION = auto()
    ENCLAVE_CALL = auto()          # SBI-style call into the security monitor
    ENCLAVE_INTERRUPT = auto()     # asynchronous event while an enclave runs


#: Register index used to mean "no register operand".
NO_REGISTER = -1

#: Number of architectural integer registers (RISC-V x0..x31).
ARCH_REGISTER_COUNT = 32


class Instruction(NamedTuple):
    """One abstract dynamic instruction.

    A named tuple rather than a dataclass: the synthetic generator
    constructs one of these per simulated instruction, and tuple
    construction is several times cheaper than a frozen dataclass's
    ``__init__`` while keeping the record immutable, hashable, and
    field-comparable.

    Attributes:
        kind: Operation class; selects the execution pipeline and latency.
        sequence: Dynamic sequence number within its stream (set by the
            generator; informational).
        pc: Virtual address of the instruction itself.  Used for
            instruction-cache accesses, BTB indexing and the machine-mode
            fetch-range check.
        dst: Destination architectural register, or ``NO_REGISTER``.
        srcs: Source architectural registers (dependencies).
        vaddr: Virtual address of the data access for loads and stores.
        size: Access size in bytes for loads/stores.
        branch_id: Identity of the static branch (indexes the workload's
            branch population) for BRANCH/JUMP/RETURN instructions.
        taken: Actual outcome of the branch.
        target: Branch / jump target address.
        trap: Trap raised at commit, if any (e.g. SYSCALL).
        is_wrong_path_seed: Marks an instruction after which the front end
            would fetch wrong-path instructions if the branch mispredicts.
    """

    kind: InstructionKind
    sequence: int = 0
    pc: int = 0
    dst: int = NO_REGISTER
    srcs: Tuple[int, ...] = ()
    vaddr: Optional[int] = None
    size: int = 8
    branch_id: Optional[int] = None
    taken: bool = False
    target: Optional[int] = None
    trap: Optional[TrapCause] = None

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self.kind in (InstructionKind.LOAD, InstructionKind.STORE)

    @property
    def is_control(self) -> bool:
        """True for instructions that redirect the front end."""
        return self.kind in (
            InstructionKind.BRANCH,
            InstructionKind.JUMP,
            InstructionKind.RETURN,
        )

    @property
    def is_serialising(self) -> bool:
        """True for instructions that drain the pipeline before executing."""
        return self.kind in (
            InstructionKind.CSR,
            InstructionKind.FENCE,
            InstructionKind.SYSCALL,
            InstructionKind.PURGE,
        )


def _normalise_sources(srcs: Tuple[int, ...] | list | None) -> Tuple[int, ...]:
    if not srcs:
        return ()
    return tuple(register for register in srcs if register != NO_REGISTER)


def alu(dst: int, srcs: Tuple[int, ...] = (), *, pc: int = 0, sequence: int = 0) -> Instruction:
    """Build a single-cycle integer ALU instruction."""
    return Instruction(
        kind=InstructionKind.ALU, dst=dst, srcs=_normalise_sources(srcs), pc=pc, sequence=sequence
    )


def mul_div(dst: int, srcs: Tuple[int, ...] = (), *, pc: int = 0, sequence: int = 0) -> Instruction:
    """Build a long-latency integer multiply/divide instruction."""
    return Instruction(
        kind=InstructionKind.MUL_DIV,
        dst=dst,
        srcs=_normalise_sources(srcs),
        pc=pc,
        sequence=sequence,
    )


def fp_op(dst: int, srcs: Tuple[int, ...] = (), *, pc: int = 0, sequence: int = 0) -> Instruction:
    """Build a floating-point instruction."""
    return Instruction(
        kind=InstructionKind.FP, dst=dst, srcs=_normalise_sources(srcs), pc=pc, sequence=sequence
    )


def load(
    dst: int,
    vaddr: int,
    srcs: Tuple[int, ...] = (),
    *,
    size: int = 8,
    pc: int = 0,
    sequence: int = 0,
) -> Instruction:
    """Build a load from ``vaddr``."""
    return Instruction(
        kind=InstructionKind.LOAD,
        dst=dst,
        srcs=_normalise_sources(srcs),
        vaddr=vaddr,
        size=size,
        pc=pc,
        sequence=sequence,
    )


def store(
    vaddr: int,
    srcs: Tuple[int, ...] = (),
    *,
    size: int = 8,
    pc: int = 0,
    sequence: int = 0,
) -> Instruction:
    """Build a store to ``vaddr``."""
    return Instruction(
        kind=InstructionKind.STORE,
        srcs=_normalise_sources(srcs),
        vaddr=vaddr,
        size=size,
        pc=pc,
        sequence=sequence,
    )


def branch(
    branch_id: int,
    taken: bool,
    *,
    target: Optional[int] = None,
    srcs: Tuple[int, ...] = (),
    pc: int = 0,
    sequence: int = 0,
) -> Instruction:
    """Build a conditional branch with a known outcome."""
    return Instruction(
        kind=InstructionKind.BRANCH,
        srcs=_normalise_sources(srcs),
        branch_id=branch_id,
        taken=taken,
        target=target,
        pc=pc,
        sequence=sequence,
    )


def syscall(*, pc: int = 0, sequence: int = 0) -> Instruction:
    """Build an environment call that traps to the OS at commit."""
    return Instruction(
        kind=InstructionKind.SYSCALL, trap=TrapCause.SYSCALL, pc=pc, sequence=sequence
    )


def csr(dst: int = NO_REGISTER, *, pc: int = 0, sequence: int = 0) -> Instruction:
    """Build a serialising CSR access."""
    return Instruction(kind=InstructionKind.CSR, dst=dst, pc=pc, sequence=sequence)


def purge(*, pc: int = 0, sequence: int = 0) -> Instruction:
    """Build the MI6 ``purge`` instruction (Section 6.1)."""
    return Instruction(kind=InstructionKind.PURGE, pc=pc, sequence=sequence)
