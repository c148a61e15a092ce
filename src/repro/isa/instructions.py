"""Instruction kinds, trap causes, and the abstract instruction record.

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
            instruction-cache accesses and BTB indexing.
        dst: Destination architectural register, or ``NO_REGISTER``.
        srcs: Source architectural registers (dependencies).
        vaddr: Virtual address of the data access for loads and stores.
        size: Access size in bytes for loads/stores.
        branch_id: Identity of the static branch (indexes the workload's
            branch population) for BRANCH/JUMP/RETURN instructions.
        taken: Actual outcome of the branch.
        target: Branch / jump target address.
        trap: Trap raised at commit, if any (e.g. SYSCALL).
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
