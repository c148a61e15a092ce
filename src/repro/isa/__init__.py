"""Abstract RISC-V-flavoured instruction model.

The reproduction does not execute real RISC-V binaries; it drives the
timing model with abstract instructions that carry exactly the
information the microarchitecture needs: the kind of operation, register
dependencies, the virtual address touched by memory operations, branch
identity and outcome, and the privilege-changing events (syscalls,
interrupts, and the MI6 ``purge`` instruction).
"""

from repro.isa.instructions import Instruction, InstructionKind, TrapCause

__all__ = ["Instruction", "InstructionKind", "TrapCause"]
