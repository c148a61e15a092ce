"""Interpreted-opcode counts of the fast kernel's two hot loops.

Counts the bytecode instructions the interpreter executes
(``sys.settrace`` with ``f_trace_opcodes``) inside
``OutOfOrderCore._run_fast`` and ``MemoryHierarchy._prime_lane``,
callees included, over a fixed slice at seed 2019: hmmer and mcf, each
under BASE and F+P+M+A at 2,000 instructions.  Every cell warms up its
own machine, so both warm classes (the baseline and the set-partitioned
LLC index) are primed.  The result is opcodes per committed instruction
of the core loop and per primed address of the warm-up lane.

The counts repeat exactly for one interpreter and one tree, but they
differ between Python versions, so compare two trees only under one
interpreter.  This is a cost meter, not a gate.  Run from the
repository root, against any tree's ``src``:

    PYTHONPATH=src python benchmarks/kernel_opcodes.py

The last line of the output is a JSON document of the totals.
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Callable, Dict

from repro.analysis.engine import EvaluationSettings, request_for
from repro.common.fastpath import slow_path_enabled
from repro.core.processor import MI6Processor
from repro.mem.hierarchy import MemoryHierarchy
from repro.ooo.core import OutOfOrderCore
from repro.workloads.generator import PreparedWorkload, SyntheticWorkload
from repro.workloads.spec_cint2006 import profile_for

BENCHMARKS = ("hmmer", "mcf")
SPECS = ("BASE", "F+P+M+A")
SETTINGS = EvaluationSettings(instructions=2_000, seed=2019)

#: The code object each count is rooted at.
ROOTS = {
    OutOfOrderCore._run_fast.__code__: "core",
    MemoryHierarchy._prime_lane.__code__: "warmup",
}


def count_opcodes(action: Callable[[], object]) -> Dict[str, int]:
    """Opcodes executed under each root of :data:`ROOTS` while ``action`` runs.

    A frame belongs to a root if its code is the root's or its caller
    belongs to it; frames of no root are not traced.
    """
    counts = dict.fromkeys(ROOTS.values(), 0)
    owners: Dict[int, str] = {}

    def trace_call(frame, event, arg):
        owner = ROOTS.get(frame.f_code) or owners.get(id(frame.f_back))
        if owner is None:
            return None
        owners[id(frame)] = owner
        frame.f_trace_opcodes = True

        def trace_frame(frame, event, arg):
            if event == "opcode":
                counts[owner] += 1
            elif event == "return":
                owners.pop(id(frame), None)
            return trace_frame

        return trace_frame

    sys.settrace(trace_call)
    try:
        action()
    finally:
        sys.settrace(None)
    return counts


def measure_cell(spec: str, benchmark: str) -> Dict[str, int]:
    """Opcodes of one cell's warm-up and run, with what each one processed."""
    request = request_for(spec, benchmark, SETTINGS)
    workload = PreparedWorkload(
        SyntheticWorkload(profile_for(benchmark), seed=request.seed), request.instructions
    )
    processor = MI6Processor(request.config, seed=request.seed)
    processor.install_domain(processor.build_workload_domain(workload))
    warm = count_opcodes(lambda: processor.warm_up(workload))
    runs = []
    run = count_opcodes(lambda: runs.append(processor.run_loaded(workload, request.instructions)))
    return {
        "core_opcodes": run["core"],
        "instructions": runs[0].instructions,
        "warmup_opcodes": warm["warmup"],
        "addresses": len(workload.warmup_addresses()) + len(workload.warmup_code_addresses()),
    }


def main() -> int:
    if slow_path_enabled():
        print("unset REPRO_SLOW_PATH: the reference kernel runs neither loop", file=sys.stderr)
        return 2
    totals = dict.fromkeys(("core_opcodes", "instructions", "warmup_opcodes", "addresses"), 0)
    for benchmark in BENCHMARKS:
        for spec in SPECS:
            cell = measure_cell(spec, benchmark)
            for name, value in cell.items():
                totals[name] += value
            print(
                f"{benchmark:>8} {spec:<8} "
                f"core {cell['core_opcodes'] / cell['instructions']:7.1f} opcodes/instruction  "
                f"warm-up {cell['warmup_opcodes'] / cell['addresses']:7.1f} opcodes/address"
            )
    result = {
        "python": platform.python_version(),
        **totals,
        "core_per_instruction": round(totals["core_opcodes"] / totals["instructions"], 2),
        "warmup_per_address": round(totals["warmup_opcodes"] / totals["addresses"], 2),
    }
    print(
        f"   total          core {result['core_per_instruction']:7.1f} opcodes/instruction  "
        f"warm-up {result['warmup_per_address']:7.1f} opcodes/address"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
