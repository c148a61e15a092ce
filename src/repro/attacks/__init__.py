"""Co-scheduled attack scenarios used to validate MI6's isolation.

Each attack of the paper's threat model is one scenario of
:data:`~repro.attacks.scenarios.SCENARIOS`: attacker and victim domains
run on cores of one shared :class:`~repro.os_model.machine.Machine`, and
the :class:`CoScheduledExecutor` times every LLC-bound access through
the cycle-level :class:`~repro.mem.llc_detail.DetailedLlc`.  The engine
sweeps scenarios across the mitigation lattice like benchmark runs; the
security tests assert that every channel is open on BASE and closed on
F+P+M+A, and pin which mitigations close each one — the executable
version of the paper's Property 1 argument.
"""

from repro.attacks.coschedule import CoScheduledExecutor, CompletedAccess, MemOp
from repro.attacks.scenarios import SCENARIOS, ScenarioOutcome, run_scenario, scenario_names

__all__ = [
    "SCENARIOS",
    "CoScheduledExecutor",
    "CompletedAccess",
    "MemOp",
    "ScenarioOutcome",
    "run_scenario",
    "scenario_names",
]
