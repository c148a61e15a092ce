#!/usr/bin/env python3
"""Side-channel lab: every modelled attack, on the baseline and on MI6.

Runs every registered co-scheduled scenario (prime+probe, Spectre,
MSHR/arbiter contention, branch-predictor residue) through the
:class:`repro.api.Session` front door against both the insecure BASE
machine and the full MI6 machine (F+P+M+A), and prints whether each
channel leaks.  This is the executable version of the strong-isolation
argument (Property 1 / Section 6.3): the script exits 1, naming the
scenario, if any channel is closed on BASE or open on F+P+M+A.

The second half shows the detailed LLC's timing independence directly
(how far an attacker's flood moves a victim's completion cycles; the
script also exits 1 if that reads nonzero on F+P+M+A or zero on BASE),
then re-runs the scenario matrix on a 4-core machine with a *partial*
mitigation combination — showing that the composable spec vocabulary
lets you probe exactly which defence closes which channel (here
``PART+ARB`` closes prime+probe but leaves the MSHR half of the
contention channel open).
"""

import sys

from repro.analysis.figures import SECURITY_TABLE_TITLE, aggregate_leakage_rows
from repro.analysis.report import format_security_table
from repro.api import Session
from repro.attacks.scenarios import SCENARIOS, victim_timing_difference
from repro.core.mitigations import config_for_spec

BASELINE = "BASE"
MI6 = "F+P+M+A"


def verdict(leaked: bool) -> str:
    return "LEAKS" if leaked else "closed"


def main() -> int:
    session = Session()
    leaked = {
        (outcome.scenario, outcome.variant): outcome.leaked
        for outcome in session.attack(variants=[BASELINE, MI6]).outcomes
    }
    scenarios = list(dict.fromkeys(scenario for scenario, _ in leaked))
    print(f"{'scenario':<16} {'baseline':>8} {'MI6':>8}  channel")
    print("-" * 100)
    for name in scenarios:
        print(
            f"{name:<16} {verdict(leaked[name, BASELINE]):>8} "
            f"{verdict(leaked[name, MI6]):>8}  {SCENARIOS.descriptions[name]}"
        )
    broken = [
        name for name in scenarios if not leaked[name, BASELINE] or leaked[name, MI6]
    ]
    for name in broken:
        print(
            f"side_channel_lab: scenario {name!r} must leak on {BASELINE} and not on {MI6}",
            file=sys.stderr,
        )

    print()
    shift = {
        variant: victim_timing_difference(config_for_spec(variant))
        for variant in (BASELINE, MI6)
    }
    print("Victim completion cycles under an attacker's flood:")
    print(f"  baseline LLC: max per-request difference {shift[BASELINE]} cycles")
    print(f"  MI6 LLC     : max per-request difference {shift[MI6]} cycles")
    timing_broken = shift[MI6] != 0 or shift[BASELINE] == 0
    if timing_broken:
        print(
            f"side_channel_lab: the victim's timing must move on {BASELINE} "
            f"and not on {MI6}",
            file=sys.stderr,
        )

    print()
    result = session.attack(variants=[BASELINE, "PART+ARB", MI6], num_cores=4)
    print("Co-scheduled scenario matrix on a 4-core machine (via Session):")
    print(format_security_table(SECURITY_TABLE_TITLE, aggregate_leakage_rows(result.outcomes)))
    print(
        f"({result.cold_count} scenarios simulated, {result.warm_count} warm, "
        f"{result.wall_time_seconds:.2f}s wall)"
    )
    return 1 if broken or timing_broken else 0


if __name__ == "__main__":
    sys.exit(main())
