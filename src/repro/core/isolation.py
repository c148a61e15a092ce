"""Strong timing independence, checked on the detailed LLC (Section 5).

:func:`timing_independence_report` runs a victim core's LLC requests
with and without attacker traffic and compares their latencies: under
the MI6 LLC organisation they are unchanged by anything the attacker
does.  ``examples/side_channel_lab.py`` prints it.  ROADMAP item 4 moves
this check onto the relational runner and then deletes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.mem.llc_detail import DetailedLlcConfig, LlcTrafficSimulator, request_latencies


@dataclass(frozen=True)
class TimingIndependenceReport:
    """Result of a timing-independence experiment.

    Attributes:
        independent: True if the victim's latencies were identical with
            and without attacker traffic.
        victim_latencies_alone: Per-request latencies with an idle attacker.
        victim_latencies_contended: Per-request latencies under attack.
        max_difference: Largest per-request latency difference in cycles.
    """

    independent: bool
    victim_latencies_alone: List[int]
    victim_latencies_contended: List[int]
    max_difference: int


def timing_independence_report(
    *,
    secure: bool,
    victim_trace: List[Tuple[int, int, bool]] | None = None,
    attacker_trace: List[Tuple[int, int, bool]] | None = None,
    config: DetailedLlcConfig | None = None,
) -> TimingIndependenceReport:
    """Run the victim trace with and without attacker traffic and compare.

    The victim runs on core 0 and the attacker on core 1 of the detailed
    LLC model.  ``secure=True`` uses the Figure 3 (MI6) organisation,
    ``secure=False`` the Figure 2 baseline.
    """
    if victim_trace is None:
        victim_trace = [(i * 25, 0x100 + i, False) for i in range(32)]
    if attacker_trace is None:
        # The attacker's lines live in a DRAM region whose colour differs
        # from the victim's, as the security monitor guarantees when it
        # hands out regions to distinct protection domains.
        attacker_trace = [(i * 2, 0x4000 + i * 3, True) for i in range(400)]
    if config is None:
        config = DetailedLlcConfig(secure=secure)
    else:
        config = DetailedLlcConfig(**{**config.__dict__, "secure": secure})

    alone = LlcTrafficSimulator(config).run({0: victim_trace, 1: []})
    contended = LlcTrafficSimulator(config).run({0: victim_trace, 1: attacker_trace})
    latencies_alone = request_latencies(alone, 0)
    latencies_contended = request_latencies(contended, 0)
    differences = [
        abs(a - b) for a, b in zip(latencies_alone, latencies_contended)
    ]
    max_difference = max(differences) if differences else 0
    independent = (
        len(latencies_alone) == len(latencies_contended) and max_difference == 0
    )
    return TimingIndependenceReport(
        independent=independent,
        victim_latencies_alone=latencies_alone,
        victim_latencies_contended=latencies_contended,
        max_difference=max_difference,
    )
