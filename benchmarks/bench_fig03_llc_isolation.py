"""Figures 1-3: strong timing independence of the MI6 LLC microarchitecture.

Not a performance figure in the paper, but the property the Figure 3
redesign exists to provide: a victim's LLC completion cycles are
unchanged by an attacker's flood under the MI6 organisation, and
measurably moved under the baseline organisation.
"""

from repro.attacks.scenarios import victim_timing_difference
from repro.core.mitigations import config_for_spec


def test_bench_fig03_llc_timing_independence(benchmark):
    def experiment():
        return (
            victim_timing_difference(config_for_spec("F+P+M+A")),
            victim_timing_difference(config_for_spec("BASE")),
        )

    secure, insecure = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print()
    print("MI6 LLC   : max per-request difference=%d cycles" % secure)
    print("Baseline  : max per-request difference=%d cycles" % insecure)
    assert secure == 0
    assert insecure > 0
