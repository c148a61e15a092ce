"""Differential fuzzing of the fast kernel against its reference.

The fast == slow suite (``test_fastpath.py``) compares the kernels at
fixed points, and a fixed point that never reaches a fast lane's
boundary cannot see its bug.  This module generates the inputs instead,
with hypothesis, and compares the fast kernel with the reference one
that ``REPRO_SLOW_PATH=1`` selects.

Co-scheduled phases (strategy 2): a scenario machine of 2-4 cores under
BASE, MISS, ARB, MISS+ARB, PART or F+P+M+A runs one or two phases of
generated :class:`MemOp` streams, then idles.  The streams draw in-flight
caps of 1-8 (one for all cores, or one per core), issue gaps of 0-40
(0 about half the time), writes, ``l1_bypass`` probes, lines repeated
within a stream, lines that share a set of the detailed LLC, and ops
into another domain's region, which the region check suppresses under
the mitigated specs.  The executor's completion records, its final
cycle and every counter of the machine must be identical between the
kernels.  That covers the fast executor's cached issue cycles, its
gated collection and its jumps over idle cycles; what both kernels
share, such as :meth:`DetailedLlc.step`, is pinned by
``test_golden_traces.py`` instead.

Tier-1 runs a ``derandomize=True`` budget.  CI runs a variant with about
20 times the examples, not derandomized and seeded from the commit:
``pytest tests/test_differential.py --differential-seed=<hex>`` (the
option is registered in ``conftest.py``; without it the variant is
skipped).  A failing example found there is pinned here with
``@example``.
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.attacks.coschedule import CoScheduledExecutor, MemOp
from repro.attacks.placement import ATTACKER_REGIONS, VICTIM_REGIONS, default_placement
from repro.attacks.scenarios import build_scenario_machine
from repro.common.fastpath import SLOW_PATH_ENV_VAR
from repro.core.mitigations import config_for_spec

SPECS = ("BASE", "MISS", "ARB", "MISS+ARB", "PART", "F+P+M+A")

#: Examples per run: tier-1's budget, and the CI variant's.
TIER1_EXAMPLES = 150
CI_EXAMPLES = 20 * TIER1_EXAMPLES

#: Bound on one phase; a phase that needs more raises on both kernels.
MAX_CYCLES = 100_000

#: Line strides: consecutive lines, or lines 64 sets apart, which share
#: a set of the detailed LLC (64 sets of 4 ways) under the baseline index.
STRIDES = (64, 64 * 64)


@st.composite
def phase_cases(draw):
    """A scenario machine, its caps, one or two phases and an idle tail."""
    num_cores = draw(st.integers(min_value=2, max_value=4))
    caps = draw(
        st.one_of(
            st.integers(min_value=1, max_value=8),
            st.lists(
                st.integers(min_value=1, max_value=8), min_size=num_cores, max_size=num_cores
            ).map(lambda values: dict(enumerate(values))),
        )
    )
    # (domain offset: 0 is the issuing core's own region, line, stride
    # index, write, issue gap, l1_bypass)
    ops = st.tuples(
        st.sampled_from((0, 0, 0, 1, num_cores - 1)),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=len(STRIDES) - 1),
        st.booleans(),
        st.one_of(st.just(0), st.integers(min_value=0, max_value=40)),
        st.booleans(),
    )
    phase = st.dictionaries(
        st.integers(min_value=0, max_value=num_cores - 1),
        st.lists(ops, min_size=1, max_size=30),
        min_size=1,
    )
    return {
        "spec": draw(st.sampled_from(SPECS)),
        "num_cores": num_cores,
        "seed": draw(st.integers(min_value=0, max_value=1 << 16)),
        "caps": caps,
        "phases": draw(st.lists(phase, min_size=1, max_size=2)),
        "idle": draw(st.integers(min_value=0, max_value=400)),
    }


def region_bases(machine, num_cores):
    """Base address of each core's own domain region."""
    placement = default_placement(num_cores)
    num_regions = machine.config.address_map.num_regions
    regions = {
        placement.attacker_core: min(ATTACKER_REGIONS),
        placement.victim_core: min(VICTIM_REGIONS),
    }
    for core in placement.bystander_cores:
        regions[core] = min(placement.bystander_regions(core, num_regions))
    return {core: machine.address_map.region_base(region) for core, region in regions.items()}


def run_case(case):
    """``(completed, cycle, counters)`` of one case, or the error it raised."""
    machine = build_scenario_machine(
        config_for_spec(case["spec"]), seed=case["seed"], num_cores=case["num_cores"]
    )
    bases = region_bases(machine, case["num_cores"])
    executor = CoScheduledExecutor(machine, max_outstanding=case["caps"])
    try:
        for phase in case["phases"]:
            executor.run_phase(
                {
                    core: [
                        MemOp(
                            bases[(core + offset) % case["num_cores"]] + line * STRIDES[stride],
                            is_write=is_write,
                            issue_gap=gap,
                            l1_bypass=l1_bypass,
                            label=f"{core}:{index}",
                        )
                        for index, (offset, line, stride, is_write, gap, l1_bypass) in enumerate(ops)
                    ]
                    for core, ops in phase.items()
                },
                max_cycles=MAX_CYCLES,
            )
        executor.idle(case["idle"])
    except RuntimeError as error:
        return ("raised", str(error), executor.completed)
    return executor.completed, executor.cycle, machine.stats.counters()


@contextmanager
def kernel(*, slow):
    """Select the reference (``slow``) or the fast kernel for the body."""
    with pytest.MonkeyPatch.context() as patch:
        if slow:
            patch.setenv(SLOW_PATH_ENV_VAR, "1")
        else:
            patch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        yield


def check_kernels_agree(case):
    with kernel(slow=False):
        fast = run_case(case)
    with kernel(slow=True):
        slow = run_case(case)
    assert fast == slow


class TestCoScheduledPhases:
    @settings(
        max_examples=TIER1_EXAMPLES,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=phase_cases())
    def test_fast_kernel_matches_the_reference(self, case):
        check_kernels_agree(case)

    def test_wide_budget_seeded_from_the_commit(self, request):
        commit_seed = request.config.getoption("differential_seed")
        if commit_seed is None:
            pytest.skip("needs --differential-seed (the CI budget)")
        wide = settings(
            max_examples=CI_EXAMPLES,
            deadline=None,
            derandomize=False,
            database=None,
            suppress_health_check=[HealthCheck.too_slow],
        )(given(case=phase_cases())(check_kernels_agree))
        seed(int(commit_seed, 16))(wide)()

    def test_the_largest_generated_case_fits_the_cycle_bound(self):
        # The bound must stay a safety net: the largest case the strategy
        # draws (4 cores, 30 misses each, cap 1, gaps of 40) fits in it.
        case = {
            "spec": "F+P+M+A",
            "num_cores": 4,
            "seed": 0,
            "caps": 1,
            "phases": [{core: [(0, line, 1, True, 40, False) for line in range(30)] for core in range(4)}],
            "idle": 0,
        }
        with kernel(slow=False):
            completed, _cycle, _counters = run_case(case)
        assert len(completed) == 120
