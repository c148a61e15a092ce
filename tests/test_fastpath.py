"""Fast-path == slow-path equivalence suite.

The simulator ships two kernels: the optimized fast path (default) and
the original reference implementation behind ``REPRO_SLOW_PATH=1`` (see
:mod:`repro.common.fastpath`).  These tests are the contract that the
optimization work never changes results: for every paper variant and for
composed mitigation specs, the two paths must produce bit-identical
stats (cycles, instructions, every counter and histogram) and identical
content-hash cache keys.
"""

import random
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.analysis.engine import (
    EvaluationSettings,
    FleetShardRequest,
    ServiceRunRequest,
    evaluation_config,
    execute_fleet_shard_request,
    execute_request,
    execute_service_request,
    request_for,
)
from repro.attacks.coschedule import CoScheduledExecutor, MemOp
from repro.attacks.placement import ATTACKER_REGIONS, VICTIM_REGIONS, default_placement
from repro.attacks.scenarios import build_scenario_machine, run_scenario, scenario_names
from repro.common.fastpath import SLOW_PATH_ENV_VAR, slow_path_enabled
from repro.core.mitigations import config_for_spec
from repro.core.processor import MI6Processor
from repro.core.serialization import config_digest, run_to_dict
from repro.core.variants import Variant, all_variants, config_for_variant, parse_variant
from repro.workloads.generator import PreparedWorkload, SyntheticWorkload
from repro.workloads.spec_cint2006 import profile_for

SETTINGS = EvaluationSettings(instructions=2_000, seed=2019)

#: Every paper variant plus two composed mitigation specs (ISSUE 4).
EQUIVALENCE_SPECS = [variant.name for variant in all_variants()] + [
    "FLUSH+MISS",
    "PART+ARB",
]

#: The five composable mitigations; bit i of a lattice point selects
#: ``_LATTICE_MITIGATIONS[i]``, so masks 0..31 span the full 2^5 lattice.
_LATTICE_MITIGATIONS = ("FLUSH", "PART", "MISS", "ARB", "NONSPEC")

#: Seed of the lattice sample below.  Fixed so every run (and the CI
#: slow-path spot-check leg) exercises the same points; bump it to
#: rotate the sample.
LATTICE_SAMPLE_SEED = 2019

#: How many of the 32 lattice points the equivalence sweep runs.
LATTICE_SAMPLE_SIZE = 10


def _lattice_spec(mask: int) -> str:
    members = [
        name for bit, name in enumerate(_LATTICE_MITIGATIONS) if mask & (1 << bit)
    ]
    return "+".join(members) if members else "BASE"


#: Deterministic sample of the full mitigation lattice (ISSUE: second
#: fast-path wave widened equivalence coverage beyond the paper points).
LATTICE_SPECS = sorted(
    _lattice_spec(mask)
    for mask in random.Random(LATTICE_SAMPLE_SEED).sample(range(32), LATTICE_SAMPLE_SIZE)
)


@contextmanager
def _kernel(monkeypatch, *, slow):
    """Select the reference (``slow``) or the fast kernel for the body."""
    if slow:
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
    else:
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
    try:
        yield
    finally:
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)


def _execute(request, monkeypatch, *, slow):
    with _kernel(monkeypatch, slow=slow):
        return request.cache_key(), run_to_dict(execute_request(request))


class TestSlowPathSwitch:
    def test_defaults_to_fast_path(self, monkeypatch):
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        assert not slow_path_enabled()

    def test_zero_and_empty_mean_fast(self, monkeypatch):
        for value in ("", "0"):
            monkeypatch.setenv(SLOW_PATH_ENV_VAR, value)
            assert not slow_path_enabled()

    def test_one_means_slow(self, monkeypatch):
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        assert slow_path_enabled()


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("spec", EQUIVALENCE_SPECS)
    def test_fast_equals_slow(self, spec, monkeypatch):
        request = request_for(parse_variant(spec), "hmmer", SETTINGS)
        fast_key, fast_run = _execute(request, monkeypatch, slow=False)
        slow_key, slow_run = _execute(request, monkeypatch, slow=True)
        # Cache keys hash configuration + workload parameters; the path
        # switch must not perturb them.
        assert fast_key == slow_key
        # Stats are compared field-for-field through the serialised form:
        # cycles, instructions, every counter, every histogram bucket.
        assert fast_run == slow_run

    def test_config_digest_ignores_path_switch(self, monkeypatch):
        config = config_for_variant(Variant.F_P_M_A)
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast_digest = config_digest(config)
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        assert config_digest(config) == fast_digest

    def test_multiple_benchmarks_one_variant(self, monkeypatch):
        for benchmark in ("libquantum", "mcf"):
            request = request_for(Variant.BASE, benchmark, SETTINGS)
            fast_key, fast_run = _execute(request, monkeypatch, slow=False)
            slow_key, slow_run = _execute(request, monkeypatch, slow=True)
            assert fast_key == slow_key
            assert fast_run == slow_run


class TestLatticeEquivalence:
    """Fast == slow over a seeded sample of the full 2^5 lattice.

    The paper points above pin the variants the figures use; this sweep
    guards the *composition space* — any subset of the five mitigations
    must survive the fast path bit-identically, not just the published
    combinations.
    """

    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_lattice_point_fast_equals_slow(self, spec, monkeypatch):
        request = request_for(parse_variant(spec), "hmmer", SETTINGS)
        fast_key, fast_run = _execute(request, monkeypatch, slow=False)
        slow_key, slow_run = _execute(request, monkeypatch, slow=True)
        assert fast_key == slow_key
        assert fast_run == slow_run

    def test_sample_is_stable(self):
        # The sample doubles as the CI slow-path spot-check's workload;
        # collection must be deterministic across processes and runs.
        assert len(LATTICE_SPECS) == LATTICE_SAMPLE_SIZE
        assert LATTICE_SPECS == sorted(
            _lattice_spec(mask)
            for mask in random.Random(LATTICE_SAMPLE_SEED).sample(
                range(32), LATTICE_SAMPLE_SIZE
            )
        )


#: Timer-trap interval of the mid-run purge cases: 4 traps in a
#: 2,000-instruction run, so 8 purges on a FLUSH variant.  Evaluation
#: runs that short see none (their interval floors at 5,000).
MID_RUN_TRAP_INTERVAL = 500


def _with_config(request, **changes):
    return replace(request, config=replace(request.config, **changes))


class TestMidRunPurgeEquivalence:
    """Fast == slow when purges and context switches happen inside a run.

    The fast loop holds the page table, region check, owner, L1 tag
    slabs and BTB lists in locals.  A purge replaces the slabs and the
    BTB lists, and a trap hook may install a new context, so the loop
    must read them again after every trap; these runs differ if it
    keeps the old ones.
    """

    @pytest.mark.parametrize("profile", ["hmmer", "mcf", "libquantum"])
    @pytest.mark.parametrize("spec", ["FLUSH", "F+P+M+A"])
    def test_purging_run_fast_equals_slow(self, spec, profile, monkeypatch):
        request = _with_config(
            request_for(parse_variant(spec), profile, SETTINGS),
            trap_interval_instructions=MID_RUN_TRAP_INTERVAL,
        )
        fast_key, fast_run = _execute(request, monkeypatch, slow=False)
        slow_key, slow_run = _execute(request, monkeypatch, slow=True)
        assert fast_run["result"]["counters"]["purge.executions"] == 8
        assert fast_key == slow_key
        assert fast_run == slow_run

    @staticmethod
    def context_switching_run(spec, monkeypatch, *, slow):
        """A run whose trap hook changes the domain's context at every trap.

        Each of the 3 traps installs a new owner.  The first also purges
        (as the monitor does on an enclave exit, even without FLUSH) and
        revokes the region holding the workload's pages and its page
        table.  The second grants it back and installs a page table
        mapping every page 4,096 pages higher.  The third revokes the
        region again but installs no region check, so lines filled under
        the second owner hit under the third.  The run ends 300
        instructions after the last trap.  Returns the run document, the
        L1 contents, the LLC's lines per owner and the BTB, which carry
        the owner labels, dirty bits and targets that no counter shows.
        """
        with _kernel(monkeypatch, slow=slow):
            config = replace(
                config_for_spec(spec), trap_interval_instructions=MID_RUN_TRAP_INTERVAL
            )
            processor = MI6Processor(config, seed=2019)
            workload = PreparedWorkload(SyntheticWorkload(profile_for("gcc"), seed=2019), 1_800)
            processor.load_workload(workload)
            hierarchy = processor.hierarchy
            bitvector = processor.region_bitvector
            region = min(bitvector.allowed_regions())
            traps = []

            def switch_context(cause):
                traps.append(cause)
                page_table, region_allowed = hierarchy.page_table, hierarchy.region_allowed
                if len(traps) == 2:
                    bitvector.grant(region)
                    page_table = replace(
                        page_table,
                        mappings={page: frame + 4096 for page, frame in page_table.mappings.items()},
                    )
                else:
                    bitvector.revoke(region)
                    if len(traps) == 1:
                        processor.purge_unit.execute()
                    else:
                        region_allowed = None
                hierarchy.install_context(page_table, region_allowed, 100 + len(traps))

            processor.core.add_trap_hook(switch_context)
            run = run_to_dict(processor.run_loaded(workload, 1_800))
            l1_contents = [
                [cache.set_contents(index) for index in range(cache.geometry.num_sets)]
                for cache in (hierarchy.l1i.cache, hierarchy.l1d.cache)
            ]
            return (
                run,
                l1_contents,
                processor.llc.cache.occupancy_by_owner(),
                processor.core.frontend.btb.snapshot(),
            )

    @pytest.mark.parametrize("spec", ["BASE", "FLUSH"])
    def test_context_switching_run_fast_equals_slow(self, spec, monkeypatch):
        fast = self.context_switching_run(spec, monkeypatch, slow=False)
        slow = self.context_switching_run(spec, monkeypatch, slow=True)
        counters = fast[0]["result"]["counters"]
        assert counters["core.traps"] == 3
        assert counters["protection.blocked_accesses"] > 0
        assert counters["protection.blocked_fetches"] > 0
        assert fast == slow


#: Core widths off the 2/1/1 default: the fast loop picks the issue
#: slot without a loop for one or two pipelines of a unit type.
CORE_WIDTHS = [{"alu_units": 1}, {"alu_units": 3}, {"mem_units": 2}, {"fp_units": 2}]


class TestCoreWidthEquivalence:
    @pytest.mark.parametrize(
        "widths", CORE_WIDTHS, ids=lambda widths: ",".join(f"{k}={v}" for k, v in widths.items())
    )
    @pytest.mark.parametrize("spec", ["BASE", "F+P+M+A"])
    def test_width_fast_equals_slow(self, spec, widths, monkeypatch):
        request = request_for(parse_variant(spec), "hmmer", SETTINGS)
        request = _with_config(request, core=replace(request.config.core, **widths))
        fast_key, fast_run = _execute(request, monkeypatch, slow=False)
        slow_key, slow_run = _execute(request, monkeypatch, slow=True)
        assert fast_key == slow_key
        assert fast_run == slow_run


class TestScenarioEquivalence:
    def test_prime_probe_outcome_identical(self, monkeypatch):
        config = config_for_variant(Variant.BASE)
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast = run_scenario("prime_probe", config, 2019, num_cores=2).to_dict()
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow = run_scenario("prime_probe", config, 2019, num_cores=2).to_dict()
        assert fast == slow

    @pytest.mark.parametrize("name", scenario_names())
    def test_detailed_llc_scenarios_identical(self, name, monkeypatch):
        # The co-scheduled scenarios drive the detailed LLC arbiter,
        # whose event-batched loop skips quiescent cycles on the fast
        # path; outcomes (leakage, cycles, details) must not notice.
        config = config_for_variant(Variant.F_P_M_A)
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast = run_scenario(name, config, 2019).to_dict()
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow = run_scenario(name, config, 2019).to_dict()
        assert fast == slow


class TestCoScheduledCounterEquivalence:
    """The detailed LLC's own counters, which no outcome document carries."""

    @staticmethod
    def flooding_phase(spec):
        """A sender flooding writes past its MSHRs while a receiver polls."""
        machine = build_scenario_machine(config_for_spec(spec), seed=2019)
        placement = default_placement(2)
        receiver, sender = placement.attacker_core, placement.victim_core
        executor = CoScheduledExecutor(machine, max_outstanding={receiver: 4, sender: 24})
        receiver_base = machine.address_map.region_base(min(ATTACKER_REGIONS))
        sender_base = machine.address_map.region_base(min(VICTIM_REGIONS))
        executor.run_phase(
            {
                receiver: [
                    MemOp(receiver_base + (poll % 8) * 64, issue_gap=23, l1_bypass=True)
                    for poll in range(60)
                ],
                sender: [
                    MemOp(sender_base + line * 64, is_write=True, issue_gap=line % 3)
                    for line in range(150)
                ],
            }
        )
        executor.idle(333)
        return machine.stats.counters(), executor.cycle, executor.completed

    @pytest.mark.parametrize("spec", ["BASE", "MISS", "ARB", "F+P+M+A"])
    def test_flooding_phase_counters_identical(self, spec, monkeypatch):
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast = self.flooding_phase(spec)
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow = self.flooding_phase(spec)
        counters, _cycle, completed = fast
        assert counters.get("llc_detail.mshr_stall_cycles", 0) > 0
        assert len(completed) == 60 + 150
        assert fast == slow


class TestServeEquivalence:
    def test_service_outcome_identical(self, monkeypatch):
        # Field-for-field through ServiceOutcome.to_dict(): latencies,
        # per-tenant stats, purge counts, and the embedded kernel cycle
        # resolution all ride on the fast path.
        request = ServiceRunRequest(
            policy="fifo",
            config=evaluation_config(parse_variant("F+P+M+A"), 1_000),
            seed=2019,
            num_cores=2,
            num_tenants=4,
            num_requests=40,
            instructions=1_000,
        )
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast_key = request.cache_key()
        fast = execute_service_request(request).to_dict()
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow_key = request.cache_key()
        slow = execute_service_request(request).to_dict()
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        assert fast_key == slow_key
        assert fast == slow

    def test_churned_fleet_shard_outcome_identical(self, monkeypatch):
        # Churn destroys and relaunches tenant enclaves, so the monitor
        # scrubs their regions' LLC sets: the slab scrub lane and its
        # reference walk both run under the fleet loop here.
        request = FleetShardRequest(
            policy="affinity",
            config=evaluation_config(parse_variant("F+P+M+A"), 1_000),
            seed=2019,
            shard_index=0,
            tenants=(0, 1, 2),
            num_tenants=3,
            admission="deadline",
            client="closed_loop",
            load=1.0,
            load_profile="poisson",
            num_cores=2,
            num_requests=60,
            queue_depth=8,
            slo_cycles=50_000,
            think_factor=2.0,
            instructions=1_000,
            churn_every=5,
        )
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast_key = request.cache_key()
        fast = execute_fleet_shard_request(request).to_dict()
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow_key = request.cache_key()
        slow = execute_fleet_shard_request(request).to_dict()
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        assert fast["charged_scrub_cycles"] > 0
        assert fast_key == slow_key
        assert fast == slow
