"""Co-scheduled security scenarios: Property 1 on the shared Machine.

Covers the three layers the scenario subsystem adds: the co-scheduled
executor (functional truth from the shared LLC, timing from the detailed
pipeline), the scenario registry (leak on BASE, no leak on MI6, and the
per-defence closures), and the experiment-engine integration (cache
keys, store persistence, serial/parallel equivalence, security table).
"""

import json
from dataclasses import fields, replace

import pytest

from repro.analysis.engine import (
    ParallelRunner,
    ScenarioRequest,
    ScenarioSpec,
    execute_scenario_request,
)
from repro.analysis.figures import aggregate_leakage_rows
from repro.analysis.store import ResultStore
from repro.api import Session
from repro.attacks.coschedule import CoScheduledExecutor, MemOp, detailed_config_for
from repro.attacks.placement import ATTACKER_CORE
from repro.attacks.scenarios import (
    ScenarioOutcome,
    build_scenario_machine,
    run_scenario,
    scenario_names,
)
from repro.core.mitigations import config_for_spec
from repro.mem.arbiter import RoundRobinArbiter, TwoLevelMuxArbiter
from repro.os_model.machine import DEFAULT_MACHINE_SEED

BASE = config_for_spec("BASE")
MI6 = config_for_spec("F+P+M+A")


class TestCoScheduledExecutor:
    def test_llc_bound_accesses_run_through_the_detailed_pipeline(self):
        machine = build_scenario_machine(BASE, seed=DEFAULT_MACHINE_SEED)
        executor = CoScheduledExecutor(machine)
        base_address = machine.address_map.region_base(8)
        ops = [MemOp(base_address + index * 64, l1_bypass=True) for index in range(4)]
        done = executor.run_phase({ATTACKER_CORE: ops})
        assert len(done[ATTACKER_CORE]) == 4
        # Cold lines: every access misses and pays the DRAM latency
        # through the message-level pipeline.
        assert all(
            access.latency >= machine.config.dram.latency_cycles
            for access in done[ATTACKER_CORE]
        )
        assert machine.stats.value("llc_detail.pipeline_entries") >= 4

    def test_l1_hits_complete_locally_without_llc_traffic(self):
        machine = build_scenario_machine(BASE, seed=DEFAULT_MACHINE_SEED)
        executor = CoScheduledExecutor(machine)
        address = machine.address_map.region_base(8)
        executor.run_phase({ATTACKER_CORE: [MemOp(address)]})
        entries_before = machine.stats.value("llc_detail.pipeline_entries")
        done = executor.run_phase({ATTACKER_CORE: [MemOp(address)]})
        access = done[ATTACKER_CORE][0]
        assert access.l1_hit
        assert access.latency <= machine.core(ATTACKER_CORE).hierarchy.l1d.hit_latency
        assert machine.stats.value("llc_detail.pipeline_entries") == entries_before

    def test_mi6_protection_suppresses_cross_domain_access(self):
        machine = build_scenario_machine(MI6, seed=DEFAULT_MACHINE_SEED)
        victim_address = machine.address_map.region_base(9)
        done = CoScheduledExecutor(machine).run_phase(
            {ATTACKER_CORE: [MemOp(victim_address)]}
        )
        assert done[ATTACKER_CORE][0].blocked
        assert not BASE.has_protection_hardware
        assert MI6.has_protection_hardware

    def test_arbiter_matches_machine_organisation(self):
        assert not detailed_config_for(BASE).secure
        assert detailed_config_for(MI6).secure
        # A partial LLC defence leaves the other coupling open, so
        # MISS-only and ARB-only conservatively get the baseline
        # organisation (the detailed model is Figure 2 xor Figure 3).
        assert not detailed_config_for(config_for_spec("MISS")).secure
        assert not detailed_config_for(config_for_spec("ARB")).secure
        baseline = CoScheduledExecutor(build_scenario_machine(BASE, seed=DEFAULT_MACHINE_SEED))
        secure = CoScheduledExecutor(build_scenario_machine(MI6, seed=DEFAULT_MACHINE_SEED))
        assert isinstance(baseline.detailed._arbiter, TwoLevelMuxArbiter)
        assert isinstance(secure.detailed._arbiter, RoundRobinArbiter)

    def test_phases_share_machine_state_and_clock(self):
        machine = build_scenario_machine(BASE, seed=DEFAULT_MACHINE_SEED)
        executor = CoScheduledExecutor(machine)
        address = machine.address_map.region_base(8)
        executor.run_phase({ATTACKER_CORE: [MemOp(address, l1_bypass=True)]})
        first_phase_end = executor.cycle
        done = executor.run_phase({ATTACKER_CORE: [MemOp(address, l1_bypass=True)]})
        assert executor.cycle > first_phase_end
        # The second phase sees the line the first phase installed.
        assert done[ATTACKER_CORE][0].llc_hit


class TestScenarioProperty1:
    @pytest.mark.parametrize("name", scenario_names())
    def test_channel_open_on_base(self, name):
        outcome = run_scenario(name, BASE, seed=2019)
        assert outcome.leaked
        assert 0 < outcome.leaked_bits <= outcome.total_bits

    @pytest.mark.parametrize("name", scenario_names())
    def test_channel_closed_on_mi6(self, name):
        outcome = run_scenario(name, MI6, seed=2019)
        assert not outcome.leaked
        assert outcome.leaked_bits == 0

    def test_each_defence_closes_its_own_channel(self):
        part = config_for_spec("PART")
        flush = config_for_spec("FLUSH")
        # Set partitioning closes prime+probe but not the predictor residue.
        assert not run_scenario("prime_probe", part, 7).leaked
        assert run_scenario("branch_residue", part, 7).leaked
        # The purge closes the residue but not prime+probe.
        assert not run_scenario("branch_residue", flush, 7).leaked
        assert run_scenario("prime_probe", flush, 7).leaked
        # The covert channel needs BOTH LLC defences: either one alone
        # leaves the channel open (shared MSHR pool or unfair mux).
        assert run_scenario("contention", config_for_spec("MISS"), 7).leaked
        assert run_scenario("contention", config_for_spec("ARB"), 7).leaked

    def test_scenarios_are_deterministic(self):
        first = run_scenario("contention", BASE, seed=42)
        second = run_scenario("contention", BASE, seed=42)
        assert first == second

    def test_scans_stay_inside_small_regions(self):
        # Regions smaller than the 8 MiB scan cap: the attacker's address
        # scan must clamp to its own region instead of walking into the
        # victim's, and the verdicts must be unchanged.
        from dataclasses import replace

        from repro.mem.address import AddressMap

        small = AddressMap(dram_bytes=256 * 1024 * 1024)  # 4 MiB regions
        assert small.region_bytes < 8 * 1024 * 1024
        base = replace(BASE, address_map=small)
        mi6 = replace(MI6, address_map=small)
        assert run_scenario("prime_probe", base, 2019).leaked
        assert not run_scenario("prime_probe", mi6, 2019).leaked

    def test_unknown_scenario_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown scenario"):
            run_scenario("nope", BASE, 2019)


class TestScenarioEngine:
    def test_request_round_trips_and_keys_are_content_sensitive(self):
        request = ScenarioRequest("spectre", MI6, seed=7)
        again = ScenarioRequest.from_payload(request.to_payload())
        assert again == request
        assert again.cache_key() == request.cache_key()
        other_variant = ScenarioRequest("spectre", BASE, seed=7)
        other_seed = ScenarioRequest("spectre", MI6, seed=8)
        assert len({request.cache_key(), other_variant.cache_key(), other_seed.cache_key()}) == 3

    def test_outcome_round_trips_through_json(self):
        outcome = execute_scenario_request(ScenarioRequest("branch_residue", BASE, 2019))
        encoded = json.loads(json.dumps(outcome.to_dict()))
        assert ScenarioOutcome.from_dict(encoded) == outcome
        # Keys follow the field order (store files are written unsorted);
        # a field with a default may be absent, a required one may not.
        assert list(encoded) == [field.name for field in fields(ScenarioOutcome)]
        del encoded["num_cores"], encoded["details"]
        assert ScenarioOutcome.from_dict(encoded) == replace(outcome, num_cores=2, details={})
        del encoded["cycles"]
        with pytest.raises(KeyError, match="cycles"):
            ScenarioOutcome.from_dict(encoded)

    def test_warm_start_from_disk(self, tmp_path):
        spec = ScenarioSpec(scenarios=("branch_residue",), seeds=(2019,))
        cold_runner = ParallelRunner(ResultStore(tmp_path))
        cold = cold_runner.run(spec.requests())
        assert cold_runner.last_origins == ["cold"] * len(spec.requests())
        assert cold_runner.store.misses == len(spec.requests()) == 2
        warm_runner = ParallelRunner(ResultStore(tmp_path))
        warm = warm_runner.run(spec.requests())
        assert warm_runner.last_origins == ["warm"] * len(spec.requests())
        assert (warm_runner.store.disk_hits, warm_runner.store.misses) == (2, 0)
        assert [outcome.to_dict() for outcome in warm] == [
            outcome.to_dict() for outcome in cold
        ]

    def test_serial_and_parallel_outcomes_are_identical(self):
        spec = ScenarioSpec(scenarios=("branch_residue", "spectre"), seeds=(2019,))
        serial = ParallelRunner(ResultStore.in_memory(), jobs=1).run(
            spec.requests()
        )
        parallel = ParallelRunner(ResultStore.in_memory(), jobs=2).run(
            spec.requests()
        )
        assert [outcome.to_dict() for outcome in serial] == [
            outcome.to_dict() for outcome in parallel
        ]

    def test_spec_validates_scenario_names_and_rejects_empty(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ScenarioSpec(scenarios=["nope"])
        with pytest.raises(ValueError, match="must not be empty"):
            ScenarioSpec(scenarios=[])
        # Direct construction validates too: these used to build.
        with pytest.raises(ValueError, match=r"unknown scenario\(s\): nope"):
            ScenarioSpec(scenarios=("prime_probe", "nope"))
        with pytest.raises(ValueError, match="num_cores must be at least 2"):
            ScenarioSpec(num_cores=1)
        spec = ScenarioSpec()
        assert spec.scenarios == tuple(scenario_names())
        assert spec.variants == ("BASE", "F+P+M+A")
        assert spec.seeds == (2019,)

    def test_security_table_reports_leak_on_base_only(self):
        result = Session(ResultStore.in_memory()).attack(scenarios=("branch_residue",))
        cells = aggregate_leakage_rows(result.outcomes)["branch_residue"]
        base_leaked, base_total = map(int, cells["BASE"].split("/"))
        mi6_leaked, mi6_total = map(int, cells["F+P+M+A"].split("/"))
        assert base_leaked > 0
        assert mi6_leaked == 0
        assert base_total == mi6_total > 0
