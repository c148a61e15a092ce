"""Session/Request API: envelopes, provenance, placement, seed plumbing."""

import pytest

from repro.analysis.engine import ScenarioRequest as EngineScenarioRequest
from repro.analysis.harness import run_figure_series, runtime_overhead_metric
from repro.analysis.engine import EvaluationSettings
from repro.analysis.store import ResultStore
from repro.api import (
    Session,
    SweepRequest,
    WorkloadRequest,
    default_session,
    set_default_session,
)
from repro.attacks.placement import (
    ATTACKER_CORE,
    ATTACKER_REGIONS,
    VICTIM_CORE,
    VICTIM_REGIONS,
    bystander_cores,
    bystander_regions,
)
from repro.attacks.scenarios import build_scenario_machine
from repro.common.errors import ConfigurationError
from repro.core.config import MI6Config
from repro.core.mitigations import config_for_spec, spec_name
from repro.os_model.machine import Machine

SMALL = dict(instructions=2500)
BASE = config_for_spec("BASE")
MI6 = config_for_spec("F+P+M+A")


def session():
    return Session(ResultStore.in_memory(), settings=EvaluationSettings(instructions=2500))


class TestWorkloadRequests:
    def test_cold_then_warm_provenance(self):
        s = session()
        first = s.workload("ARB", "hmmer", **SMALL)
        assert first.provenance.origin == "cold"
        assert first.cold_count == 1 and first.warm_count == 0
        again = s.workload("ARB", "hmmer", **SMALL)
        assert again.provenance.origin == "warm"
        assert again.value is first.value  # in-memory layer returns the object
        assert again.provenance.cache_key == first.provenance.cache_key
        assert first.wall_time_seconds >= 0.0

    def test_enum_and_spec_share_cache_entries(self):
        s = session()
        cold = s.workload("F+P+M+A", "hmmer", **SMALL)
        warm = s.workload("flush+part+miss+arb", "hmmer", **SMALL)
        assert warm.provenance.origin == "warm"
        assert warm.provenance.cache_key == cold.provenance.cache_key

    def test_explicit_config_requests(self):
        s = session()
        config = MI6Config(trap_interval_instructions=7_777)
        result = s.run(WorkloadRequest(config=config, benchmark="hmmer", **SMALL))
        assert result.value.instructions == 2500
        # A config outside the evaluation policy gets its own cache key.
        policy = s.workload("BASE", "hmmer", **SMALL)
        assert result.provenance.cache_key != policy.provenance.cache_key

    def test_unsupported_request_type_rejected(self):
        with pytest.raises(TypeError, match="unsupported request"):
            session().run("not a request")
        for request in (
            WorkloadRequest(benchmark="gcc", instructions=0),
            WorkloadRequest(variant="NONSPEC", benchmark="gcc", instructions=-5),
            WorkloadRequest(config=MI6Config(), benchmark="gcc", instructions=0),
            SweepRequest(benchmarks=("gcc",), instructions=0),
        ):
            with pytest.raises(ValueError, match="instructions must be positive"):
                session().run(request)

    def test_unknown_benchmark_rejected_naming_the_known_ones(self):
        for request in (
            SweepRequest(benchmarks=["nope"]),
            WorkloadRequest(benchmark="nope"),
            WorkloadRequest(config=MI6Config(), benchmark="nope"),
        ):
            with pytest.raises(ValueError, match="unknown benchmark 'nope'.*gcc.*xalancbmk"):
                session().run(request)


class TestSweepRequests:
    def test_mixed_warm_cold_keeps_all_entries_and_keys(self):
        # Regression: the runner's provenance snapshot used to be the
        # deduplicated *pending* key list, so a partially-warm sweep
        # silently truncated the result envelope and attached cold
        # requests' cache keys to warm entries.
        s = session()
        s.run(SweepRequest(variants=["BASE"], benchmarks=["hmmer"], **SMALL))
        mixed = s.run(
            SweepRequest(variants=["BASE", "ARB"], benchmarks=["hmmer", "mcf"], **SMALL)
        )
        assert len(mixed.entries) == 4
        assert mixed.warm_count == 1 and mixed.cold_count == 3
        assert len({entry.provenance.cache_key for entry in mixed.entries}) == 4
        warm_entry = mixed.entry("BASE", "hmmer", mixed.entries[0].key[2])
        assert warm_entry.provenance.origin == "warm"

    def test_envelope_and_accessors(self):
        s = session()
        result = s.run(
            SweepRequest(variants=["BASE", "FLUSH+MISS"], benchmarks=["hmmer"], **SMALL)
        )
        assert len(result.entries) == 2
        assert [entry.key for entry in result] == [
            ("BASE", "hmmer", 2019),
            ("FLUSH+MISS", "hmmer", 2019),
        ]
        assert result.run_for("MISS+FLUSH", "hmmer").config_name == "FLUSH+MISS"
        assert result.overhead_percent("FLUSH+MISS", "hmmer") == pytest.approx(
            runtime_overhead_metric(
                result.run_for("BASE", "hmmer"), result.run_for("FLUSH+MISS", "hmmer")
            )
        )
        with pytest.raises(ValueError):
            result.value  # multi-entry results have no single value

    def test_sweep_reuses_workload_entries(self):
        s = session()
        s.workload("FLUSH+MISS", "hmmer", **SMALL)
        result = s.run(SweepRequest(variants=["FLUSH+MISS"], benchmarks=["hmmer"], **SMALL))
        assert result.warm_count == 1

    def test_figure_series_accepts_combos(self):
        series = run_figure_series(
            "PART+ARB",
            runtime_overhead_metric,
            EvaluationSettings(instructions=2500),
            benchmarks=["libquantum"],
            store=ResultStore.in_memory(),
        )
        assert series["libquantum"] > 0
        assert set(series) == {"libquantum", "average"}


class TestScenarioRequests:
    def test_matrix_with_combos_and_num_cores(self):
        s = session()
        result = s.attack(
            scenarios=["branch_residue"],
            variants=["BASE", "FLUSH+PART"],
            num_cores=4,
        )
        assert [entry.key for entry in result] == [
            ("branch_residue", "BASE", 2019),
            ("branch_residue", "FLUSH+PART", 2019),
        ]
        open_outcome = result.entry("branch_residue", "BASE", 2019).value
        closed = result.entry("branch_residue", spec_name("flush+part"), 2019).value
        assert open_outcome.leaked and not closed.leaked
        assert open_outcome.num_cores == 4
        warm = s.attack(
            scenarios=["branch_residue"],
            variants=["BASE", "FLUSH+PART"],
            num_cores=4,
        )
        assert warm.warm_count == 2

    def test_num_cores_changes_the_cache_key(self):
        pair = EngineScenarioRequest("prime_probe", BASE, seed=7, num_cores=2)
        quad = EngineScenarioRequest("prime_probe", BASE, seed=7, num_cores=4)
        assert pair.cache_key() != quad.cache_key()
        assert EngineScenarioRequest.from_payload(quad.to_payload()) == quad

    def test_property1_holds_on_larger_machines(self):
        s = session()
        result = s.attack(variants=["BASE", "F+P+M+A"], num_cores=4)
        for entry in result:
            scenario, variant, _seed = entry.key
            if variant == "BASE":
                assert entry.value.leaked, scenario
            else:
                assert not entry.value.leaked, scenario

    def test_rejects_single_core_matrices(self):
        with pytest.raises(ValueError, match="num_cores"):
            session().attack(num_cores=1)

    def test_oversized_machines_raise_a_clear_error(self):
        with pytest.raises(ConfigurationError, match="DRAM regions"):
            session().attack(scenarios=["prime_probe"], variants=["BASE"], num_cores=17)

    def test_contention_decodes_degenerate_messages_on_base(self):
        # Seed 55 historically drew an (almost) all-ones message whose
        # flood starved the receiver into empty slots; the channel must
        # still read as open on the insecure machine and closed on MI6.
        from repro.attacks.scenarios import run_contention

        assert run_contention(BASE, 55).leaked
        assert not run_contention(MI6, 55).leaked


class TestDefaultSession:
    def test_default_session_is_shared_and_replaceable(self):
        original = default_session()
        assert default_session() is original
        replacement = Session(ResultStore.in_memory())
        try:
            assert set_default_session(replacement) is replacement
            assert default_session() is replacement
        finally:
            set_default_session(original)


class TestPlacement:
    def test_bystanders_take_the_cores_beyond_attacker_and_victim(self):
        assert (ATTACKER_CORE, VICTIM_CORE) == (0, 1)
        assert bystander_cores(2) == ()
        assert bystander_cores(4) == (2, 3)

    def test_placement_validation(self):
        with pytest.raises(ConfigurationError, match="at least two"):
            bystander_cores(1)

    def test_bystander_regions_are_disjoint_from_principals(self):
        reserved = ATTACKER_REGIONS | VICTIM_REGIONS
        regions = [bystander_regions(core, 6, 64) for core in bystander_cores(6)]
        flattened = set().union(*regions)
        assert not flattened & reserved
        assert len(flattened) == len(regions)  # pairwise disjoint
        # Region 11 is the only partition-3 region below 12.
        assert bystander_regions(2, 3, 12) == {11}
        with pytest.raises(ConfigurationError, match="not enough DRAM regions for 2 bystanders"):
            bystander_regions(3, 4, 12)

    def test_scenario_machine_installs_every_domain(self):
        machine = build_scenario_machine(MI6, seed=5, num_cores=4)
        assert machine.num_cores == 4
        assert machine.seed == 5
        for core in machine.cores:
            assert core.region_bitvector.allowed_regions()


class TestSeedPlumbing:
    def test_machine_seed_default_and_override(self):
        assert Machine(BASE).seed == 7  # historical default preserved
        assert Machine(BASE, seed=123).seed == 123

    def test_machine_seed_reaches_the_per_core_rngs(self):
        # Same config, different machine seeds: the per-core hierarchy
        # replacement streams diverge — the point of the plumbing (they
        # were hardwired to the same constant for every scenario seed).
        def draws(seed):
            machine = Machine(BASE, seed=seed)
            rng = machine.cores[0].hierarchy.l1d.cache._policy._rng
            return tuple(rng.integer(0, 1_000_000) for _ in range(4))

        assert draws(1) != draws(2)
