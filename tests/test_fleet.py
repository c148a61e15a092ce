"""Tests for the fleet-scale sharded serving subsystem (repro/fleet)."""

import json
from dataclasses import replace

import pytest

from repro.analysis.engine import (
    FleetRunRequest,
    FleetShardRequest,
    FleetSpec,
    ParallelRunner,
    evaluation_config,
    resolve_service_cycles,
)
from repro.analysis.figures import (
    FLEET_TABLE_TITLE,
    fleet_goodput_rows,
    fleet_saturation_points,
)
from repro.analysis.report import format_fleet_table
from repro.analysis.store import ResultStore
from repro.api import FleetRequest, Session
from repro.cli import main as cli_main
from repro.common.errors import ConfigurationError
from repro.core.mitigations import config_for_spec
from repro.fleet import (
    ADMISSION_POLICIES,
    CLIENT_MODELS,
    ROUTERS,
    FleetOutcome,
    ShardOutcome,
    TenantLoad,
    assign_tenants,
    run_fleet_shard,
)
from repro.fleet.admission import (
    REJECT_DEADLINE,
    REJECT_QUEUE_FULL,
    AdmissionContext,
)
from repro.fleet.clients import closed_loop_population
from repro.common.rng import DeterministicRng
from repro.service.arrivals import exponential_gap
from repro.service.simulation import tenant_benchmarks

#: Small fleet shared by most tests: four tenants over two 2-core
#: shards keeps routing and admission busy while the suite stays fast.
SMALL = dict(
    num_shards=2,
    shard_cores=2,
    num_tenants=4,
    num_requests=60,
    instructions=1_500,
)


def synthetic_cycles(num_tenants=4, base=2_000, step=250):
    """A deterministic benchmark -> cycles table (no kernel runs)."""
    benchmarks = tenant_benchmarks(num_tenants)
    ordered = []
    for benchmark in benchmarks:
        if benchmark not in ordered:
            ordered.append(benchmark)
    return {name: base + step * index for index, name in enumerate(ordered)}


def small_request(spec="F+P+M+A", seed=7, policy="affinity", **overrides):
    fields = dict(SMALL)
    fields.update(overrides)
    return FleetRunRequest(
        policy=policy,
        config=evaluation_config(spec, fields["instructions"]),
        seed=seed,
        **fields,
    )


def run_fleet(request):
    """One fleet through the runner, which lowers it onto shards and merges them."""
    return ParallelRunner(ResultStore.in_memory(), jobs=1).run([request])[0]


def priced(request):
    """The request with its cycle table attached from synthetic costs."""
    table = synthetic_cycles(request.num_tenants)
    return replace(request, service_cycles=tuple(sorted(table.items())))


class TestRouting:
    def test_registry_ships_three_routers(self):
        assert list(ROUTERS) == [
            "consistent_hash",
            "least_loaded",
            "purge_cost_aware",
        ]

    def test_unknown_router_and_bad_shard_count_rejected(self):
        loads = [TenantLoad(0, "astar", 100, 0)]
        with pytest.raises(ConfigurationError, match="unknown routing policy"):
            assign_tenants("random", loads, 2)
        with pytest.raises(ConfigurationError, match="num_shards must be positive"):
            assign_tenants("consistent_hash", loads, 0)

    def test_consistent_hash_is_stable_and_ignores_demand(self):
        light = [TenantLoad(t, "astar", 100, 0) for t in range(8)]
        heavy = [TenantLoad(t, "astar", 10_000, 500) for t in range(8)]
        placement = assign_tenants("consistent_hash", light, 4)
        # Placement hashes only (tenant id, shard count): repeated calls
        # and different demand tables give the identical assignment.
        assert placement == assign_tenants("consistent_hash", light, 4)
        assert placement == assign_tenants("consistent_hash", heavy, 4)
        assert all(0 <= shard < 4 for shard in placement)

    def test_consistent_hash_resize_moves_few_tenants(self):
        loads = [TenantLoad(t, "astar", 100, 0) for t in range(32)]
        before = assign_tenants("consistent_hash", loads, 8)
        after = assign_tenants("consistent_hash", loads, 9)
        moved = sum(1 for a, b in zip(before, after) if a != b)
        # The ring property: growing the fleet remaps only the arc the
        # new shard claims, not a full reshuffle (expect ~1/9 moved).
        assert moved < len(loads) // 2

    def test_least_loaded_balances_demand(self):
        loads = [
            TenantLoad(0, "a", 400, 0),
            TenantLoad(1, "b", 300, 0),
            TenantLoad(2, "c", 200, 0),
            TenantLoad(3, "d", 100, 0),
        ]
        placement = assign_tenants("least_loaded", loads, 2)
        totals = [0, 0]
        for load, shard in zip(loads, placement):
            totals[shard] += load.demand_cycles
        # LPT on these weights packs perfectly: 400+100 vs 300+200.
        assert totals == [500, 500]
        # With at least as many tenants as shards, no shard is empty.
        assert set(placement) == {0, 1}

    def test_purge_cost_aware_spreads_boundary_cost(self):
        loads = [
            TenantLoad(0, "a", 400, 0),
            TenantLoad(1, "b", 300, 0),
            TenantLoad(2, "c", 200, 0),
            TenantLoad(3, "d", 100, 600),
        ]
        demand_only = assign_tenants("least_loaded", loads, 2)
        cost_aware = assign_tenants("purge_cost_aware", loads, 2)
        assert demand_only != cost_aware

        def spread(placement):
            totals = [0, 0]
            for load, shard in zip(loads, placement):
                totals[shard] += load.demand_cycles + load.boundary_cycles
            return abs(totals[0] - totals[1])

        assert spread(cost_aware) < spread(demand_only)

    def test_purge_cost_aware_reduces_to_least_loaded_without_boundary(self):
        loads = [TenantLoad(t, "a", 100 * (t + 1), 0) for t in range(6)]
        assert assign_tenants("purge_cost_aware", loads, 3) == assign_tenants(
            "least_loaded", loads, 3
        )


class TestAdmission:
    def context(self, **overrides):
        fields = dict(
            now=0,
            queue_length=0,
            queue_depth=4,
            service_cycles=1_000,
            estimated_wait_cycles=0,
            slo_cycles=8_000,
        )
        fields.update(overrides)
        return AdmissionContext(**fields)

    def test_registry_ships_two_policies(self):
        assert list(ADMISSION_POLICIES) == ["drop_on_full", "deadline"]

    def test_drop_on_full(self):
        assert ADMISSION_POLICIES["drop_on_full"](self.context()) is None
        assert ADMISSION_POLICIES["drop_on_full"](self.context(queue_length=3)) is None
        assert (
            ADMISSION_POLICIES["drop_on_full"](self.context(queue_length=4)) == REJECT_QUEUE_FULL
        )

    def test_deadline_rejects_hopeless_requests(self):
        assert ADMISSION_POLICIES["deadline"](self.context()) is None
        # queue_full outranks the SLO check (matches drop_on_full).
        assert (
            ADMISSION_POLICIES["deadline"](self.context(queue_length=4, estimated_wait_cycles=10**6))
            == REJECT_QUEUE_FULL
        )
        assert (
            ADMISSION_POLICIES["deadline"](self.context(estimated_wait_cycles=7_500))
            == REJECT_DEADLINE
        )
        # Exactly meeting the SLO is admitted (strict inequality).
        assert ADMISSION_POLICIES["deadline"](self.context(estimated_wait_cycles=7_000)) is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown admission policy"):
            ADMISSION_POLICIES["lottery"]


class TestClients:
    def test_registry_ships_two_models(self):
        assert list(CLIENT_MODELS) == ["open_loop", "closed_loop"]
        assert CLIENT_MODELS["open_loop"].closed_loop is False
        assert CLIENT_MODELS["closed_loop"].closed_loop is True

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown client model"):
            CLIENT_MODELS["half_open"]

    def test_population_tracks_the_load_knob(self):
        # N = load x cores x (1 + think_factor), floored at one client.
        assert closed_loop_population(1.0, 4, 2.0) == 12
        assert closed_loop_population(0.5, 2, 2.0) == 3
        assert closed_loop_population(0.01, 1, 0.0) == 1
        assert closed_loop_population(2.0, 4, 2.0) == 2 * closed_loop_population(
            1.0, 4, 2.0
        )

    def test_think_gap_deterministic_and_positive(self):
        gaps = [exponential_gap(DeterministicRng(11), 500.0) for _ in range(3)]
        assert gaps[0] == gaps[1] == gaps[2] >= 1
        rng = DeterministicRng(11)
        draws = [exponential_gap(rng, 500.0) for _ in range(200)]
        assert all(gap >= 1 for gap in draws)
        assert 250 <= sum(draws) / len(draws) <= 1_000


class TestRunFleetShard:
    def shard(self, spec="F+P+M+A", **overrides):
        fields = dict(
            service_cycles=synthetic_cycles(),
            seed=7,
            shard_index=0,
            tenants=(0, 1, 2, 3),
            num_tenants=4,
            load=0.8,
            load_profile="poisson",
            client="closed_loop",
            num_cores=2,
            num_requests=80,
            queue_depth=8,
            admission="drop_on_full",
            slo_cycles=20_000,
            think_factor=2.0,
        )
        fields.update(overrides)
        return run_fleet_shard(config_for_spec(spec), "affinity", **fields)

    def test_bit_identical_repeats_and_roundtrip(self):
        first = self.shard()
        second = self.shard()
        assert first.to_dict() == second.to_dict()
        # Equal objects: tuple fields come back as tuples, not lists.
        assert ShardOutcome.from_dict(json.loads(json.dumps(first.to_dict()))) == first

    def test_budget_and_counter_consistency(self):
        outcome = self.shard()
        assert outcome.offered == 80
        assert (
            outcome.admitted
            == outcome.offered
            - outcome.dropped_queue_full
            - outcome.rejected_deadline
        )
        assert outcome.completed == outcome.admitted == len(outcome.latencies)
        assert outcome.slo_met + outcome.deadline_misses == outcome.completed
        assert outcome.queue_peak <= 8
        assert 0.0 < outcome.utilization <= 1.0

    def test_empty_shard_and_zero_budget(self):
        assert self.shard(tenants=()).completed == 0
        outcome = self.shard(num_requests=0)
        assert outcome.offered == outcome.completed == 0
        assert outcome.utilization == 0.0

    def test_open_and_closed_loop_differ_but_share_the_budget(self):
        closed = self.shard()
        open_loop = self.shard(client="open_loop")
        assert open_loop.offered == closed.offered == 80
        assert open_loop.latencies != closed.latencies

    def test_tiny_queue_sheds_load_closed_loop_still_terminates(self):
        outcome = self.shard(queue_depth=1, load=3.0)
        # Rejected closed-loop clients think and retry, so the full
        # budget is still offered and the run terminates.
        assert outcome.offered == 80
        assert outcome.dropped_queue_full > 0

    def test_deadline_admission_reject_or_miss_accounting(self):
        outcome = self.shard(admission="deadline", slo_cycles=6_000, load=2.0)
        # A tight SLO under overload must shed or miss, never both zero.
        assert outcome.rejected_deadline > 0
        assert outcome.slo_met + outcome.deadline_misses == outcome.completed

    def test_purge_charged_only_on_flush_machines(self):
        secured = self.shard(policy_spec := "F+P+M+A")
        assert secured.charged_purge_cycles > 0, policy_spec
        base = self.shard(spec="BASE")
        assert base.charged_purge_cycles == 0
        assert base.charged_scrub_cycles == 0

    def test_churn_teardown_charges_wipe_and_measurement(self):
        secured = self.shard(churn_every=5)
        assert secured.charged_scrub_cycles > 0
        assert secured.charged_wipe_cycles > 0
        assert secured.charged_measurement_cycles > 0
        base = self.shard(spec="BASE", churn_every=5)
        assert base.charged_wipe_cycles == 0
        assert base.charged_measurement_cycles == 0
        # The wipe charge is the knob's to disable, independently of
        # measurement.
        no_wipe = self.shard(churn_every=5, dram_wipe_bytes_per_cycle=0)
        assert no_wipe.charged_wipe_cycles == 0
        assert no_wipe.charged_measurement_cycles > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="load must be positive"):
            self.shard(load=0.0)
        with pytest.raises(ConfigurationError, match="queue_depth must be positive"):
            self.shard(queue_depth=0)
        with pytest.raises(ConfigurationError, match="slo_cycles must be positive"):
            self.shard(slo_cycles=0)
        with pytest.raises(ConfigurationError, match="missing benchmarks"):
            self.shard(service_cycles={})

    def test_negative_churn_rejected(self):
        # A period of -1 divides every tally, which would churn the
        # tenant after each completion.
        with pytest.raises(ConfigurationError, match="churn_every must be non-negative"):
            self.shard(churn_every=-1)


class TestEngineRequests:
    def test_cache_key_distinguishes_every_fleet_axis(self):
        base = small_request()
        variations = [
            small_request(spec="BASE"),
            small_request(seed=8),
            small_request(policy="fifo"),
            small_request(router="least_loaded"),
            small_request(admission="deadline"),
            small_request(client="open_loop"),
            small_request(load=0.9),
            small_request(load_profile="bursty"),
            small_request(num_shards=3),
            small_request(shard_cores=3),
            small_request(num_tenants=5),
            small_request(num_requests=61),
            small_request(queue_depth=9),
            small_request(slo_factor=9.0),
            small_request(think_factor=1.5),
            small_request(churn_every=4),
            small_request(churn_every=4, dram_wipe_bytes_per_cycle=32),
            small_request(churn_every=4, measurement_cycles_per_page=1),
        ]
        keys = {base.cache_key()}
        keys.update(variation.cache_key() for variation in variations)
        assert len(keys) == len(variations) + 1

    def test_service_cycles_do_not_change_the_key(self):
        request = small_request()
        assert priced(request).cache_key() == request.cache_key()

    def test_shard_request_payload_roundtrip(self):
        request = small_request(churn_every=3, router="least_loaded")
        plan = priced(request).shard_plan(synthetic_cycles())
        shard_request = plan.shard_requests[0]
        assert FleetShardRequest.from_payload(shard_request.to_payload()) == (
            shard_request
        )
        assert shard_request.cache_key() != plan.shard_requests[1].cache_key()

    def test_shard_plan_partitions_tenants_and_budget(self):
        request = small_request(num_tenants=6, num_requests=62, num_shards=2)
        plan = request.shard_plan(synthetic_cycles(6))
        assert len(plan.assignment) == 6
        placed = [
            tenant
            for shard in range(request.num_shards)
            for tenant in plan.shard_tenants(shard)
        ]
        assert sorted(placed) == list(range(6))
        assert (
            sum(shard.num_requests for shard in plan.shard_requests)
            == request.num_requests
        )
        for shard_request in plan.shard_requests:
            # The shard's cycle table is restricted to its own tenants.
            benchmarks = tenant_benchmarks(6)
            needed = {benchmarks[tenant] for tenant in shard_request.tenants}
            assert set(dict(shard_request.service_cycles)) == needed

    def test_fleet_run_is_deterministic(self):
        request = priced(small_request())
        first = run_fleet(request)
        second = run_fleet(request)
        assert first.to_dict() == second.to_dict()
        assert FleetOutcome.from_dict(json.loads(json.dumps(first.to_dict()))) == first

    def test_merge_accounts_for_every_shard_and_request(self):
        request = priced(small_request(num_shards=3))
        outcome = run_fleet(request)
        assert outcome.offered == SMALL["num_requests"]
        assert len(outcome.per_shard) == 3
        assert outcome.completed == sum(
            row["completed"] for row in outcome.per_shard
        )
        assert outcome.slo_cycles >= 1
        assert outcome.latency["p99"] >= outcome.latency["p50"] > 0

    def test_resolve_fleet_cycles_covers_all_tenant_benchmarks(self):
        request = small_request(num_requests=4, instructions=400)
        cycles = resolve_service_cycles(request)
        assert set(cycles) == set(tenant_benchmarks(request.num_tenants))
        assert all(value > 0 for value in cycles.values())

    def test_spec_validation_and_size(self):
        # Direct construction used to skip validation: this built.
        with pytest.raises(ValueError, match="unknown routing policy 'random'"):
            FleetSpec(router="random")
        with pytest.raises(ValueError, match="unknown admission policy"):
            FleetSpec(admission="lottery")
        with pytest.raises(ValueError, match="unknown client model"):
            FleetSpec(client="half_open")
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            FleetSpec(policy="round-robin")
        with pytest.raises(ValueError, match="unknown load profile"):
            FleetSpec(load_profile="weekend")
        with pytest.raises(ValueError, match="must not be empty"):
            FleetSpec(loads=[])
        with pytest.raises(ValueError, match="loads must be positive"):
            FleetSpec(loads=[0.0])
        with pytest.raises(ValueError, match="num_shards must be positive"):
            FleetSpec(num_shards=0)
        with pytest.raises(ValueError, match="queue_depth must be positive"):
            FleetSpec(queue_depth=0)
        with pytest.raises(ValueError, match="slo_factor must be positive"):
            FleetSpec(slo_factor=0.0)
        with pytest.raises(ValueError, match="think_factor must be non-negative"):
            FleetSpec(think_factor=-1.0)
        spec = FleetSpec(
            variants=["BASE", "FLUSH"], loads=[0.5, 0.9, 1.3], seeds=[1, 2]
        )
        assert len(spec.requests()) == 2 * 3 * 2


class TestSessionFleet:
    @pytest.fixture()
    def request_fields(self):
        return dict(
            variants=["BASE", "F+P+M+A"],
            num_shards=2,
            shard_cores=2,
            num_tenants=4,
            requests=60,
            instructions=1_500,
        )

    def test_entries_outcomes_and_admission_audit(self, request_fields):
        session = Session(ResultStore.in_memory())
        result = session.run(FleetRequest(**request_fields))
        assert len(result.entries) == 2
        assert result.cold_count == 2
        assert [outcome.variant for outcome in result.fleet_outcomes] == [
            "BASE",
            "F+P+M+A",
        ]
        for entry in result.entries:
            audit = entry.provenance.purge
            assert audit["offered"] == 60
            assert len(audit["per_shard"]) == 2
            assert (
                audit["admitted"]
                == audit["offered"]
                - audit["dropped_queue_full"]
                - audit["rejected_deadline"]
            )

    def test_warm_start_from_disk(self, request_fields, tmp_path):
        store_dir = tmp_path / "cache"
        cold = Session(ResultStore(store_dir)).run(FleetRequest(**request_fields))
        warm_session = Session(ResultStore(store_dir))
        warm = warm_session.run(FleetRequest(**request_fields))
        assert warm.warm_count == 2
        # Nothing simulated on the warm pass: cycle table, shard
        # documents, and fleet documents all come off disk.
        assert warm_session.store.misses == 0
        assert [entry.value.to_dict() for entry in warm] == [
            entry.value.to_dict() for entry in cold
        ]

    def test_serial_equals_parallel(self, request_fields):
        serial = Session(ResultStore.in_memory(), jobs=1).run(
            FleetRequest(**request_fields)
        )
        parallel = Session(ResultStore.in_memory(), jobs=3).run(
            FleetRequest(**request_fields)
        )
        assert [entry.value.to_dict() for entry in serial] == [
            entry.value.to_dict() for entry in parallel
        ]

    def test_open_vs_closed_loop_are_distinct_deterministic_runs(self, request_fields):
        session = Session(ResultStore.in_memory())
        closed = session.run(FleetRequest(client="closed_loop", **request_fields))
        open_loop = session.run(FleetRequest(client="open_loop", **request_fields))
        closed_again = session.run(FleetRequest(client="closed_loop", **request_fields))
        assert closed_again.warm_count == 2
        assert [entry.value.to_dict() for entry in closed] == [
            entry.value.to_dict() for entry in closed_again
        ]
        for one, other in zip(closed.fleet_outcomes, open_loop.fleet_outcomes):
            assert one.variant == other.variant
            assert one.latency != other.latency

    def test_goodput_sweep_and_saturation_point(self, request_fields):
        fields = dict(request_fields)
        fields["variants"] = ["BASE"]
        session = Session(ResultStore.in_memory(), jobs=2)
        result = session.run(FleetRequest(loads=[0.3, 0.9, 3.0], **fields))
        rows = fleet_goodput_rows(result.fleet_outcomes)
        assert len(rows) == 3
        by_load = {row["load"]: row for row in rows}
        # More offered load means more concurrency until saturation:
        # goodput must rise from the underloaded point.
        assert by_load[0.9]["goodput_rpmc"] > by_load[0.3]["goodput_rpmc"]
        saturation = fleet_saturation_points(rows)
        best = max(rows, key=lambda row: (row["goodput_rpmc"], -row["load"]))
        assert saturation == {"BASE": best["load"]}

    def test_figures_rows_and_table_render(self, request_fields):
        session = Session(ResultStore.in_memory())
        result = session.run(FleetRequest(**request_fields))
        rows = fleet_goodput_rows(result.fleet_outcomes)
        assert len(rows) == 2
        table = format_fleet_table(FLEET_TABLE_TITLE, rows)
        assert "variant" in table and "good/Mcyc" in table and "p99" in table
        assert rows[0]["router"] == "consistent_hash"
        assert rows[0]["offered"] == 60


class TestFleetCli:
    def run_cli(self, capsys, *argv):
        code = cli_main(list(argv))
        output = capsys.readouterr().out
        return code, output

    def fleet_argv(self, tmp_path, *extra):
        return (
            "fleet",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--variants",
            "BASE",
            "F+P+M+A",
            "--shards",
            "2",
            "--shard-cores",
            "2",
            "--tenants",
            "4",
            "--requests",
            "60",
            "--instructions",
            "1500",
            *extra,
        )

    def test_json_cold_then_warm(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = self.fleet_argv(tmp_path, "--json")
        code, cold_output = self.run_cli(capsys, *argv)
        assert code == 0
        cold = json.loads(cold_output)
        assert cold["command"] == "fleet"
        assert cold["cache"]["runs_simulated"] > 0
        assert len(cold["entries"]) == 2
        code, warm_output = self.run_cli(capsys, *argv)
        assert code == 0
        warm = json.loads(warm_output)
        assert warm["cache"]["runs_simulated"] == 0
        assert warm["cache"]["warm_from_disk"] > 0
        assert [entry["outcome"] for entry in warm["entries"]] == [
            entry["outcome"] for entry in cold["entries"]
        ]
        by_variant = {entry["variant"]: entry for entry in cold["entries"]}
        secured = by_variant["F+P+M+A"]["outcome"]
        assert sum(row["charged_purge_cycles"] for row in secured["per_shard"]) > 0
        base = by_variant["BASE"]["outcome"]
        assert sum(row["charged_purge_cycles"] for row in base["per_shard"]) == 0
        assert by_variant["BASE"]["admission"]["offered"] == 60

    def test_table_output_with_saturation_points(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, output = self.run_cli(
            capsys,
            *self.fleet_argv(tmp_path, "--load", "0.5", "1.0", "--router", "least_loaded"),
        )
        assert code == 0
        assert "Fleet serving" in output
        assert "saturation" in output
        assert "least_loaded" in output or "good/Mcyc" in output

    def test_unknown_registry_names_rejected(self, capsys):
        assert cli_main(["fleet", "--router", "random"]) == 2
        assert "unknown routing policy" in capsys.readouterr().err
        assert cli_main(["fleet", "--admission", "lottery"]) == 2
        assert "unknown admission policy" in capsys.readouterr().err
        assert cli_main(["fleet", "--client", "half_open"]) == 2
        assert "unknown client model" in capsys.readouterr().err
