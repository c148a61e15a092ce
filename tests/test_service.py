"""Tests for the enclave-serving subsystem (repro/service)."""

import json
from dataclasses import replace

import pytest

from repro.analysis.engine import (
    ServiceRunRequest,
    ServiceSpec,
    execute_service_request,
    resolve_service_cycles,
)
from repro.analysis.figures import SERVICE_TABLE_TITLE, service_latency_rows
from repro.analysis.report import format_service_table
from repro.analysis.store import ResultStore
from repro.api import ServiceRequest, Session
from repro.cli import main as cli_main
from repro.common.errors import ConfigurationError
from repro.core.mitigations import config_for_spec
from repro.obs import tracing
from repro.service import (
    LOAD_PROFILES,
    ServiceOutcome,
    create_policy,
    generate_arrivals,
    percentile,
    policy_names,
    register_policy,
    run_service,
    summarize_latencies,
    tenant_benchmarks,
)
from repro.service.schedulers import FifoPolicy

#: Small fleet shared by most tests: six tenants contending for two
#: cores keeps every policy busy while the suite stays fast.
SMALL = dict(num_cores=2, num_tenants=6, num_requests=60, instructions=1_500)


def small_request(policy="fifo", spec="F+P+M+A", seed=7, **overrides):
    from repro.analysis.engine import evaluation_config

    fields = dict(SMALL)
    fields.update(overrides)
    return ServiceRunRequest(
        policy=policy,
        config=evaluation_config(spec, fields["instructions"]),
        seed=seed,
        **fields,
    )


class TestArrivals:
    @pytest.mark.parametrize("profile", LOAD_PROFILES)
    def test_profiles_are_deterministic_and_ordered(self, profile):
        first = generate_arrivals(
            profile, num_requests=50, num_tenants=4, mean_gap_cycles=100, seed=3
        )
        second = generate_arrivals(
            profile, num_requests=50, num_tenants=4, mean_gap_cycles=100, seed=3
        )
        assert first == second
        assert len(first) == 50
        assert all(later.time >= earlier.time for earlier, later in zip(first, first[1:]))
        assert all(0 <= arrival.tenant < 4 for arrival in first)

    def test_profiles_differ_and_seeds_differ(self):
        base = generate_arrivals(
            "poisson", num_requests=40, num_tenants=4, mean_gap_cycles=100, seed=3
        )
        assert base != generate_arrivals(
            "poisson", num_requests=40, num_tenants=4, mean_gap_cycles=100, seed=4
        )
        assert base != generate_arrivals(
            "bursty", num_requests=40, num_tenants=4, mean_gap_cycles=100, seed=3
        )

    def test_bursty_concentrates_tenants(self):
        arrivals = generate_arrivals(
            "bursty", num_requests=80, num_tenants=8, mean_gap_cycles=200, seed=5
        )
        repeats = sum(
            1 for a, b in zip(arrivals, arrivals[1:]) if a.tenant == b.tenant
        )
        uniform = generate_arrivals(
            "poisson", num_requests=80, num_tenants=8, mean_gap_cycles=200, seed=5
        )
        uniform_repeats = sum(
            1 for a, b in zip(uniform, uniform[1:]) if a.tenant == b.tenant
        )
        assert repeats > uniform_repeats

    @pytest.mark.parametrize("profile", LOAD_PROFILES)
    def test_profiles_realize_the_configured_mean_gap(self, profile):
        # Offered load must be comparable across profiles: the realised
        # mean inter-arrival gap tracks mean_gap_cycles within a few
        # percent (diurnal in particular normalises by E[1/rate]).
        arrivals = generate_arrivals(
            profile, num_requests=4000, num_tenants=4, mean_gap_cycles=100, seed=11
        )
        mean_gap = arrivals[-1].time / len(arrivals)
        assert 90 <= mean_gap <= 110, (profile, mean_gap)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown load profile"):
            generate_arrivals(
                "weekly", num_requests=10, num_tenants=2, mean_gap_cycles=10, seed=1
            )


class TestMetrics:
    def test_percentiles_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.95) == 95
        assert percentile(values, 0.99) == 99
        assert percentile([7], 0.99) == 7
        assert percentile([], 0.5) == 0
        # Non-integer percents use the exact nearest-rank ceiling.
        assert percentile(values, 0.290) == 29
        assert percentile(values, 0.999) == 100

    def test_summary_fields(self):
        summary = summarize_latencies([4, 1, 3, 2])
        assert summary["min"] == 1 and summary["max"] == 4
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2


class TestPolicies:
    def test_registry_ships_three_policies(self):
        assert policy_names() == ["fifo", "affinity", "batch"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheduling policy"):
            create_policy("shortest-job-first")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_policy("fifo", FifoPolicy, "again")


class TestRunService:
    def test_bit_identical_repeats_and_json_roundtrip(self):
        request = small_request()
        first = execute_service_request(request)
        second = execute_service_request(request)
        assert first.to_dict() == second.to_dict()
        assert ServiceOutcome.from_dict(
            json.loads(json.dumps(first.to_dict()))
        ).to_dict() == first.to_dict()

    def test_all_requests_complete(self):
        outcome = execute_service_request(small_request(policy="affinity"))
        assert outcome.requests == SMALL["num_requests"]
        assert outcome.latency["p99"] >= outcome.latency["p50"] > 0
        assert 0.0 < outcome.utilization <= 1.0

    def test_purge_charging_follows_flush(self):
        cycles = resolve_service_cycles(small_request(spec="BASE"))
        base = run_service(
            config_for_spec("BASE"), "fifo", service_cycles=cycles, seed=7, **SMALL
        )
        # The monitor purges on every schedule/deschedule regardless of
        # variant (functional truth), but only FLUSH machines pay it.
        assert base.purge_count == 2 * SMALL["num_requests"]
        assert base.purge_stall_cycles == 512 * base.purge_count
        assert base.charged_purge_cycles == 0
        secured = execute_service_request(small_request(policy="fifo"))
        assert secured.charged_purge_cycles == 512 * secured.purge_count
        assert secured.purge_share > 0.0

    def test_policy_ordering_on_flush_machine(self):
        outcomes = {
            policy: execute_service_request(small_request(policy=policy))
            for policy in policy_names()
        }
        # fifo releases the core after every request: maximal switches,
        # maximal purge charge; affinity/batch amortise.
        assert outcomes["fifo"].switches == SMALL["num_requests"]
        for lazy in ("affinity", "batch"):
            assert outcomes[lazy].switches < outcomes["fifo"].switches
            assert (
                outcomes[lazy].charged_purge_cycles
                < outcomes["fifo"].charged_purge_cycles
            )
            assert outcomes[lazy].affinity_hits > 0
            # Mean latency orders robustly at this scale (tails can tip
            # either way: strict FCFS trades throughput for tail
            # fairness); the purge-cost ordering above is the claim.
            assert (
                outcomes[lazy].latency["mean"] < outcomes["fifo"].latency["mean"]
            )

    def test_flush_tail_penalty_over_base(self):
        base_cycles = resolve_service_cycles(small_request(spec="BASE"))
        base = run_service(
            config_for_spec("BASE"), "fifo", service_cycles=base_cycles, seed=7, **SMALL
        )
        # Same kernel costs, FLUSH-only machine: the tail penalty is
        # purely the purge charge at the enclave boundary.
        flush = run_service(
            config_for_spec("FLUSH"), "fifo", service_cycles=base_cycles, seed=7, **SMALL
        )
        assert flush.latency["p99"] > base.latency["p99"]
        assert flush.charged_purge_cycles > 0

    def test_churn_charges_flush_penalty_on_mi6(self):
        with tracing() as tracer:
            secured = execute_service_request(small_request(policy="batch", churn_every=5))
        assert secured.charged_flush_cycles > 0
        # Churn traces as the fleet's `teardown` span: the scrub alone,
        # with no DRAM-wipe or measurement charge on a single machine.
        teardowns = [span for span in tracer.sim_spans() if span.name == "teardown"]
        charges = [dict(span.args) for span in teardowns]
        assert sum(span.duration for span in teardowns) == secured.charged_flush_cycles
        assert [charge["scrub_cycles"] for charge in charges] == [
            span.duration for span in teardowns
        ]
        assert all(charge["wipe_cycles"] == charge["measurement_cycles"] == 0 for charge in charges)
        base_cycles = resolve_service_cycles(small_request(spec="BASE"))
        base = run_service(
            config_for_spec("BASE"),
            "batch",
            service_cycles=base_cycles,
            seed=7,
            churn_every=5,
            **SMALL,
        )
        assert base.charged_flush_cycles == 0

    def test_per_core_audit_consistent(self):
        outcome = execute_service_request(small_request(policy="affinity"))
        assert len(outcome.per_core) == SMALL["num_cores"]
        assert (
            sum(row["purge_count"] for row in outcome.per_core) == outcome.purge_count
        )
        assert (
            sum(row["charged_purge_cycles"] for row in outcome.per_core)
            == outcome.charged_purge_cycles
        )

    def test_missing_service_cycles_rejected(self):
        with pytest.raises(ConfigurationError, match="missing benchmarks"):
            run_service(
                config_for_spec("BASE"), "fifo", service_cycles={}, seed=7, **SMALL
            )

    def test_too_many_tenants_rejected(self):
        with pytest.raises(ConfigurationError, match="DRAM regions"):
            execute_service_request(small_request(num_tenants=63))

    def test_zero_tenants_rejected(self):
        # Without the check the mean service demand divides by zero.
        with pytest.raises(ConfigurationError, match="num_tenants must be positive"):
            run_service(
                config_for_spec("BASE"),
                "fifo",
                service_cycles={},
                seed=7,
                **dict(SMALL, num_tenants=0),
            )

    def test_negative_churn_rejected(self):
        # ``tally % churn_every == 0`` holds for every tally when the
        # period is -1, so a direct request would churn on every
        # completion instead of failing.
        cycles = {name: 2_000 for name in tenant_benchmarks(SMALL["num_tenants"])}
        request = replace(
            small_request(churn_every=-1), service_cycles=tuple(sorted(cycles.items()))
        )
        with pytest.raises(ConfigurationError, match="churn_every must be non-negative"):
            execute_service_request(request)


class TestEngineRequests:
    def test_cache_key_distinguishes_every_axis(self):
        base = small_request()
        keys = {base.cache_key()}
        for variation in (
            small_request(policy="batch"),
            small_request(spec="BASE"),
            small_request(seed=8),
            small_request(load=0.9),
            small_request(load_profile="bursty"),
            small_request(num_requests=61),
            small_request(churn_every=4),
        ):
            keys.add(variation.cache_key())
        assert len(keys) == 8

    def test_service_cycles_do_not_change_the_key(self):
        request = small_request()
        table = tuple(sorted(resolve_service_cycles(request).items()))
        from dataclasses import replace

        assert replace(request, service_cycles=table).cache_key() == request.cache_key()

    def test_payload_roundtrip(self):
        request = small_request(load_profile="diurnal", churn_every=3)
        table = tuple(sorted(resolve_service_cycles(request).items()))
        from dataclasses import replace

        shipped = replace(request, service_cycles=table)
        assert ServiceRunRequest.from_payload(shipped.to_payload()) == shipped

    def test_workload_requests_cover_tenant_benchmarks(self):
        request = small_request(num_tenants=13)
        benchmarks = [workload.benchmark for workload in request.workload_requests()]
        assert set(benchmarks) == set(tenant_benchmarks(13))
        assert len(benchmarks) == len(set(benchmarks))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            ServiceSpec(policies=["round-robin"])
        # Direct construction used to skip validation: this spec built
        # and expanded into two requests naming an unknown policy.
        with pytest.raises(ValueError, match=r"unknown scheduling policy\(ies\): round-robin"):
            ServiceSpec(policies=("round-robin",))
        with pytest.raises(ValueError, match="unknown load profile"):
            ServiceSpec(load_profile="weekend")
        with pytest.raises(ValueError, match="must not be empty"):
            ServiceSpec(policies=[])
        with pytest.raises(ValueError, match="positive"):
            ServiceSpec(loads=[0.0])
        with pytest.raises(ValueError, match="instructions must be positive"):
            ServiceSpec(instructions=0)
        with pytest.raises(ValueError, match="churn_every must be non-negative"):
            ServiceSpec(churn_every=-1)
        spec = ServiceSpec(policies=["fifo"], loads=[0.5, 0.9])
        assert len(spec.requests()) == 1 * 2 * 2 * 1


class TestSessionServe:
    @pytest.fixture()
    def request_fields(self):
        return dict(
            policies=["fifo", "affinity"],
            variants=["BASE", "F+P+M+A"],
            num_cores=2,
            num_tenants=4,
            requests=50,
            instructions=1_500,
        )

    def test_entries_keys_provenance_and_audit(self, request_fields):
        session = Session(ResultStore.in_memory())
        result = session.run(ServiceRequest(**request_fields))
        assert len(result.entries) == 4
        assert result.cold_count == 4
        entry = result.entry("fifo", "F+P+M+A", 0.7, session.settings.seed)
        assert entry.provenance.purge["purge_count"] > 0
        assert entry.provenance.purge["per_core"]
        assert entry.value.charged_purge_cycles == entry.provenance.purge[
            "charged_purge_cycles"
        ]
        assert [outcome.policy for outcome in result.service_outcomes] == [
            "fifo",
            "fifo",
            "affinity",
            "affinity",
        ]

    def test_warm_start_from_disk(self, request_fields, tmp_path):
        store_dir = tmp_path / "cache"
        cold_session = Session(ResultStore(store_dir))
        cold = cold_session.run(ServiceRequest(**request_fields))
        assert cold.cold_count == 4
        warm_session = Session(ResultStore(store_dir))
        warm = warm_session.run(ServiceRequest(**request_fields))
        assert warm.warm_count == 4
        # Nothing simulated on the warm pass: the workload cycle table
        # and the serving outcomes both come off disk.
        assert warm_session.store.misses == 0
        assert [entry.value.to_dict() for entry in warm] == [
            entry.value.to_dict() for entry in cold
        ]

    def test_mixed_warm_cold_keeps_all_entries_and_keys(self, request_fields):
        # Regression: the runner's provenance snapshot used to be
        # truncated to the cold (pending) keys, silently dropping
        # entries whenever a request was partially warm.
        session = Session(ResultStore.in_memory())
        session.run(ServiceRequest(**{**request_fields, "policies": ["fifo"]}))
        mixed = session.run(
            ServiceRequest(**{**request_fields, "policies": ["fifo", "affinity"]})
        )
        assert len(mixed.entries) == 4
        assert mixed.warm_count == 2 and mixed.cold_count == 2
        assert len({entry.provenance.cache_key for entry in mixed.entries}) == 4
        for entry in mixed.entries:
            assert entry.value.policy == entry.key[0]
            assert entry.value.variant == entry.key[1]

    def test_serial_equals_parallel(self, request_fields):
        serial = Session(ResultStore.in_memory(), jobs=1).run(
            ServiceRequest(**request_fields)
        )
        parallel = Session(ResultStore.in_memory(), jobs=2).run(
            ServiceRequest(**request_fields)
        )
        assert [entry.value.to_dict() for entry in serial] == [
            entry.value.to_dict() for entry in parallel
        ]

    def test_figures_rows_and_table_render(self, request_fields):
        session = Session(ResultStore.in_memory())
        result = session.run(ServiceRequest(**request_fields))
        rows = service_latency_rows(result.service_outcomes)
        assert len(rows) == 4
        table = format_service_table(SERVICE_TABLE_TITLE, rows)
        assert "policy" in table and "p99" in table and "purge%" in table
        fifo_row = rows[1]
        assert fifo_row["policy"] == "fifo" and fifo_row["variant"] == "F+P+M+A"
        assert fifo_row["purge_share"] > 0.0


class TestServeCli:
    def run_cli(self, capsys, *argv):
        code = cli_main(list(argv))
        output = capsys.readouterr().out
        return code, output

    def test_json_cold_then_warm(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # conftest.py exports REPRO_CACHE=off, so the disk layer must be
        # requested explicitly to exercise the CLI's warm start.
        argv = (
            "serve",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--policy",
            "fifo",
            "affinity",
            "--variants",
            "BASE",
            "F+P+M+A",
            "--requests",
            "50",
            "--tenants",
            "4",
            "--num-cores",
            "2",
            "--instructions",
            "1500",
            "--json",
        )
        code, cold_output = self.run_cli(capsys, *argv)
        assert code == 0
        cold = json.loads(cold_output)
        assert cold["command"] == "serve"
        assert cold["cache"]["runs_simulated"] > 0
        code, warm_output = self.run_cli(capsys, *argv)
        assert code == 0
        warm = json.loads(warm_output)
        assert warm["cache"]["runs_simulated"] == 0
        assert warm["cache"]["warm_from_disk"] > 0
        assert [entry["outcome"] for entry in warm["entries"]] == [
            entry["outcome"] for entry in cold["entries"]
        ]
        by_variant = {
            (entry["policy"], entry["variant"]): entry["outcome"]
            for entry in cold["entries"]
        }
        assert by_variant[("fifo", "F+P+M+A")]["charged_purge_cycles"] > 0
        assert by_variant[("fifo", "BASE")]["charged_purge_cycles"] == 0

    def test_table_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, output = self.run_cli(
            capsys,
            "serve",
            "--policy",
            "batch",
            "--variants",
            "FLUSH",
            "--requests",
            "40",
            "--tenants",
            "3",
            "--num-cores",
            "2",
            "--instructions",
            "1500",
        )
        assert code == 0
        assert "Enclave serving" in output
        assert "batch" in output
        assert "warm from disk" in output

    def test_unknown_policy_and_profile_rejected(self, capsys):
        assert cli_main(["serve", "--policy", "lifo"]) == 2
        assert "unknown scheduling policy" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli_main(["serve", "--profile", "weekend"])
