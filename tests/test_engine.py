"""Tests for the experiment engine, serialization, and result store."""

import json
from dataclasses import fields, is_dataclass, replace
from enum import Enum

import pytest

from repro.analysis.engine import (
    CACHE_KEY_EXCLUSIONS,
    JOB_KINDS,
    EvaluationSettings,
    ExperimentResult,
    ExperimentSpec,
    FleetRunRequest,
    FleetShardRequest,
    PAPER_VARIANTS,
    ParallelRunner,
    RunRequest,
    ScenarioRequest,
    ServiceRunRequest,
    execute_request,
    request_for,
)
from repro.analysis.store import ResultStore
from repro import api
from repro.cli import main as cli_main
from repro.core import serialization
from repro.core.config import MI6Config
from repro.core.mitigations import config_for_spec, known_compositions, known_mitigations
from repro.core.serialization import (
    canonical_json,
    config_from_dict,
    config_to_dict,
    run_cache_key,
    run_from_dict,
    run_to_dict,
)

SMALL = EvaluationSettings(instructions=2500)


def runs_equal(first, second) -> bool:
    """Bit-identical comparison of two workload runs."""
    return run_to_dict(first) == run_to_dict(second)


def config_key(config):
    """The cache key of a gcc run on ``config``: a digest of its whole document."""
    return run_cache_key(config, "gcc", 2000, 2019)


class TestSerialization:
    def test_config_round_trips_for_every_variant(self):
        for variant in PAPER_VARIANTS:
            config = config_for_spec(variant)
            assert config_from_dict(config_to_dict(config)) == config

    def test_config_dict_is_json_compatible(self):
        encoded = json.dumps(config_to_dict(config_for_spec("F+P+M+A")))
        assert config_from_dict(json.loads(encoded)) == config_for_spec("F+P+M+A")

    def test_digest_is_stable_and_content_sensitive(self):
        first = config_for_spec("PART")
        second = config_for_spec("PART")
        assert config_key(first) == config_key(second)
        digests = {config_key(config_for_spec(v)) for v in PAPER_VARIANTS}
        assert len(digests) == len(PAPER_VARIANTS)
        tweaked = MI6Config(trap_interval_instructions=12_345)
        assert config_key(tweaked) != config_key(MI6Config())

    def test_run_round_trips_through_json(self):
        run = execute_request(
            request_for("FLUSH", "hmmer", EvaluationSettings(instructions=2000))
        )
        restored = run_from_dict(json.loads(json.dumps(run_to_dict(run))))
        assert restored.benchmark == run.benchmark
        assert restored.config_name == run.config_name
        assert restored.cycles == run.cycles
        assert restored.instructions == run.instructions
        assert dict(restored.result.stats.counters()) == dict(run.result.stats.counters())
        assert restored.result.branch_mpki == run.result.branch_mpki
        assert restored.result.flush_stall_cycles == run.result.flush_stall_cycles

    def test_settings_round_trip_and_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "1234")
        monkeypatch.setenv("REPRO_BENCH_SEED", "99")
        from_env = EvaluationSettings.from_environment()
        assert from_env.instructions == 1234
        assert from_env.seed == 99

    def test_every_keyed_field_moves_the_cache_key(self):
        # One request of each engine kind; changing any field outside
        # CACHE_KEY_EXCLUSIONS must change its key, and changing an
        # excluded field must not.
        config = MI6Config()
        requests = [
            RunRequest(config=config, benchmark="gcc", instructions=2000, seed=1),
            ScenarioRequest("spectre", config, seed=1),
            ServiceRunRequest("fifo", config),
            FleetShardRequest(
                policy="fifo", config=config, seed=1, shard_index=0, tenants=(0, 1),
                num_tenants=2, admission="deadline", client="open_loop", load=0.7,
                load_profile="poisson", num_cores=2, num_requests=10, queue_depth=4,
                slo_cycles=5000, think_factor=1.0, instructions=2000,
            ),
            FleetRunRequest("affinity", config),
        ]
        assert sorted(request.kind for request in requests) == sorted(JOB_KINDS)

        def changed(value):
            if isinstance(value, bool):
                return not value
            if isinstance(value, (int, float)):
                return value + 1
            if isinstance(value, str):
                # A run request takes registered benchmark names only.
                return "mcf" if value == "gcc" else value + "-other"
            if isinstance(value, tuple):
                return value + (2,)
            if isinstance(value, MI6Config):
                return replace(value, trap_interval_instructions=12_345)
            assert value is None
            return (("gcc", 1_000),)

        for request in requests:
            excluded = CACHE_KEY_EXCLUSIONS.get(type(request).__name__, {})
            for field in fields(request):
                moved = replace(request, **{field.name: changed(getattr(request, field.name))})
                label = f"{type(request).__name__}.{field.name}"
                if field.name in excluded:
                    assert moved.cache_key() == request.cache_key(), label
                else:
                    assert moved.cache_key() != request.cache_key(), label
        assert {
            name for owner in CACHE_KEY_EXCLUSIONS.values() for name in owner
        } == {"service_cycles"}


class TestResultStore:
    def test_disk_round_trip(self, tmp_path):
        request = request_for("BASE", "hmmer", SMALL)
        run = execute_request(request)
        store = ResultStore(tmp_path / "cache")
        store.put(request.cache_key(), run)

        fresh = ResultStore(tmp_path / "cache")
        restored = fresh.get(request.cache_key())
        assert restored is not None
        assert fresh.disk_hits == 1
        assert runs_equal(restored, run)
        # Second lookup is served from the memory layer.
        assert fresh.get(request.cache_key()) is restored
        assert fresh.memory_hits == 1

    def test_invalidates_on_config_change(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        request = request_for("BASE", "hmmer", SMALL)
        store.put(request.cache_key(), execute_request(request))

        changed = RunRequest(
            config=MI6Config(trap_interval_instructions=9_999),
            benchmark="hmmer",
            instructions=SMALL.instructions,
            seed=SMALL.seed,
        )
        assert changed.cache_key() != request.cache_key()
        assert ResultStore(tmp_path / "cache").get(changed.cache_key()) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        request = request_for("BASE", "hmmer", SMALL)
        key = request.cache_key()
        store.put(key, execute_request(request))
        path = store._path_for(key)
        path.write_text("{not json")
        assert ResultStore(tmp_path / "cache").get(key) is None
        assert not path.exists()  # corrupt entry dropped
        # A well-formed document filed under another key's name, or
        # another kind's, is dropped and counted as a miss the same way.
        store.put(key, store.get(key))
        store.put_payload("scenario", key, {"leaked": True})
        scenario = store._payload_path("scenario", key)
        other = "0" * 64
        for source, copy, lookup in (
            (path, store._path_for(other), lambda r: r.get(other)),
            (scenario, store._payload_path("scenario", other), lambda r: r.get_payload("scenario", other)),
            (scenario, store._payload_path("service", key), lambda r: r.get_payload("service", key)),
        ):
            copy.write_bytes(source.read_bytes())
            reader = ResultStore(tmp_path / "cache")
            assert lookup(reader) is None
            assert (reader.disk_hits, reader.misses) == (0, 1)
            assert not copy.exists()
        reader = ResultStore(tmp_path / "cache")
        assert reader.get(key) is not None
        assert reader.get_payload("scenario", key) == {"leaked": True}

    def test_undecodable_document_is_a_miss_and_is_rewritten(self, tmp_path):
        # A document-layer entry that parses but does not decode (here a
        # required outcome field is gone) is dropped and re-simulated,
        # exactly as a damaged run entry is, instead of failing every
        # later request for it.
        request = api.ScenarioRequest(
            scenarios=("branch_residue",), variants=("BASE",), seeds=(2019,)
        )
        settings = EvaluationSettings(seed=2019)
        first = api.Session(ResultStore(tmp_path), jobs=1, settings=settings).run(request)
        (path,) = tmp_path.glob("scenario-v*.json")
        document = json.loads(path.read_text())
        del document["payload"]["cycles"]
        path.write_text(json.dumps(document))

        store = ResultStore(tmp_path)
        again = api.Session(store, jobs=1, settings=settings).run(request)
        assert [entry.provenance.origin for entry in again] == ["cold"]
        assert again.entries[0].value == first.entries[0].value
        assert (store.misses, store.disk_hits) == (1, 0)
        assert "cycles" in json.loads(path.read_text())["payload"]

    def test_memory_only_store_never_touches_disk(self):
        store = ResultStore.in_memory()
        request = request_for("BASE", "hmmer", SMALL)
        run = execute_request(request)
        store.put(request.cache_key(), run)
        assert store.get(request.cache_key()) is run
        assert store.directory is None


class TestParallelRunner:
    SPEC = ExperimentSpec(
        variants=("BASE", "ARB", "NONSPEC"),
        benchmarks=("hmmer", "libquantum"),
        instructions=2500,
    )

    def test_serial_and_parallel_sweeps_are_bit_identical(self):
        requests = self.SPEC.requests()
        serial = ParallelRunner(ResultStore.in_memory(), jobs=1).run(requests)
        parallel = ParallelRunner(ResultStore.in_memory(), jobs=2).run(requests)
        assert len(serial) == len(requests) == 6
        for serial_run, parallel_run in zip(serial, parallel):
            assert runs_equal(serial_run, parallel_run)

    def test_warm_start_from_disk(self, tmp_path):
        requests = self.SPEC.requests()
        cold = ParallelRunner(ResultStore(tmp_path / "cache"), jobs=2)
        cold_runs = cold.run(requests)
        assert cold.last_origins == ["cold"] * len(requests)
        assert cold.store.misses == len(requests)

        warm = ParallelRunner(ResultStore(tmp_path / "cache"), jobs=2)
        warm_runs = warm.run(requests)
        assert warm.last_origins == ["warm"] * len(requests)
        assert (warm.store.disk_hits, warm.store.misses) == (len(requests), 0)
        for cold_run, warm_run in zip(cold_runs, warm_runs):
            assert runs_equal(cold_run, warm_run)

    def test_duplicate_requests_simulate_once(self):
        runner = ParallelRunner(ResultStore.in_memory())
        request = request_for("BASE", "hmmer", SMALL)
        first, second = runner.run([request, request])
        assert first is second
        assert runner.last_origins == ["cold", "cold"]
        # Store counters see one miss (one simulation), not one per position.
        assert runner.store.misses == 1

    def test_nonspec_truncation_preserved(self):
        requests = {
            request.config.name: request for request in self.SPEC.requests()
        }
        # NONSPEC runs max(2000, instructions // 2) = 2000 for this spec.
        assert requests["NONSPEC"].instructions == 2000
        assert requests["BASE"].instructions == 2500

    def test_experiment_result_indexing(self):
        requests = self.SPEC.requests()
        result = ExperimentResult(
            requests=requests, runs=ParallelRunner(ResultStore.in_memory()).run(requests)
        )
        run = result.run_for("ARB", "libquantum")
        assert run.config_name == "ARB"
        assert run.benchmark == "libquantum"
        assert result.overhead_percent("ARB", "libquantum") > 0
        # NONSPEC committed fewer instructions: CPI-based comparison.
        assert result.overhead_percent("NONSPEC", "hmmer") != 0


class TestSpec:
    def test_defaults_to_full_grid(self, monkeypatch):
        # Specs read no environment: the session settings fill unset
        # request seeds and run lengths instead.
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "1234")
        monkeypatch.setenv("REPRO_BENCH_SEED", "99")
        spec = ExperimentSpec()
        assert len(spec.variants) == 7
        assert len(spec.benchmarks) == 11
        assert spec.seeds == (2019,)
        assert spec.instructions == 30_000
        assert len(spec.requests()) == 77

    def test_sequences_are_held_as_tuples(self):
        spec = ExperimentSpec(variants=["BASE"], benchmarks=["gcc"], seeds=[1, 2])
        assert (spec.variants, spec.benchmarks, spec.seeds) == (("BASE",), ("gcc",), (1, 2))

    def test_construction_rejects_explicitly_empty_selections(self):
        with pytest.raises(ValueError, match="variants"):
            ExperimentSpec(variants=[])
        with pytest.raises(ValueError, match="benchmarks"):
            ExperimentSpec(benchmarks=[])
        with pytest.raises(ValueError, match="seeds"):
            ExperimentSpec(seeds=[])
        # An empty grid used to build and expand into no requests at all.
        with pytest.raises(ValueError, match="variants must not be empty"):
            ExperimentSpec(variants=(), benchmarks=("gcc",), instructions=0)
        for instructions in (0, -5):
            with pytest.raises(ValueError, match="instructions must be positive"):
                ExperimentSpec(instructions=instructions)
            with pytest.raises(ValueError, match="instructions must be positive"):
                request_for("NONSPEC", "gcc", EvaluationSettings(instructions=instructions))
            with pytest.raises(ValueError, match="instructions must be positive"):
                RunRequest(config=MI6Config(), benchmark="gcc", instructions=instructions)

    def test_empty_or_none_axis_says_to_omit_it(self):
        # Specs take no None: an omitted axis takes the default.
        with pytest.raises(ValueError) as empty:
            ExperimentSpec(variants=[])
        assert str(empty.value) == "variants must not be empty (omit it for the default)"
        with pytest.raises(ValueError) as none:
            ExperimentSpec(variants=None)
        assert str(none.value) == "variants must be a sequence (omit it for the default)"

    def test_requests_expand_in_deterministic_order(self):
        spec = ExperimentSpec(
            variants=("BASE", "ARB"),
            benchmarks=("gcc", "mcf"),
            seeds=(1, 2),
            instructions=2500,
        )
        cells = [(r.config.name, r.benchmark, r.seed) for r in spec.requests()]
        assert cells == [
            ("BASE", "gcc", 1),
            ("BASE", "gcc", 2),
            ("BASE", "mcf", 1),
            ("BASE", "mcf", 2),
            ("ARB", "gcc", 1),
            ("ARB", "gcc", 2),
            ("ARB", "mcf", 1),
            ("ARB", "mcf", 2),
        ]


def _fresh_encoding(value):
    """Field-by-field encoding with no memo: the reference for ``config_to_dict``."""
    if isinstance(value, Enum):
        return value.name
    if is_dataclass(value):
        return {f.name: _fresh_encoding(getattr(value, f.name)) for f in fields(value)}
    return value


def _encodes(document, config) -> bool:
    """Whether ``document`` is ``config``'s encoding, leaf types included (``True`` is not ``1``)."""
    fresh = _fresh_encoding(config)
    return document == fresh and canonical_json(document) == canonical_json(fresh)


class TestConfigDocumentMemo:
    @pytest.mark.parametrize(
        "spec",
        ["BASE"] + [mitigation.name for mitigation in known_mitigations()] + list(known_compositions()),
    )
    def test_every_spec_and_composition_encodes_as_a_fresh_encoding(self, spec):
        first = config_to_dict(config_for_spec(spec))
        again = config_to_dict(config_for_spec(spec))
        assert again is first
        assert _encodes(again, config_for_spec(spec))

    def test_equal_configs_with_other_leaf_types_keep_their_own_documents(self):
        canonical = MI6Config(flush_on_context_switch=True)
        spelled = MI6Config(flush_on_context_switch=1, num_cores=16.0)
        assert canonical == spelled and hash(canonical) == hash(spelled)
        for config in (canonical, spelled, canonical, spelled):
            assert _encodes(config_to_dict(config), config)
        assert config_key(canonical) != config_key(spelled)

    def test_memo_is_bounded(self):
        assert serialization._config_document.cache_info().maxsize is not None

    def test_shared_documents_stay_unchanged_through_every_command_and_wire_kind(
        self, capsys, tmp_path, monkeypatch
    ):
        seen = []
        memo = serialization._config_document

        def recording(config, spelling):
            document = memo(config, spelling)
            seen.append((config, document))
            return document

        monkeypatch.setattr(serialization, "_config_document", recording)
        store = ("--cache-dir", str(tmp_path / "cache"), "--jobs", "1", "--json")
        variants = ("--variants", "BASE", "F+P+M+A")
        commands = [
            ("sweep", *variants, "--benchmarks", "hmmer", "--instructions", "2000"),
            ("attack", "prime_probe", *variants),
            ("serve", *variants, "--requests", "40", "--tenants", "4", "--num-cores", "2",
             "--churn-every", "5", "--instructions", "1500"),
            ("fleet", *variants, "--load", "0.8", "--tenants", "4", "--shards", "2",
             "--requests", "60", "--churn-every", "5", "--instructions", "1500"),
        ]
        for command in commands:
            simulated = []
            for _ in ("cold", "warm"):
                assert cli_main([*command, *store]) == 0
                simulated.append(json.loads(capsys.readouterr().out)["cache"]["runs_simulated"])
            assert simulated[0] > 0 and simulated[1] == 0
        wire_requests = [
            api.WorkloadRequest(benchmark="hmmer", config=config_for_spec("F+P+M+A")),
            api.SweepRequest(variants=("BASE", "F+P+M+A"), benchmarks=("hmmer",)),
            api.ScenarioRequest(scenarios=("prime_probe",), variants=("F+P+M+A",)),
            api.ServiceRequest(variants=("F+P+M+A",), churn_every=5),
            api.FleetRequest(variants=("F+P+M+A",), churn_every=5),
        ]
        for request in wire_requests:
            assert api.request_from_wire(request.to_wire()) == request
            assert api.request_from_wire(json.loads(json.dumps(request.to_wire()))) == request
        assert len({id(document) for _, document in seen}) > 1
        for config, document in seen:
            assert _encodes(document, config)
