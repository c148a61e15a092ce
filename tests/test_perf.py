"""Tests for the perf subsystem: profiler, pinned suite, recorder, CLI."""

import json
from datetime import date
from pathlib import Path

import pytest

from repro.analysis.engine import EvaluationSettings
from repro.api.requests import WorkloadRequest
from repro.cli import main
from repro.perf import (
    BENCH_SCHEMA_VERSION,
    COMMIT_RECORD_NAME,
    BenchRecorder,
    PINNED_SEED,
    PINNED_SERVICE_CASE,
    PINNED_SUITE,
    ProfileReport,
    Profiler,
    commit_record_path,
    compare_to_baseline,
    load_bench,
    pinned_service_request,
    run_service_case,
    run_suite,
    suite_requests,
)
from repro.perf.recorder import BENCH_KIND, latest_bench

TINY = 400  # instructions per run: enough to exercise the kernel, fast in CI


class TestProfiler:
    def test_profile_reports_throughput(self):
        profiler = Profiler(EvaluationSettings(instructions=TINY, seed=2019))
        report = profiler.profile(WorkloadRequest(variant="BASE", benchmark="hmmer"))
        assert report.instructions == TINY
        assert report.cycles > 0
        assert report.wall_seconds > 0.0
        assert report.instructions_per_second > 0.0
        assert report.cycles_per_second > report.instructions_per_second * 0.5
        assert report.component_shares == {}

    def test_component_shares_sum_to_one(self):
        profiler = Profiler(EvaluationSettings(instructions=TINY, seed=2019))
        report = profiler.profile(
            WorkloadRequest(variant="BASE", benchmark="hmmer"), components=True
        )
        assert report.component_shares
        assert sum(report.component_shares.values()) == pytest.approx(1.0)
        # The simulator kernel must dominate: mem+ooo+workloads together.
        kernel = sum(
            report.component_shares.get(component, 0.0)
            for component in ("mem", "ooo", "workloads")
        )
        assert kernel > 0.3

    def test_rejects_unknown_request_shape(self):
        with pytest.raises(TypeError):
            Profiler().profile("not a request")  # type: ignore[arg-type]

    def test_zero_wall_guards(self):
        report = ProfileReport(
            benchmark="b", config_name="c", instructions=1, cycles=1, wall_seconds=0.0
        )
        assert report.instructions_per_second == 0.0
        assert report.cycles_per_second == 0.0


class TestSuite:
    def test_pinned_composition_is_stable(self):
        # The trajectory is only meaningful if the suite never drifts.
        assert PINNED_SUITE == (
            ("BASE", "hmmer"),
            ("PART+ARB", "libquantum"),
            ("F+P+M+A", "mcf"),
        )
        assert PINNED_SEED == 2019

    def test_suite_requests_pin_seed_and_length(self):
        requests = suite_requests(instructions=TINY)
        assert len(requests) == len(PINNED_SUITE)
        assert all(request.seed == PINNED_SEED for request in requests)
        assert {request.instructions for request in requests} == {TINY}

    def test_run_suite_aggregates(self):
        result = run_suite(instructions=TINY, cases=(("BASE", "hmmer"),))
        assert len(result.measurements) == 1
        measurement = result.measurements[0]
        assert measurement.variant == "BASE"
        assert len(measurement.cache_key) == 64
        assert len(measurement.config_digest) == 64
        assert result.total_instructions == TINY
        assert result.instructions_per_second > 0.0


class TestServiceCase:
    def test_pinned_case_is_stable(self):
        assert PINNED_SERVICE_CASE["policy"] == "fifo"
        assert PINNED_SERVICE_CASE["spec"] == "F+P+M+A"
        request = pinned_service_request()
        assert request.seed == PINNED_SEED
        assert request.num_requests == PINNED_SERVICE_CASE["num_requests"]
        assert len(request.cache_key()) == 64

    def test_measures_event_loop_throughput(self):
        measurement = run_service_case()
        assert measurement.requests == PINNED_SERVICE_CASE["num_requests"]
        assert measurement.wall_seconds > 0.0
        assert measurement.requests_per_second > 0.0
        assert measurement.outcome.charged_purge_cycles > 0
        assert measurement.cache_key == pinned_service_request().cache_key()

    def test_components_cover_the_serving_layer(self):
        measurement = run_service_case(components=True)
        shares = measurement.component_shares
        assert shares, "components=True must produce time shares"
        # The event loop's own packages must be visible, not just the
        # kernel packages it leans on for cycle resolution.
        assert "service" in shares
        assert sum(shares.values()) == pytest.approx(1.0)
        # The shares travel into the BENCH record's service section.
        result = run_suite(instructions=TINY, cases=(("BASE", "hmmer"),))
        record = BenchRecorder().build_record(
            result, calibration=10.0, sha="svc", service=measurement
        )
        assert record["service"]["component_shares"] == shares

    def test_components_default_off(self):
        assert run_service_case().component_shares == {}

    def test_record_carries_and_gates_service(self, tmp_path):
        recorder = BenchRecorder(tmp_path)
        result = run_suite(instructions=TINY, cases=(("BASE", "hmmer"),))
        measurement = run_service_case()
        record = recorder.build_record(
            result, calibration=10.0, sha="svc", service=measurement
        )
        service = record["service"]
        assert service["requests_per_second"] == pytest.approx(
            measurement.requests_per_second
        )
        assert service["normalized_throughput"] == pytest.approx(
            measurement.requests_per_second / 10.0
        )
        # A kernel-healthy record whose event loop collapsed must trip
        # the gate through the service ratio alone.
        slow = json.loads(json.dumps(record))
        slow["service"]["normalized_throughput"] /= 10.0
        comparison = compare_to_baseline(slow, record)
        assert comparison.service_ratio == pytest.approx(0.1)
        assert comparison.service_regressed
        assert comparison.regressed
        # An old baseline without a service section gates the kernel only.
        legacy = json.loads(json.dumps(record))
        del legacy["service"]
        comparison = compare_to_baseline(record, legacy)
        assert comparison.service_ratio is None
        assert not comparison.regressed
        # A baseline with a different pinned service case is not comparable.
        foreign = json.loads(json.dumps(record))
        foreign["service"]["cache_key"] = "0" * 64
        with pytest.raises(ValueError, match="service cache key"):
            compare_to_baseline(record, foreign)


class TestRecorder:
    def _result(self):
        return run_suite(instructions=TINY, cases=(("BASE", "hmmer"),))

    def test_write_and_load_roundtrip(self, tmp_path):
        recorder = BenchRecorder(tmp_path)
        path = recorder.write(self._result(), calibration=10.0, sha="abc123")
        assert path.name == f"BENCH_{date.today().isoformat()}.json"
        record = load_bench(path)
        assert record["schema"] == BENCH_SCHEMA_VERSION
        assert record["kind"] == BENCH_KIND
        assert record["git_sha"] == "abc123"
        assert record["seed"] == PINNED_SEED
        assert record["instructions"] == TINY
        assert record["slow_path"] is False
        assert record["aggregate"]["instructions_per_second"] > 0.0
        assert record["aggregate"]["normalized_throughput"] == pytest.approx(
            record["aggregate"]["instructions_per_second"] / 10.0
        )
        run = record["runs"][0]
        assert run["variant"] == "BASE"
        assert len(run["config_digest"]) == 64
        assert latest_bench(tmp_path) == path

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "BENCH_bogus.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError):
            load_bench(path)

    @staticmethod
    def _record(normalized, raw=1000.0):
        return {
            "aggregate": {
                "normalized_throughput": normalized,
                "instructions_per_second": raw,
            }
        }

    def test_compare_flags_regression(self):
        comparison = compare_to_baseline(self._record(70.0), self._record(100.0))
        assert comparison.ratio == pytest.approx(0.7)
        assert comparison.regressed

    def test_compare_accepts_small_dip(self):
        comparison = compare_to_baseline(self._record(90.0), self._record(100.0))
        assert not comparison.regressed

    def test_compare_threshold_is_configurable(self):
        comparison = compare_to_baseline(
            self._record(90.0), self._record(100.0), max_regression=0.05
        )
        assert comparison.regressed
        assert comparison.max_regression == pytest.approx(0.05)

    def test_compare_rejects_different_work(self, tmp_path):
        # Ratios between records that measured different work (run
        # length, seed, kernel) are meaningless and must be refused.
        recorder = BenchRecorder(tmp_path)
        result = run_suite(instructions=TINY, cases=(("BASE", "hmmer"),))
        record = recorder.build_record(result, calibration=10.0, sha="x")
        for field, other in (
            ("instructions", TINY * 2),
            ("seed", 7),
            ("slow_path", True),
        ):
            baseline = dict(record)
            baseline[field] = other
            with pytest.raises(ValueError):
                compare_to_baseline(record, baseline)

    def test_compare_rejects_different_suite_keys(self, tmp_path):
        recorder = BenchRecorder(tmp_path)
        result = run_suite(instructions=TINY, cases=(("BASE", "hmmer"),))
        record = recorder.build_record(result, calibration=10.0, sha="x")
        baseline = json.loads(json.dumps(record))
        baseline["runs"][0]["cache_key"] = "0" * 64
        with pytest.raises(ValueError):
            compare_to_baseline(record, baseline)

    def test_write_accepts_prebuilt_record(self, tmp_path):
        recorder = BenchRecorder(tmp_path)
        result = run_suite(instructions=TINY, cases=(("BASE", "hmmer"),))
        record = recorder.build_record(result, calibration=10.0, sha="prebuilt")
        path = recorder.write(record=record)
        assert load_bench(path) == record
        with pytest.raises(ValueError):
            recorder.write()


class TestCli:
    def test_perf_json_document(self, tmp_path, capsys):
        code = main(
            [
                "perf",
                "--instructions",
                str(TINY),
                "--output-dir",
                str(tmp_path),
                "--json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == BENCH_KIND
        assert len(document["runs"]) == len(PINNED_SUITE)
        assert document["aggregate"]["instructions_per_second"] > 0.0
        assert (tmp_path / f"BENCH_{date.today().isoformat()}.json").exists()
        assert document["record_path"].endswith(".json")

    def test_perf_record_flag_writes_commit_friendly_record(
        self, tmp_path, monkeypatch, capsys
    ):
        # --record writes a second, stable-name copy at the repo root
        # (tmp_path is no git checkout, so the root resolves to cwd).
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "perf",
                "--instructions",
                str(TINY),
                "--no-service",
                "--output-dir",
                str(tmp_path / "artifacts"),
                "--record",
                "--json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        commit_path = Path(document["commit_record_path"])
        assert commit_path.name == COMMIT_RECORD_NAME
        assert commit_path == commit_record_path(tmp_path)
        # The dated artifact and the stable-name copy are one document.
        assert load_bench(commit_path) == load_bench(document["record_path"])

    def test_perf_gate_failure_prints_per_case_deltas(self, tmp_path, capsys):
        recorder = BenchRecorder(tmp_path)
        result = run_suite(instructions=TINY)
        record = recorder.build_record(result, calibration=10.0, sha="baseline")
        record["aggregate"]["normalized_throughput"] *= 1_000.0
        for run in record["runs"]:
            run["instructions_per_second"] *= 1_000.0
        baseline = tmp_path / "BENCH_inflated.json"
        baseline.write_text(json.dumps(record))
        code = main(
            [
                "perf",
                "--instructions",
                str(TINY),
                "--no-record",
                "--no-service",
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "perf gate FAILED" in captured.err
        # Every pinned case is named with its own normalized delta.
        for spec, benchmark in PINNED_SUITE:
            assert f"{spec}/{benchmark}" in captured.err
        assert "aggregate" in captured.err

    def test_perf_gate_fails_on_regression(self, tmp_path, capsys):
        # A baseline claiming implausibly high normalized throughput must
        # trip the gate and exit nonzero.  (Full pinned suite, so the
        # records are comparable and only the throughput differs.)
        recorder = BenchRecorder(tmp_path)
        result = run_suite(instructions=TINY)
        record = recorder.build_record(result, calibration=10.0, sha="baseline")
        record["aggregate"]["normalized_throughput"] *= 1_000.0
        baseline = tmp_path / "BENCH_inflated.json"
        baseline.write_text(json.dumps(record))
        code = main(
            [
                "perf",
                "--instructions",
                str(TINY),
                "--no-record",
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_perf_gate_passes_against_committed_style_baseline(self, tmp_path, capsys):
        recorder = BenchRecorder(tmp_path)
        result = run_suite(instructions=TINY)
        baseline = recorder.write(result, path=tmp_path / "BENCH_base.json")
        code = main(
            [
                "perf",
                "--instructions",
                str(TINY),
                "--no-record",
                "--baseline",
                str(baseline),
                "--max-regression",
                "60",
            ]
        )
        assert code == 0

    def test_perf_rejects_unreadable_baseline(self, tmp_path, capsys):
        code = main(
            [
                "perf",
                "--instructions",
                str(TINY),
                "--no-record",
                "--baseline",
                str(tmp_path / "missing.json"),
            ]
        )
        assert code == 2

    def test_sweep_json_is_machine_checkable(self, capsys):
        code = main(
            [
                "sweep",
                "--variants",
                "BASE",
                "--benchmarks",
                "hmmer",
                "--instructions",
                str(TINY),
                "--no-cache",
                "--json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "sweep"
        assert document["cache"]["runs_simulated"] == 1
        assert document["cache"]["warm_from_disk"] == 0
        entry = document["entries"][0]
        assert entry["variant"] == "BASE"
        assert entry["benchmark"] == "hmmer"
        assert entry["origin"] == "cold"
        assert len(entry["cache_key"]) == 64

    def test_attack_json_is_machine_checkable(self, capsys):
        code = main(["attack", "prime_probe", "--variants", "BASE", "--no-cache", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "attack"
        assert document["cache"]["runs_simulated"] == 1
        entry = document["entries"][0]
        assert entry["scenario"] == "prime_probe"
        assert entry["leaked"] is True
        assert entry["leaked_bits"] > 0
        assert entry["cycles"] > 0
