"""Tests for the evaluation harness and reporting helpers."""

import pytest

from repro.analysis.harness import (
    EvaluationSettings,
    run_figure_series,
    runtime_overhead_metric,
)
from repro.analysis.report import format_series_table
from repro.analysis.store import ResultStore
from repro.api import Session, SweepRequest, WorkloadRequest, set_default_session


@pytest.fixture(autouse=True)
def _fresh_session():
    set_default_session(Session(ResultStore.in_memory()))
    yield
    set_default_session(Session(ResultStore.in_memory()))


SMALL = EvaluationSettings(instructions=3000)


class TestHarness:
    def test_repeated_run_returns_same_object(self):
        session = Session(ResultStore.in_memory())
        request = WorkloadRequest(variant="BASE", benchmark="hmmer", instructions=3000, seed=2019)
        assert session.run(request).value is session.run(request).value

    def test_overhead_is_positive_for_secured_variant(self):
        result = Session(ResultStore.in_memory()).run(
            SweepRequest(variants=("BASE", "ARB"), benchmarks=("libquantum",), instructions=3000)
        )
        assert result.overhead_percent("ARB", "libquantum", 2019) > 0

    def test_run_figure_series_includes_average(self):
        series = run_figure_series(
            "ARB", runtime_overhead_metric, SMALL, benchmarks=["hmmer", "libquantum"]
        )
        assert set(series) == {"hmmer", "libquantum", "average"}
        assert series["average"] == pytest.approx(
            (series["hmmer"] + series["libquantum"]) / 2
        )

    def test_run_figure_series_is_insertion_ordered(self):
        series = run_figure_series(
            "ARB", runtime_overhead_metric, SMALL, benchmarks=["libquantum", "hmmer"]
        )
        assert list(series) == ["libquantum", "hmmer", "average"]

    def test_run_figure_series_rejects_reserved_benchmark_name(self):
        with pytest.raises(ValueError, match="average"):
            run_figure_series(
                "ARB", runtime_overhead_metric, SMALL, benchmarks=["hmmer", "average"]
            )

    def test_run_figure_series_rejects_empty_benchmark_list(self):
        with pytest.raises(ValueError, match="empty"):
            run_figure_series("ARB", runtime_overhead_metric, SMALL, benchmarks=[])

    def test_settings_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "1234")
        assert EvaluationSettings.from_environment().instructions == 1234

    def test_settings_seed_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SEED", "42")
        settings = EvaluationSettings.from_environment()
        assert settings.seed == 42
        monkeypatch.delenv("REPRO_BENCH_SEED")
        assert EvaluationSettings.from_environment().seed == 2019


class TestReport:
    def test_series_table_contains_rows_and_paper_column(self):
        text = format_series_table(
            "Figure X", {"gcc": 10.0, "average": 10.0}, {"gcc": 21.6}, unit="%"
        )
        assert "Figure X" in text and "gcc" in text and "21.60" in text
