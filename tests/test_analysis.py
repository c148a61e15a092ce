"""Tests for the evaluation harness and reporting helpers."""

import pytest

from repro.analysis.harness import (
    EvaluationSettings,
    cached_run,
    clear_run_cache,
    overhead_percent,
    run_figure_series,
    runtime_overhead_metric,
)
from repro.analysis.report import format_comparison_table, format_series_table, geometric_mean


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_run_cache()
    yield
    clear_run_cache()


SMALL = EvaluationSettings(instructions=3000)


class TestHarness:
    def test_cached_run_returns_same_object(self):
        first = cached_run("BASE", "hmmer", SMALL)
        second = cached_run("BASE", "hmmer", SMALL)
        assert first is second

    def test_overhead_percent_is_positive_for_secured_variant(self):
        assert overhead_percent("ARB", "libquantum", SMALL) > 0

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
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_series_table_contains_rows_and_paper_column(self):
        text = format_series_table(
            "Figure X", {"gcc": 10.0, "average": 10.0}, {"gcc": 21.6}, unit="%"
        )
        assert "Figure X" in text and "gcc" in text and "21.60" in text

    def test_comparison_table(self):
        text = format_comparison_table({"average overhead": (15.0, 16.4)}, title="Summary")
        assert "average overhead" in text and "16.40" in text
