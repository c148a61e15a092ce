"""Tests for the shared infrastructure (RNG, stats and the named-choice tables)."""

import pytest

from repro.common import ConfigurationError, DeterministicRng, StatsRegistry
from repro.common.registry import Registry
from repro.common.rng import derive_seed


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        first = [DeterministicRng(42).integer(0, 1000) for _ in range(5)]
        second = [DeterministicRng(42).integer(0, 1000) for _ in range(5)]
        assert first == second

    def test_fork_is_order_independent(self):
        parent = DeterministicRng(7)
        child_a_first = parent.fork("a").integer(0, 10**9)
        parent2 = DeterministicRng(7)
        parent2.fork("b")
        child_a_second = parent2.fork("a").integer(0, 10**9)
        assert child_a_first == child_a_second

    def test_forks_with_different_labels_differ(self):
        parent = DeterministicRng(7)
        assert parent.fork("x").integer(0, 10**9) != parent.fork("y").integer(0, 10**9)

    def test_chance_extremes(self):
        rng = DeterministicRng(1)
        assert rng.chance(1.0) is True
        assert rng.chance(0.0) is False

    def test_geometric_mean_is_positive(self):
        rng = DeterministicRng(3)
        samples = [rng.geometric(6.0) for _ in range(200)]
        assert all(sample >= 1 for sample in samples)
        assert 2.0 < sum(samples) / len(samples) < 12.0

    def test_derive_seed_changes_with_components(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


class TestStatsRegistry:
    def test_counter_creation_and_increment(self):
        stats = StatsRegistry()
        stats.counter("l1d.miss").increment()
        stats.counter("l1d.miss").increment(4)
        assert stats.value("l1d.miss") == 5
        assert stats.value("does.not.exist") == 0

    def test_reset_clears_everything(self):
        stats = StatsRegistry()
        stats.counter("a").increment(3)
        stats.counter("b").increment(1)
        stats.reset()
        assert stats.counters() == {"a": 0, "b": 0}


class TestRegistry:
    def test_rows_keep_declaration_order_and_unknown_names_list_them(self):
        registry = Registry("colour", (("red", 1, "warm"), ("blue", 2, "cold")))
        assert list(registry) == ["red", "blue"]
        assert registry["blue"] == 2
        assert registry.descriptions == {"red": "warm", "blue": "cold"}
        with pytest.raises(
            ConfigurationError, match=r"unknown colour 'green' \(expected one of: red, blue\)"
        ):
            registry["green"]

    def test_a_name_declared_twice_is_rejected(self):
        # A second row would otherwise replace the first one's value and
        # description without a word.
        with pytest.raises(ConfigurationError, match=r"colour 'red' declared twice"):
            Registry("colour", (("red", 1, "warm"), ("blue", 2, "cold"), ("red", 3, "again")))
