"""Simulation statistics plumbing.

Hardware structures register named counters and histograms into a
:class:`StatsRegistry`.  The processor model, examples, and benchmark
harness read the registry to compute the figures of merit reported in the
paper (execution cycles, misses per kilo-instruction, branch
mispredictions per kilo-instruction, flush stall cycles, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Tuple


@dataclass
class Counter:
    """A monotonically increasing event counter."""

    name: str
    value: int = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def reset(self) -> None:
        """Reset the counter to zero."""
        self.value = 0


@dataclass
class Histogram:
    """A histogram of integer samples (e.g. per-request latencies)."""

    name: str
    buckets: Dict[int, int] = field(default_factory=dict)
    total_samples: int = 0
    total_value: int = 0

    def record(self, value: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``value``."""
        self.buckets[value] = self.buckets.get(value, 0) + count
        self.total_samples += count
        self.total_value += value * count

    @property
    def mean(self) -> float:
        """Arithmetic mean of all recorded samples (0.0 when empty)."""
        if self.total_samples == 0:
            return 0.0
        return self.total_value / self.total_samples

    @property
    def maximum(self) -> int:
        """Largest recorded sample (0 when empty)."""
        if not self.buckets:
            return 0
        return max(self.buckets)

    @property
    def minimum(self) -> int:
        """Smallest recorded sample (0 when empty)."""
        if not self.buckets:
            return 0
        return min(self.buckets)

    def reset(self) -> None:
        """Discard all recorded samples."""
        self.buckets.clear()
        self.total_samples = 0
        self.total_value = 0


class StatsRegistry:
    """Named collection of counters and histograms for one simulation.

    Names are hierarchical by convention (``"l1d.miss"``,
    ``"llc.mshr_stall_cycles"``) so reports can group them by structure.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Return the counter called ``name``, creating it if needed."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        """Return the histogram called ``name``, creating it if needed."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def value(self, name: str, default: int = 0) -> int:
        """Current value of counter ``name`` (``default`` if absent)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else default

    def counters(self) -> Mapping[str, int]:
        """Snapshot of all counter values."""
        return {name: counter.value for name, counter in sorted(self._counters.items())}

    def histograms(self) -> Mapping[str, Histogram]:
        """Mapping of all histograms by name."""
        return dict(self._histograms)

    def registered(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Names of every counter and every histogram, in registration order."""
        return tuple(self._counters), tuple(self._histograms)

    def register(self, counters: Iterable[str] = (), histograms: Iterable[str] = ()) -> None:
        """Create each named counter and histogram that does not exist yet."""
        for name in counters:
            self.counter(name)
        for name in histograms:
            self.histogram(name)

    def reset(self) -> None:
        """Reset every counter and histogram to its initial state."""
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    def merged_with(self, other: StatsRegistry) -> StatsRegistry:
        """Return a new registry whose counters are the sum of both inputs."""
        merged = StatsRegistry()
        for name, value in self.counters().items():
            merged.counter(name).increment(value)
        for name, value in other.counters().items():
            merged.counter(name).increment(value)
        return merged

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(set(self._counters) | set(self._histograms)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatsRegistry({len(self._counters)} counters, {len(self._histograms)} histograms)"
