"""Simulation statistics plumbing.

Hardware structures register named counters into a
:class:`StatsRegistry`.  The processor model, examples, and benchmark
harness read the registry to compute the figures of merit reported in the
paper (execution cycles, misses per kilo-instruction, branch
mispredictions per kilo-instruction, flush stall cycles, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple


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


class StatsRegistry:
    """Named collection of counters for one simulation.

    Names are hierarchical by convention (``"l1d.miss"``,
    ``"llc.mshr_stall_cycles"``) so reports can group them by structure.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Return the counter called ``name``, creating it if needed."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def value(self, name: str, default: int = 0) -> int:
        """Current value of counter ``name`` (``default`` if absent)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else default

    def counters(self) -> Mapping[str, int]:
        """Snapshot of all counter values."""
        return {name: counter.value for name, counter in sorted(self._counters.items())}

    def registered(self) -> Tuple[str, ...]:
        """Names of every counter, in registration order."""
        return tuple(self._counters)

    def register(self, counters: Iterable[str]) -> None:
        """Create each named counter that does not exist yet."""
        for name in counters:
            self.counter(name)

    def reset(self) -> None:
        """Reset every counter to zero."""
        for counter in self._counters.values():
            counter.reset()
