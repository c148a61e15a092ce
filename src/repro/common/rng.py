"""Deterministic random number generation.

Every stochastic component of the simulator (pseudo-random cache
replacement, synthetic workload generation, interleaving of attacker
traffic) draws from a :class:`DeterministicRng` seeded from the experiment
configuration.  This keeps every experiment exactly reproducible: the same
configuration always produces the same cycle counts, which the test suite
relies on.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Any, Callable, Sequence, Tuple, TypeVar

T = TypeVar("T")

_MIX_CONSTANT = 0x9E3779B97F4A7C15


def derive_seed(base_seed: int, *components: int | str) -> int:
    """Derive a child seed from ``base_seed`` and a path of components.

    The derivation is a simple splitmix-style hash; it only needs to be
    deterministic and well spread, not cryptographic.
    """
    state = (base_seed * 2 + 1) & 0xFFFFFFFFFFFFFFFF
    for component in components:
        if isinstance(component, str):
            value = sum((index + 1) * byte for index, byte in enumerate(component.encode()))
        else:
            value = int(component)
        state = (state ^ (value & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
        state = (state * _MIX_CONSTANT + 0xB5) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 31
    return state


class DeterministicRng:
    """A seeded random source with convenience helpers.

    Wraps :class:`random.Random` so that simulator components never touch
    the global random state, and adds helpers used throughout the
    workload generator.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        """Seed this generator was created with."""
        return self._seed

    def fork(self, *components: int | str) -> DeterministicRng:
        """Create an independent child generator.

        Child streams are derived from the parent's *seed*, not its
        current state, so forking is order independent.
        """
        return DeterministicRng(derive_seed(self._seed, *components))

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        return self._random.randint(low, high)

    def fraction(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        """Pick one element of ``items`` uniformly."""
        return self._random.choice(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element of ``items`` with the given relative weights."""
        return self._random.choices(items, weights=weights, k=1)[0]

    def weighted_picker(self, items: Sequence[T], weights: Sequence[float]) -> Callable[[], T]:
        """A zero-argument callable equivalent to repeated :meth:`weighted_choice`.

        Precomputes the cumulative weights once and replicates
        ``random.choices`` draw-for-draw (one ``random()`` call per pick,
        same bisection), so a stream produced through the picker is
        bit-identical to one produced through :meth:`weighted_choice` —
        just without rebuilding the cumulative table on every call.  The
        workload generator uses this on its per-instruction mix draw.
        """
        population = list(items)
        cum_weights = list(accumulate(weights))
        if len(cum_weights) != len(population):
            raise ValueError("weights must match items")
        total = cum_weights[-1] + 0.0
        if total <= 0.0:
            raise ValueError("total of weights must be greater than zero")
        hi = len(population) - 1
        random_draw = self._random.random

        def pick() -> T:
            return population[bisect(cum_weights, random_draw() * total, 0, hi)]

        return pick

    def geometric(self, mean: float) -> int:
        """Geometric-like positive integer with the requested mean.

        Used for dependency distances and burst lengths in the synthetic
        workload generator.
        """
        if mean <= 1.0:
            return 1
        probability = 1.0 / mean
        value = 1
        while not self._random.random() < probability:
            value += 1
            if value > mean * 20:
                break
        return value

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def getstate(self) -> Tuple[Any, ...]:
        """This generator's position in its stream (see :meth:`setstate`)."""
        return self._random.getstate()

    def setstate(self, state: Tuple[Any, ...]) -> None:
        """Move to a position :meth:`getstate` returned, on any generator.

        The underlying generator object is kept, so handles bound to it
        (the fast path's draw taps) follow the new position.
        """
        self._random.setstate(state)
