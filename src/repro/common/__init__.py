"""Shared infrastructure used by every subsystem of the MI6 reproduction.

The :mod:`repro.common` package contains the pieces that do not belong to
any single hardware structure: deterministic random number generation,
error types, cycle-counter plumbing, and the statistics registry that the
benchmark harness reads after a simulation.
"""

from repro.common.errors import (
    ConfigurationError,
    ReproError,
    SecurityMonitorError,
)
from repro.common.rng import DeterministicRng
from repro.common.stats import Counter, StatsRegistry

__all__ = [
    "ConfigurationError",
    "Counter",
    "DeterministicRng",
    "ReproError",
    "SecurityMonitorError",
    "StatsRegistry",
]
