"""Deterministic open-loop arrival processes for the serving simulation.

An arrival process turns ``(load profile, seed)`` into a fixed sequence
of :class:`Arrival` events — request time in cycles plus the tenant it
belongs to — before the event loop starts, so a service simulation is a
pure function of its request parameters (the property the engine's
content-hash cache keys and the serial==parallel guarantee rely on).

Three profiles model the tenant-churn regimes the serving layer cares
about:

* ``poisson`` — memoryless arrivals, tenants drawn uniformly: the
  classic open-loop baseline;
* ``bursty`` — on/off bursts in which one tenant dominates each burst:
  the regime where batch/affinity scheduling amortises purge pairs;
* ``diurnal`` — a slow sinusoidal rate swing across the run (a
  compressed day), so queues build at the peak and drain in the trough.

All profiles are parameterised by the *mean* inter-arrival gap, so the
offered load of a sweep point is comparable across profiles.
:data:`ARRIVAL_PROFILES` is the fixed table of them; each is a pure
function of its arguments, with all randomness drawn from the passed
``rng``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.registry import Registry
from repro.common.rng import DeterministicRng

#: Requests per burst of the ``bursty`` profile.
BURST_LENGTH = 8

#: Probability an arrival inside a burst belongs to the burst's tenant.
BURST_TENANT_BIAS = 0.75

#: Rate multiplier band of the ``diurnal`` profile (trough, swing).
DIURNAL_TROUGH = 0.35
DIURNAL_SWING = 1.3


@dataclass(frozen=True)
class Arrival:
    """One request arrival: absolute cycle time plus owning tenant.

    ``client`` names the closed-loop client that issued the request
    (``None`` for open-loop arrivals, which nobody waits on).
    """

    time: int
    tenant: int
    client: Optional[int] = None


def exponential_gap(rng: DeterministicRng, mean_gap: float) -> int:
    """One exponential gap (inter-arrival or think time), floored at a cycle."""
    draw = -mean_gap * math.log(1.0 - rng.fraction())
    return max(1, int(round(draw)))


#: ``(rng, num_requests, num_tenants, mean_gap_cycles) -> arrivals``.
ArrivalGenerator = Callable[[DeterministicRng, int, int, int], List[Arrival]]


def generate_arrivals(
    profile: str,
    *,
    num_requests: int,
    num_tenants: int,
    mean_gap_cycles: int,
    seed: int,
) -> List[Arrival]:
    """The full arrival sequence for one service simulation.

    Args:
        profile: A profile name (:data:`LOAD_PROFILES` lists them).
        num_requests: Open-loop requests to generate.
        num_tenants: Tenants the requests are spread across.
        mean_gap_cycles: Target mean inter-arrival gap (sets the offered
            load together with the mean service time and core count).
        seed: Arrival-process seed (forked per profile, so the same seed
            produces uncorrelated draws across profiles).

    Returns:
        Arrivals in non-decreasing time order (times are strictly
        spaced by at least one cycle).
    """
    generator = ARRIVAL_PROFILES[profile]
    if num_requests < 1:
        raise ConfigurationError("num_requests must be positive")
    if num_tenants < 1:
        raise ConfigurationError("num_tenants must be positive")
    if mean_gap_cycles < 1:
        raise ConfigurationError("mean_gap_cycles must be positive")
    rng = DeterministicRng(seed).fork("service-arrivals", profile)
    return generator(rng, num_requests, num_tenants, mean_gap_cycles)


# ----------------------------------------------------------------------
# Shipped profiles


def _poisson(
    rng: DeterministicRng, num_requests: int, num_tenants: int, mean_gap_cycles: int
) -> List[Arrival]:
    arrivals: List[Arrival] = []
    time = 0
    for _ in range(num_requests):
        time += exponential_gap(rng, float(mean_gap_cycles))
        arrivals.append(Arrival(time, rng.integer(0, num_tenants - 1)))
    return arrivals


def _bursty(
    rng: DeterministicRng, num_requests: int, num_tenants: int, mean_gap_cycles: int
) -> List[Arrival]:
    arrivals: List[Arrival] = []
    time = 0
    in_burst_gap = max(1, mean_gap_cycles // 4)
    # The idle stretch before each burst restores the target mean:
    # a burst of B requests must span B * mean_gap cycles in total.
    burst_lead = max(1, BURST_LENGTH * mean_gap_cycles - (BURST_LENGTH - 1) * in_burst_gap)
    burst_tenant = 0
    for index in range(num_requests):
        if index % BURST_LENGTH == 0:
            time += burst_lead
            burst_tenant = rng.integer(0, num_tenants - 1)
        else:
            time += in_burst_gap
        if rng.chance(BURST_TENANT_BIAS):
            tenant = burst_tenant
        else:
            tenant = rng.integer(0, num_tenants - 1)
        arrivals.append(Arrival(time, tenant))
    return arrivals


def _diurnal(
    rng: DeterministicRng, num_requests: int, num_tenants: int, mean_gap_cycles: int
) -> List[Arrival]:
    arrivals: List[Arrival] = []
    time = 0
    rates = [
        DIURNAL_TROUGH
        + DIURNAL_SWING
        * (1.0 - math.cos(2.0 * math.pi * index / num_requests))
        / 2.0
        for index in range(num_requests)
    ]
    # Normalise by E[1/rate], not E[rate]: the mean *gap* is the
    # mean of the reciprocals, so without this the realised load
    # would undershoot the nominal point by ~25% and diurnal rows
    # would not be comparable with the other profiles.
    normalizer = sum(1.0 / rate for rate in rates) / num_requests
    for rate in rates:
        time += exponential_gap(rng, float(mean_gap_cycles) / (rate * normalizer))
        arrivals.append(Arrival(time, rng.integer(0, num_tenants - 1)))
    return arrivals


ARRIVAL_PROFILES: Registry[ArrivalGenerator] = Registry(
    "load profile",
    (
        ("poisson", _poisson, "memoryless arrivals, tenants drawn uniformly (the open-loop baseline)"),
        ("bursty", _bursty, f"on/off bursts of {BURST_LENGTH} in which one tenant dominates each burst"),
        ("diurnal", _diurnal, "a slow sinusoidal rate swing across the run (a compressed day)"),
    ),
)

#: Shipped load-profile names, in declaration order.
LOAD_PROFILES = tuple(ARRIVAL_PROFILES)
