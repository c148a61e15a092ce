"""Tenant-to-shard routing policies for the fleet front-end router.

The router runs once per fleet simulation, before any shard machine is
built: it maps every tenant enclave to exactly one shard, and with it
decides which shards pay which boundary costs.  Three policies ship,
spanning the placement trade-offs the paper's boundary costs create:

=====================  ================================================
``consistent_hash``    SHA-256 hash ring with virtual nodes: placement
                       depends only on (tenant id, shard count), so a
                       resize moves few tenants — the classic stateless
                       front-end router.
``least_loaded``       Greedy longest-processing-time bin packing on
                       per-request service demand: heaviest tenants
                       placed first, each onto the currently lightest
                       shard.
``purge_cost_aware``   ``least_loaded`` over demand *plus* the
                       estimated per-request boundary cost (purge
                       stalls and amortised churn scrub/wipe/
                       measurement), so FLUSH-heavy tenants spread
                       instead of stacking on one shard.
=====================  ================================================

:data:`ROUTERS` is the fixed table of them.  Each is a pure function of
its arguments (hashing replaces randomness, no ambient state), the
determinism contract the engine's content-hash cache keys rely on.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.registry import Registry

#: Virtual nodes per shard on the consistent-hash ring (evens out the
#: arc lengths without making the ring construction expensive).
VIRTUAL_NODES = 16


@dataclass(frozen=True)
class TenantLoad:
    """The router's view of one tenant.

    Attributes:
        tenant: Fleet-wide tenant id.
        benchmark: The tenant's workload profile name.
        demand_cycles: Per-request service demand on the fleet's machine
            configuration (from the cycle kernel, via the run layer).
        boundary_cycles: Estimated per-request enclave-boundary cost on
            this configuration (purge stalls plus amortised churn
            charges; zero on unprotected builds).
    """

    tenant: int
    benchmark: str
    demand_cycles: int
    boundary_cycles: int


#: ``(tenants, num_shards) -> shard index per tenant`` (position-aligned).
RoutingPolicy = Callable[[Sequence[TenantLoad], int], Tuple[int, ...]]


def assign_tenants(
    router: str, tenants: Sequence[TenantLoad], num_shards: int
) -> Tuple[int, ...]:
    """Map every tenant to a shard index via the named routing policy.

    Returns one shard index per tenant, aligned with ``tenants``.  Every
    index is validated to lie in ``[0, num_shards)`` so a buggy policy
    fails loudly here rather than as a missing shard downstream.
    """
    policy = ROUTERS[router]
    if num_shards < 1:
        raise ConfigurationError("num_shards must be positive")
    assignment = policy(tenants, num_shards)
    if len(assignment) != len(tenants):
        raise ConfigurationError(
            f"router {router!r} returned {len(assignment)} assignments "
            f"for {len(tenants)} tenants"
        )
    for load, shard in zip(tenants, assignment):
        if not 0 <= shard < num_shards:
            raise ConfigurationError(
                f"router {router!r} placed tenant {load.tenant} on shard "
                f"{shard} (valid range: 0..{num_shards - 1})"
            )
    return tuple(assignment)


# ----------------------------------------------------------------------
# Shipped policies


def _ring_point(label: str) -> int:
    """Position of ``label`` on the hash ring (first 8 SHA-256 bytes)."""
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


def _consistent_hash(tenants: Sequence[TenantLoad], num_shards: int) -> Tuple[int, ...]:
    ring = sorted(
        (_ring_point(f"shard-{shard}/vnode-{node}"), shard)
        for shard in range(num_shards)
        for node in range(VIRTUAL_NODES)
    )
    points = [point for point, _ in ring]
    return tuple(
        ring[bisect_right(points, _ring_point(f"tenant-{load.tenant}")) % len(ring)][1]
        for load in tenants
    )


def _pack_greedily(
    tenants: Sequence[TenantLoad], num_shards: int, weight: Callable[[TenantLoad], int]
) -> Tuple[int, ...]:
    """Longest-processing-time packing: heaviest first, lightest shard.

    Ties break on tenant id (ordering) and shard index (placement), so
    the packing is deterministic for equal weights.
    """
    totals = [0] * num_shards
    assignment = [0] * len(tenants)
    order = sorted(
        range(len(tenants)), key=lambda index: (-weight(tenants[index]), tenants[index].tenant)
    )
    for index in order:
        shard = min(range(num_shards), key=lambda candidate: (totals[candidate], candidate))
        assignment[index] = shard
        totals[shard] += weight(tenants[index])
    return tuple(assignment)


def _least_loaded(tenants: Sequence[TenantLoad], num_shards: int) -> Tuple[int, ...]:
    return _pack_greedily(tenants, num_shards, lambda load: load.demand_cycles)


def _purge_cost_aware(tenants: Sequence[TenantLoad], num_shards: int) -> Tuple[int, ...]:
    return _pack_greedily(
        tenants, num_shards, lambda load: load.demand_cycles + load.boundary_cycles
    )


ROUTERS: Registry[RoutingPolicy] = Registry(
    "routing policy",
    (
        (
            "consistent_hash",
            _consistent_hash,
            f"SHA-256 hash ring with {VIRTUAL_NODES} virtual nodes per shard (stateless placement)",
        ),
        (
            "least_loaded",
            _least_loaded,
            "greedy bin packing on per-request service demand (heaviest tenant first)",
        ),
        (
            "purge_cost_aware",
            _purge_cost_aware,
            "greedy bin packing on demand plus estimated purge/churn boundary cost",
        ),
    ),
)
