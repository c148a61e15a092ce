"""The per-shard adapter over the serving loop, and the fleet merge.

One fleet simulation is N independent shard simulations plus a merge.
Each shard runs the one serving event loop,
:func:`repro.service.simulation.serve` — real enclaves through the
:class:`~repro.monitor.security_monitor.SecurityMonitor`, purge and
scrub costs taken from the machine's own counters.
:func:`run_fleet_shard` is the adapter that feeds it the three fleet
mechanisms:

* a **bounded queue with admission control**: every arrival passes an
  admission policy (:mod:`repro.fleet.admission`) before it may queue,
  so saturated shards shed load instead of growing unboundedly;
* a **closed-loop client population** (:mod:`repro.fleet.clients`):
  when the client model is closed-loop, arrivals are issued dynamically
  by think-time clients instead of precomputed open-loop profiles;
* **extended churn costing**: on tenant churn the monitor's LLC scrub
  is joined by a DRAM-wipe charge (the enclave's pages plus its page
  table, wiped at ``dram_wipe_bytes_per_cycle``) and an
  enclave-measurement charge (``measurement_cycles_per_page`` per
  loaded page) — the create-heavy teardown costs of MI6's enclave
  lifecycle, charged only on protected builds.

Shards are seeded independently (``derive_seed(seed, "fleet-shard",
shard_index)``), so a shard simulation is a pure function of its
request parameters: the engine fans shards out one-per-worker and the
merged :class:`FleetOutcome` is bit-identical across ``--jobs``
settings, reruns, and the JSON round-trip through the result store.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.defaults import (
    DEFAULT_MEASUREMENT_CYCLES_PER_PAGE,
    DEFAULT_WIPE_BYTES_PER_CYCLE,
)
from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng, derive_seed
from repro.core.config import MI6Config
from repro.core.serialization import OutcomeDocument
from repro.fleet.admission import REJECT_QUEUE_FULL, AdmissionContext, admit
from repro.fleet.clients import client_model, closed_loop_population
from repro.service.arrivals import Arrival, exponential_gap, generate_arrivals
from repro.service.metrics import summarize_latencies, throughput_per_mcycle
from repro.service.simulation import mean_service_cycles, serve, teardown_cycles
from repro.workloads.spec_cint2006 import tenant_benchmarks

#: Nominal purge stall used for routing *estimates* only (the shard
#: loop always charges the machine's measured stall, never this).
PURGE_STALL_ESTIMATE = 512


def shard_seed(seed: int, shard_index: int) -> int:
    """Independent per-shard seed (stable fleet-wide derivation)."""
    return derive_seed(seed, "fleet-shard", shard_index)


def estimate_boundary_cycles(
    config: MI6Config,
    *,
    churn_every: int,
    dram_wipe_bytes_per_cycle: int,
    measurement_cycles_per_page: int,
    loaded_pages: int = 1,
) -> int:
    """Estimated per-request enclave-boundary cost for routing weights.

    A deterministic a-priori estimate — purge pair per request when the
    configuration flushes on context switch, plus the churn teardown
    charge (:func:`~repro.service.simulation.teardown_cycles` at the
    scrub floor) amortised over the churn period on protected builds.
    Routing only needs relative weights; the shard loop charges
    measured costs.
    """
    estimate = 0
    if config.flush_on_context_switch:
        estimate += 2 * PURGE_STALL_ESTIMATE
    if churn_every and config.has_protection_hardware:
        teardown = teardown_cycles(
            config,
            scrubbed_lines=0,
            loaded_pages=loaded_pages,
            dram_wipe_bytes_per_cycle=dram_wipe_bytes_per_cycle,
            measurement_cycles_per_page=measurement_cycles_per_page,
        )
        estimate += sum(teardown) // churn_every
    return estimate


@dataclass(frozen=True)
class ShardOutcome(OutcomeDocument):
    """Result of one shard simulation (JSON-serialisable for the store).

    ``latencies`` is the full sorted per-request latency list: fleet
    percentiles must be computed over the *merged* population, so each
    shard ships its samples and the merge stays exact (and
    deterministic) instead of approximating from per-shard summaries.
    """

    shard: int
    tenants: Tuple[int, ...]
    offered: int
    admitted: int
    completed: int
    dropped_queue_full: int
    rejected_deadline: int
    deadline_misses: int
    slo_met: int
    horizon_cycles: int
    busy_cycles: int
    utilization: float
    switches: int
    affinity_hits: int
    queue_peak: int
    charged_purge_cycles: int
    charged_scrub_cycles: int
    charged_wipe_cycles: int
    charged_measurement_cycles: int
    latencies: Tuple[int, ...] = ()
    details: Dict[str, Any] = field(default_factory=dict)


def empty_shard_outcome(shard: int, tenants: Tuple[int, ...] = ()) -> ShardOutcome:
    """The well-defined outcome of a shard that served nothing."""
    return ShardOutcome(
        shard=shard,
        tenants=tenants,
        offered=0,
        admitted=0,
        completed=0,
        dropped_queue_full=0,
        rejected_deadline=0,
        deadline_misses=0,
        slo_met=0,
        horizon_cycles=0,
        busy_cycles=0,
        utilization=0.0,
        switches=0,
        affinity_hits=0,
        queue_peak=0,
        charged_purge_cycles=0,
        charged_scrub_cycles=0,
        charged_wipe_cycles=0,
        charged_measurement_cycles=0,
    )


@dataclass(frozen=True)
class FleetOutcome(OutcomeDocument):
    """Merged result of one fleet simulation (the cached document).

    Fleet-wide percentiles are exact (computed over the merged latency
    population), throughput counts completions and goodput only
    completions that met the SLO — the saturation frontier is the
    goodput-vs-offered-load curve across fleet runs.
    """

    router: str
    admission: str
    client_model: str
    policy: str
    variant: str
    seed: int
    load: float
    load_profile: str
    num_shards: int
    shard_cores: int
    num_tenants: int
    num_requests: int
    queue_depth: int
    slo_cycles: int
    offered: int
    admitted: int
    completed: int
    dropped_queue_full: int
    rejected_deadline: int
    deadline_misses: int
    slo_met: int
    horizon_cycles: int
    throughput_rpmc: float
    goodput_rpmc: float
    latency: Dict[str, Any]
    utilization: float
    assignment: Tuple[int, ...]
    per_shard: List[Dict[str, Any]] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)


def run_fleet_shard(
    config: MI6Config,
    policy: str,
    *,
    service_cycles: Mapping[str, int],
    seed: int,
    shard_index: int,
    tenants: Sequence[int],
    num_tenants: int,
    load: float,
    load_profile: str,
    client: str,
    num_cores: int,
    num_requests: int,
    queue_depth: int,
    admission: str,
    slo_cycles: int,
    think_factor: float,
    churn_every: int = 0,
    dram_wipe_bytes_per_cycle: int = DEFAULT_WIPE_BYTES_PER_CYCLE,
    measurement_cycles_per_page: int = DEFAULT_MEASUREMENT_CYCLES_PER_PAGE,
) -> ShardOutcome:
    """Serve one shard's request stream behind a bounded queue.

    The fleet's adapter over :func:`repro.service.simulation.serve`: it
    hands the loop the admission policy as a gate, closed-loop think
    time (or open-loop arrivals), and the DRAM-wipe and measurement
    teardown charges.

    Args:
        config: Machine configuration (any mitigation combination).
        policy: Scheduling-policy name (per-core dispatch, as in
            :func:`repro.service.simulation.run_service`).
        service_cycles: Benchmark -> cycles of one request's workload on
            this configuration.
        seed: Fleet seed; the shard derives its own stream from it.
        shard_index: This shard's index within the fleet.
        tenants: Fleet-wide tenant ids hosted on this shard.
        num_tenants: Fleet-wide tenant count (fixes each tenant's
            benchmark regardless of placement).
        load: Offered load as a fraction of *this shard's* capacity.
        load_profile: Arrival profile for open-loop client models.
        client: Client-model name (``open_loop``/``closed_loop``).
        num_cores: Cores of this shard's machine.
        num_requests: This shard's request budget (arrivals generated).
        queue_depth: Bound on the pending queue (admission control).
        admission: Admission-policy name.
        slo_cycles: Fleet-wide latency SLO (admission to completion).
        think_factor: Closed-loop think time as a multiple of the mean
            service demand.
        churn_every: Destroy and relaunch a tenant's enclave after this
            many of its completions (0 disables churn).
        dram_wipe_bytes_per_cycle: DRAM-wipe bandwidth charged on churn
            teardown (0 disables the wipe charge; all teardown charges
            apply only on protected builds).
        measurement_cycles_per_page: Measurement cost per loaded page
            charged when the churned enclave relaunches.
    """
    if load <= 0.0:
        raise ConfigurationError("load must be positive")
    if num_cores < 1:
        raise ConfigurationError("num_cores must be positive")
    if queue_depth < 1:
        raise ConfigurationError("queue_depth must be positive")
    if slo_cycles < 1:
        raise ConfigurationError("slo_cycles must be positive")
    if dram_wipe_bytes_per_cycle < 0:
        raise ConfigurationError("dram_wipe_bytes_per_cycle must be non-negative")
    if measurement_cycles_per_page < 0:
        raise ConfigurationError("measurement_cycles_per_page must be non-negative")
    if churn_every < 0:
        raise ConfigurationError("churn_every must be non-negative")
    tenants = tuple(tenants)
    if not tenants or num_requests < 1:
        return empty_shard_outcome(shard_index, tenants)
    model = client_model(client)
    benchmarks_all = tenant_benchmarks(num_tenants)
    local_benchmarks = [benchmarks_all[tenant] for tenant in tenants]
    mean_service = mean_service_cycles(service_cycles, local_benchmarks)
    local_count = len(tenants)
    stream_seed = shard_seed(seed, shard_index)

    think: Optional[Callable[[], int]] = None
    arrivals: List[Arrival]
    if model.closed_loop:
        client_rng = DeterministicRng(stream_seed).fork("fleet-clients", client)
        think_mean = max(1.0, think_factor * mean_service)
        think = lambda: exponential_gap(client_rng, think_mean)
        arrivals = [
            Arrival(think(), client_id % local_count, client_id)
            for client_id in range(closed_loop_population(load, num_cores, think_factor))
        ]
    else:
        mean_gap = max(1, int(round(mean_service / (load * num_cores))))
        arrivals = generate_arrivals(
            load_profile,
            num_requests=num_requests,
            num_tenants=local_count,
            mean_gap_cycles=mean_gap,
            seed=stream_seed,
        )

    def gate(now: int, queue_length: int, earliest_free: int, service: int) -> Optional[str]:
        """The admission policy, on a deterministic queue-wait estimate."""
        backlog = (queue_length // num_cores) * int(mean_service)
        return admit(
            admission,
            AdmissionContext(
                now=now,
                queue_length=queue_length,
                queue_depth=queue_depth,
                service_cycles=service,
                estimated_wait_cycles=max(0, earliest_free - now) + backlog,
                slo_cycles=slo_cycles,
            ),
        )

    stream = serve(
        config,
        policy,
        service_cycles=service_cycles,
        benchmarks=local_benchmarks,
        seed=stream_seed,
        num_cores=num_cores,
        arrivals=arrivals,
        num_requests=num_requests,
        churn_every=churn_every,
        dram_wipe_bytes_per_cycle=dram_wipe_bytes_per_cycle,
        measurement_cycles_per_page=measurement_cycles_per_page,
        gate=gate,
        think=think,
        slo_cycles=slo_cycles,
        track=f"shard-{shard_index}",
        labels={"shard": shard_index},
    )
    dropped_queue_full = stream.rejections.get(REJECT_QUEUE_FULL, 0)
    rejected_deadline = sum(stream.rejections.values()) - dropped_queue_full
    completed = len(stream.latencies)
    slo_met = sum(1 for latency in stream.latencies if latency <= slo_cycles)
    return ShardOutcome(
        shard=shard_index,
        tenants=tenants,
        offered=stream.offered,
        admitted=stream.offered - dropped_queue_full - rejected_deadline,
        completed=completed,
        dropped_queue_full=dropped_queue_full,
        rejected_deadline=rejected_deadline,
        deadline_misses=completed - slo_met,
        slo_met=slo_met,
        horizon_cycles=stream.horizon_cycles,
        busy_cycles=stream.busy_cycles,
        utilization=stream.utilization,
        switches=stream.switches,
        affinity_hits=stream.affinity_hits,
        queue_peak=stream.queue_peak,
        charged_purge_cycles=stream.charged_purge_cycles,
        charged_scrub_cycles=stream.charged_scrub_cycles,
        charged_wipe_cycles=stream.charged_wipe_cycles,
        charged_measurement_cycles=stream.charged_measurement_cycles,
        latencies=tuple(sorted(stream.latencies)),
        details={
            "mean_service_cycles": mean_service,
            "tenant_benchmarks": list(local_benchmarks),
            "num_cores": num_cores,
        },
    )


def merge_shard_outcomes(
    *,
    router: str,
    admission: str,
    client: str,
    policy: str,
    variant: str,
    seed: int,
    load: float,
    load_profile: str,
    num_shards: int,
    shard_cores: int,
    num_tenants: int,
    num_requests: int,
    queue_depth: int,
    slo_cycles: int,
    assignment: Sequence[int],
    shards: Sequence[ShardOutcome],
    details: Optional[Dict[str, Any]] = None,
) -> FleetOutcome:
    """Fold per-shard outcomes into one fleet document (deterministic).

    Counts sum, the horizon is the latest shard completion, percentiles
    are exact over the merged latency population, and utilization is
    fleet-busy over fleet-capacity at the fleet horizon.  ``shards``
    must hold one outcome per shard index (empty shards included, via
    :func:`empty_shard_outcome`) so per-shard rows stay position-aligned.
    """
    merged: List[int] = list(heapq.merge(*(shard.latencies for shard in shards)))
    completed = sum(shard.completed for shard in shards)
    met = sum(shard.slo_met for shard in shards)
    horizon = max([shard.horizon_cycles for shard in shards], default=0)
    horizon = max(horizon, 1)
    busy_total = sum(shard.busy_cycles for shard in shards)
    per_shard = []
    for shard in shards:
        row = shard.to_dict()
        del row["latencies"]
        per_shard.append(row)
    return FleetOutcome(
        router=router,
        admission=admission,
        client_model=client,
        policy=policy,
        variant=variant,
        seed=seed,
        load=load,
        load_profile=load_profile,
        num_shards=num_shards,
        shard_cores=shard_cores,
        num_tenants=num_tenants,
        num_requests=num_requests,
        queue_depth=queue_depth,
        slo_cycles=slo_cycles,
        offered=sum(shard.offered for shard in shards),
        admitted=sum(shard.admitted for shard in shards),
        completed=completed,
        dropped_queue_full=sum(shard.dropped_queue_full for shard in shards),
        rejected_deadline=sum(shard.rejected_deadline for shard in shards),
        deadline_misses=sum(shard.deadline_misses for shard in shards),
        slo_met=met,
        horizon_cycles=horizon,
        throughput_rpmc=throughput_per_mcycle(completed, horizon),
        goodput_rpmc=throughput_per_mcycle(met, horizon),
        latency=summarize_latencies(merged),
        utilization=busy_total / (num_shards * shard_cores * horizon),
        assignment=tuple(assignment),
        per_shard=per_shard,
        details=dict(details or {}),
    )
