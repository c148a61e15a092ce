"""The per-shard serving loop and the deterministic fleet merge.

One fleet simulation is N independent shard simulations plus a merge.
Each shard is a full :mod:`repro.service`-style machine — real enclaves
through the :class:`~repro.monitor.security_monitor.SecurityMonitor`,
purge and scrub costs taken from the machine's own counters — extended
with the three fleet mechanisms:

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
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng, derive_seed
from repro.core.config import MI6Config
from repro.fleet.admission import REJECT_QUEUE_FULL, AdmissionContext, admit
from repro.fleet.clients import client_model, closed_loop_population, think_gap
from repro.obs.trace import active_tracer
from repro.service.arrivals import generate_arrivals
from repro.service.metrics import summarize_latencies, throughput_per_mcycle
from repro.service.schedulers import QueueView, create_policy
from repro.service.simulation import MIN_SCRUB_CYCLES, _Fleet, tenant_benchmarks

#: Default shard count of a fleet simulation.
DEFAULT_FLEET_SHARDS = 4
#: Default bound on each shard's pending-request queue.
DEFAULT_QUEUE_DEPTH = 32
#: Default latency SLO as a multiple of the mean per-request service
#: demand (queue wait + boundary costs + service must fit inside it).
DEFAULT_SLO_FACTOR = 8.0
#: Default closed-loop think time as a multiple of the mean service
#: demand (``Z = think_factor × S``).
DEFAULT_THINK_FACTOR = 2.0
#: Default DRAM-wipe bandwidth charged on enclave teardown, in bytes
#: per cycle (0 disables the charge).  At 64 B/cycle a one-page enclave
#: plus its 8 page-table pages costs ~576 cycles per churn.
DEFAULT_WIPE_BYTES_PER_CYCLE = 64
#: Default enclave-measurement cost per loaded page on relaunch
#: (hashing the page into the measurement register).
DEFAULT_MEASUREMENT_CYCLES_PER_PAGE = 4096

#: Page-table pages the monitor charges per enclave (mirrors the
#: security monitor's ``used_pages`` accounting).
PAGE_TABLE_PAGES = 8

#: Nominal purge stall used for routing *estimates* only (the shard
#: loop always charges the machine's measured stall, never this).
PURGE_STALL_ESTIMATE = 512

#: Event-kind ranks (completions free cores first, then stall-end
#: wakes, then simultaneous arrivals) — identical to the service loop.
_COMPLETE, _WAKE, _ARRIVAL = 0, 1, 2


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
    charges (scrub floor, DRAM wipe, measurement) amortised over the
    churn period on protected builds.  Routing only needs relative
    weights; the shard loop charges measured costs.
    """
    estimate = 0
    if config.flush_on_context_switch:
        estimate += 2 * PURGE_STALL_ESTIMATE
    if churn_every and config.has_protection_hardware:
        page_bytes = config.address_map.page_bytes
        wiped = (loaded_pages + PAGE_TABLE_PAGES) * page_bytes
        wipe = (
            -(-wiped // dram_wipe_bytes_per_cycle)
            if dram_wipe_bytes_per_cycle > 0
            else 0
        )
        teardown = MIN_SCRUB_CYCLES + wipe + measurement_cycles_per_page * loaded_pages
        estimate += teardown // churn_every
    return estimate


@dataclass(frozen=True)
class ShardOutcome:
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

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible encoding (stable round-trip)."""
        return {
            "shard": self.shard,
            "tenants": list(self.tenants),
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "dropped_queue_full": self.dropped_queue_full,
            "rejected_deadline": self.rejected_deadline,
            "deadline_misses": self.deadline_misses,
            "slo_met": self.slo_met,
            "horizon_cycles": self.horizon_cycles,
            "busy_cycles": self.busy_cycles,
            "utilization": self.utilization,
            "switches": self.switches,
            "affinity_hits": self.affinity_hits,
            "queue_peak": self.queue_peak,
            "charged_purge_cycles": self.charged_purge_cycles,
            "charged_scrub_cycles": self.charged_scrub_cycles,
            "charged_wipe_cycles": self.charged_wipe_cycles,
            "charged_measurement_cycles": self.charged_measurement_cycles,
            "latencies": list(self.latencies),
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> ShardOutcome:
        """Rebuild an outcome from :meth:`to_dict` output."""
        return cls(
            shard=data["shard"],
            tenants=tuple(data["tenants"]),
            offered=data["offered"],
            admitted=data["admitted"],
            completed=data["completed"],
            dropped_queue_full=data["dropped_queue_full"],
            rejected_deadline=data["rejected_deadline"],
            deadline_misses=data["deadline_misses"],
            slo_met=data["slo_met"],
            horizon_cycles=data["horizon_cycles"],
            busy_cycles=data["busy_cycles"],
            utilization=data["utilization"],
            switches=data["switches"],
            affinity_hits=data["affinity_hits"],
            queue_peak=data["queue_peak"],
            charged_purge_cycles=data["charged_purge_cycles"],
            charged_scrub_cycles=data["charged_scrub_cycles"],
            charged_wipe_cycles=data["charged_wipe_cycles"],
            charged_measurement_cycles=data["charged_measurement_cycles"],
            latencies=tuple(data.get("latencies", [])),
            details=dict(data.get("details", {})),
        )


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
class FleetOutcome:
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

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible encoding (stable round-trip)."""
        return {
            "router": self.router,
            "admission": self.admission,
            "client_model": self.client_model,
            "policy": self.policy,
            "variant": self.variant,
            "seed": self.seed,
            "load": self.load,
            "load_profile": self.load_profile,
            "num_shards": self.num_shards,
            "shard_cores": self.shard_cores,
            "num_tenants": self.num_tenants,
            "num_requests": self.num_requests,
            "queue_depth": self.queue_depth,
            "slo_cycles": self.slo_cycles,
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "dropped_queue_full": self.dropped_queue_full,
            "rejected_deadline": self.rejected_deadline,
            "deadline_misses": self.deadline_misses,
            "slo_met": self.slo_met,
            "horizon_cycles": self.horizon_cycles,
            "throughput_rpmc": self.throughput_rpmc,
            "goodput_rpmc": self.goodput_rpmc,
            "latency": dict(self.latency),
            "utilization": self.utilization,
            "assignment": list(self.assignment),
            "per_shard": [dict(row) for row in self.per_shard],
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> FleetOutcome:
        """Rebuild an outcome from :meth:`to_dict` output."""
        return cls(
            router=data["router"],
            admission=data["admission"],
            client_model=data["client_model"],
            policy=data["policy"],
            variant=data["variant"],
            seed=data["seed"],
            load=data["load"],
            load_profile=data["load_profile"],
            num_shards=data["num_shards"],
            shard_cores=data["shard_cores"],
            num_tenants=data["num_tenants"],
            num_requests=data["num_requests"],
            queue_depth=data["queue_depth"],
            slo_cycles=data["slo_cycles"],
            offered=data["offered"],
            admitted=data["admitted"],
            completed=data["completed"],
            dropped_queue_full=data["dropped_queue_full"],
            rejected_deadline=data["rejected_deadline"],
            deadline_misses=data["deadline_misses"],
            slo_met=data["slo_met"],
            horizon_cycles=data["horizon_cycles"],
            throughput_rpmc=data["throughput_rpmc"],
            goodput_rpmc=data["goodput_rpmc"],
            latency=dict(data["latency"]),
            utilization=data["utilization"],
            assignment=tuple(data["assignment"]),
            per_shard=[dict(row) for row in data.get("per_shard", [])],
            details=dict(data.get("details", {})),
        )


@dataclass
class _ShardPending:
    """One queued request (``client`` is None under open-loop models)."""

    seq: int
    tenant: int
    arrival: int
    client: Optional[int] = None


@dataclass
class _ShardCore:
    """Serving-side view of one shard core."""

    core_id: int
    busy_until: int = 0
    installed: Optional[int] = None
    streak: int = 0
    busy_cycles: int = 0


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
    missing = sorted(set(local_benchmarks) - set(service_cycles))
    if missing:
        raise ConfigurationError(
            f"service_cycles is missing benchmarks: {', '.join(missing)}"
        )
    scheduler = create_policy(policy)
    local_count = len(tenants)
    stream_seed = shard_seed(seed, shard_index)
    fleet = _Fleet(config, num_cores, local_count, stream_seed)
    charge_purge = config.flush_on_context_switch
    charge_teardown = config.has_protection_hardware
    page_bytes = config.address_map.page_bytes
    # Tracing is inert: resolved once per shard simulation, timestamps
    # are event-loop cycles only, and no span reaches the outcome or
    # its cache key.
    tracer = active_tracer()
    variant = config.name
    shard_track = f"shard-{shard_index}"

    mean_service = sum(service_cycles[name] for name in local_benchmarks) / local_count

    cores = [_ShardCore(core_id=index) for index in range(num_cores)]
    pending: List[_ShardPending] = []
    in_service: set = set()
    installed_core: Dict[int, int] = {}
    latencies: List[int] = []
    completions_per_tenant: Dict[int, int] = {}
    switches = 0
    affinity_hits = 0
    charged_purge_total = 0
    charged_scrub_total = 0
    charged_wipe_total = 0
    charged_measurement_total = 0
    offered = 0
    dropped_queue_full = 0
    rejected_deadline = 0
    deadline_misses = 0
    slo_met = 0
    horizon = 0
    queue_peak = 0

    events: List[Tuple[int, int, int, Any]] = []
    wake_counter = 0
    issued = 0
    client_rng = DeterministicRng(stream_seed).fork("fleet-clients", client)
    think_mean = max(1.0, think_factor * mean_service)

    def issue(client_id: Optional[int], tenant: int, when: int) -> None:
        """Push one arrival if the shard's request budget allows it."""
        nonlocal issued
        if issued >= num_requests:
            return
        seq = issued
        issued += 1
        heapq.heappush(
            events, (when, _ARRIVAL, seq, _ShardPending(seq, tenant, when, client_id))
        )

    if model.closed_loop:
        population = closed_loop_population(load, num_cores, think_factor)
        for client_id in range(population):
            issue(
                client_id,
                client_id % local_count,
                think_gap(client_rng, think_mean),
            )
    else:
        mean_gap = max(1, int(round(mean_service / (load * num_cores))))
        for arrival in generate_arrivals(
            load_profile,
            num_requests=num_requests,
            num_tenants=local_count,
            mean_gap_cycles=mean_gap,
            seed=stream_seed,
        ):
            issue(None, arrival.tenant, arrival.time)

    def wake_at(when: int) -> None:
        """Re-run dispatch when a post-completion stall ends."""
        nonlocal wake_counter
        wake_counter += 1
        heapq.heappush(events, (when, _WAKE, wake_counter, None))

    def reissue(client_id: Optional[int], now: int) -> None:
        """Closed-loop clients think, then come back for more."""
        if client_id is None:
            return
        issue(client_id, client_id % local_count, now + think_gap(client_rng, think_mean))

    def install(core: _ShardCore, tenant: int) -> int:
        """Point ``core`` at ``tenant``'s enclave; returns charged cycles."""
        nonlocal switches, affinity_hits, charged_purge_total
        if core.installed == tenant:
            affinity_hits += 1
            return 0
        cost = 0
        if core.installed is not None:
            result = fleet.monitor.deschedule_enclave(
                fleet.enclaves[core.installed], core.core_id
            )
            installed_core.pop(core.installed, None)
            if charge_purge:
                cost += result.purge_stall_cycles
        result = fleet.monitor.schedule_enclave(fleet.enclaves[tenant], core.core_id)
        if charge_purge:
            cost += result.purge_stall_cycles
        core.installed = tenant
        core.streak = 0
        installed_core[tenant] = core.core_id
        switches += 1
        charged_purge_total += cost
        return cost

    def release(core: _ShardCore, now: int) -> None:
        """Eagerly deschedule the core's enclave (FIFO-style policies)."""
        nonlocal charged_purge_total
        if core.installed is None:
            return
        tenant = core.installed
        result = fleet.monitor.deschedule_enclave(
            fleet.enclaves[core.installed], core.core_id
        )
        installed_core.pop(core.installed, None)
        core.installed = None
        core.streak = 0
        if charge_purge:
            stall = result.purge_stall_cycles
            charged_purge_total += stall
            core.busy_until = now + stall
            core.busy_cycles += stall
            wake_at(core.busy_until)
            if tracer is not None:
                tracer.sim_span(
                    "purge-stall",
                    f"{shard_track}/core-{core.core_id}",
                    now,
                    now + stall,
                    tenant=tenant,
                    shard=shard_index,
                    variant=variant,
                )

    def churn(core: _ShardCore, tenant: int, now: int) -> None:
        """Tear down and relaunch a tenant's enclave, charging teardown.

        The scrub charge is measured from the machine's scrub counter
        (floored as in the service loop); the DRAM wipe covers the
        enclave's loaded pages plus its page table at the configured
        bandwidth, and the measurement charge re-hashes every loaded
        page on relaunch.  All three occupy the completing core.
        """
        nonlocal charged_scrub_total, charged_wipe_total, charged_measurement_total
        if core.installed == tenant:
            installed_core.pop(tenant, None)
            core.installed = None
            core.streak = 0
        scrubbed = fleet.recreate_enclave(tenant)
        if not charge_teardown:
            return
        scrub = max(MIN_SCRUB_CYCLES, scrubbed)
        loaded = len(fleet.enclaves[tenant].loaded_pages)
        wiped_bytes = (loaded + PAGE_TABLE_PAGES) * page_bytes
        wipe = (
            -(-wiped_bytes // dram_wipe_bytes_per_cycle)
            if dram_wipe_bytes_per_cycle > 0
            else 0
        )
        measurement = measurement_cycles_per_page * loaded
        charged_scrub_total += scrub
        charged_wipe_total += wipe
        charged_measurement_total += measurement
        stall = scrub + wipe + measurement
        core.busy_until = now + stall
        core.busy_cycles += stall
        wake_at(core.busy_until)
        if tracer is not None:
            tracer.sim_span(
                "teardown",
                f"{shard_track}/core-{core.core_id}",
                now,
                now + stall,
                tenant=tenant,
                shard=shard_index,
                scrub_cycles=scrub,
                wipe_cycles=wipe,
                measurement_cycles=measurement,
                variant=variant,
            )

    def estimated_wait(now: int) -> int:
        """Deterministic queue-wait estimate the admission policy sees."""
        earliest_free = min(core.busy_until for core in cores)
        backlog = (len(pending) // num_cores) * int(mean_service)
        return max(0, earliest_free - now) + backlog

    def dispatch(now: int) -> None:
        progress = True
        while progress and pending:
            progress = False
            view = QueueView(pending, in_service, installed_core)
            for core in cores:
                if core.busy_until > now or not pending:
                    continue
                choice = scheduler.pick(core, view)
                if choice is None:
                    continue
                pending.remove(choice)
                cost = install(core, choice.tenant)
                core.streak += 1
                service = service_cycles[local_benchmarks[choice.tenant]]
                completion = now + cost + service
                core.busy_until = completion
                core.busy_cycles += cost + service
                in_service.add(choice.tenant)
                heapq.heappush(events, (completion, _COMPLETE, choice.seq, (core, choice)))
                if tracer is not None:
                    track = f"{shard_track}/core-{core.core_id}"
                    tracer.sim_span(
                        "queue",
                        f"{shard_track}/queue",
                        choice.arrival,
                        now,
                        tenant=choice.tenant,
                        seq=choice.seq,
                        shard=shard_index,
                        variant=variant,
                    )
                    if cost:
                        tracer.sim_span(
                            "purge-stall",
                            track,
                            now,
                            now + cost,
                            tenant=choice.tenant,
                            seq=choice.seq,
                            shard=shard_index,
                            variant=variant,
                        )
                    tracer.sim_span(
                        "execute",
                        track,
                        now + cost,
                        completion,
                        tenant=choice.tenant,
                        seq=choice.seq,
                        shard=shard_index,
                        variant=variant,
                    )
                progress = True

    while events:
        now, kind, _seq, payload = heapq.heappop(events)
        if kind == _ARRIVAL:
            offered += 1
            reason = admit(
                admission,
                AdmissionContext(
                    now=now,
                    queue_length=len(pending),
                    queue_depth=queue_depth,
                    service_cycles=service_cycles[local_benchmarks[payload.tenant]],
                    estimated_wait_cycles=estimated_wait(now),
                    slo_cycles=slo_cycles,
                ),
            )
            if tracer is not None:
                tracer.sim_event(
                    "admit",
                    f"{shard_track}/admission",
                    now,
                    outcome=reason if reason is not None else "admitted",
                    tenant=payload.tenant,
                    seq=payload.seq,
                    shard=shard_index,
                    variant=variant,
                )
            if reason == REJECT_QUEUE_FULL:
                dropped_queue_full += 1
                reissue(payload.client, now)
            elif reason is not None:
                rejected_deadline += 1
                reissue(payload.client, now)
            else:
                # Arrival pops come off the heap in time order, so
                # appending keeps `pending` time-ordered — the order
                # every scheduling policy scans in.
                pending.append(payload)
                queue_peak = max(queue_peak, len(pending))
        elif kind == _COMPLETE:
            core, request = payload
            in_service.discard(request.tenant)
            latency = now - request.arrival
            latencies.append(latency)
            if latency <= slo_cycles:
                slo_met += 1
            else:
                deadline_misses += 1
            if tracer is not None:
                tracer.sim_event(
                    "complete",
                    f"{shard_track}/core-{core.core_id}",
                    now,
                    tenant=request.tenant,
                    seq=request.seq,
                    latency_cycles=latency,
                    slo_met=latency <= slo_cycles,
                    shard=shard_index,
                    variant=variant,
                )
            horizon = max(horizon, now)
            tally = completions_per_tenant.get(request.tenant, 0) + 1
            completions_per_tenant[request.tenant] = tally
            if churn_every and tally % churn_every == 0:
                churn(core, request.tenant, now)
            elif scheduler.eager_release:
                release(core, now)
            reissue(request.client, now)
        dispatch(now)

    horizon = max(horizon, 1)
    busy_total = sum(core.busy_cycles for core in cores)
    return ShardOutcome(
        shard=shard_index,
        tenants=tenants,
        offered=offered,
        admitted=offered - dropped_queue_full - rejected_deadline,
        completed=len(latencies),
        dropped_queue_full=dropped_queue_full,
        rejected_deadline=rejected_deadline,
        deadline_misses=deadline_misses,
        slo_met=slo_met,
        horizon_cycles=horizon,
        busy_cycles=busy_total,
        utilization=busy_total / (num_cores * horizon),
        switches=switches,
        affinity_hits=affinity_hits,
        queue_peak=queue_peak,
        charged_purge_cycles=charged_purge_total,
        charged_scrub_cycles=charged_scrub_total,
        charged_wipe_cycles=charged_wipe_total,
        charged_measurement_cycles=charged_measurement_total,
        latencies=tuple(sorted(latencies)),
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
