"""The discrete-event enclave-serving simulation.

One simulation serves an open-loop request stream on one simulated MI6
machine: every tenant is a real enclave created through the
:class:`~repro.monitor.security_monitor.SecurityMonitor`, every
placement decision goes through ``schedule_enclave`` /
``deschedule_enclave`` (so the monitor's invariants — and its purges —
are exercised functionally on every switch), and per-request service
demand is the cycle count of the tenant's calibrated workload on this
exact machine configuration, taken from the cycle kernel.

Timing model (all integer cycles):

* **service** — ``service_cycles[benchmark]``: the cycles the cycle
  kernel measured for the tenant's workload at the configured
  per-request instruction budget (cached through the result store by
  the engine, so the event loop never simulates the kernel itself);
* **purge stalls** — the monitor purges the core on every schedule and
  deschedule; the stall (512 cycles — Section 7.1) is *charged* to the
  request's critical path when the configuration flushes on context
  switch (the FLUSH mitigation), mirroring how the figure sweeps and
  the ``branch_residue`` scenario isolate that cost;
* **flush penalties** — on tenant churn the monitor destroys and
  recreates the enclave, scrubbing its DRAM regions' LLC sets; the
  scrub (one line per cycle, measured from the machine's actual scrub
  counter) is charged on MI6 builds.

Determinism: arrivals are precomputed from the seed, the event queue
breaks ties on (time, kind, seq), and every cost is an integer derived
from the configuration — a simulation is a pure function of its
parameters, bit-identical across processes (the engine's
serial==parallel guarantee) and across the JSON round-trip through the
result store.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.core.config import MI6Config
from repro.monitor.enclave import Enclave
from repro.obs.trace import active_tracer
from repro.monitor.security_monitor import SecurityMonitor
from repro.os_model.kernel import UntrustedOS
from repro.os_model.machine import Machine
from repro.service.arrivals import generate_arrivals
from repro.service.metrics import summarize_latencies, throughput_per_mcycle
from repro.service.schedulers import QueueView, create_policy
from repro.workloads.spec_cint2006 import benchmark_names

#: Default instruction budget of one request (kept short: fine-grained
#: serving is exactly where the per-switch boundary costs surface).
DEFAULT_SERVICE_INSTRUCTIONS = 2_000
#: Default open-loop requests per simulation.
DEFAULT_SERVICE_REQUESTS = 300
#: Default machine size of the serving fleet.
DEFAULT_SERVICE_CORES = 4
#: Default tenant count (more tenants than cores, so scheduling policies
#: actually contend — with one core per tenant affinity is trivially
#: perfect and the policies converge).
DEFAULT_SERVICE_TENANTS = 6

#: Floor on the charged LLC scrub penalty per churned region (a scrub
#: walks the region's sets even when few lines are resident).
MIN_SCRUB_CYCLES = 64

#: Event-kind ranks: completions free cores first, then stall-end wakes,
#: then simultaneous arrivals are dispatched.
_COMPLETE, _WAKE, _ARRIVAL = 0, 1, 2


def tenant_benchmarks(num_tenants: int) -> Tuple[str, ...]:
    """The workload profile of each tenant (paper benchmarks, cycled)."""
    names = benchmark_names()
    return tuple(names[index % len(names)] for index in range(num_tenants))


@dataclass(frozen=True)
class ServiceOutcome:
    """Result of one serving simulation (JSON-serialisable for the store).

    Attributes:
        policy: Scheduling-policy name.
        variant: Machine configuration name the fleet ran on.
        seed: Seed of the arrival process and the workload runs.
        load: Offered load (fraction of fleet service capacity).
        load_profile: Arrival-process profile name.
        num_cores: Cores of the serving machine.
        num_tenants: Tenant enclaves sharing the machine.
        requests: Requests served (open loop, all complete).
        horizon_cycles: Cycle the last request completed at.
        throughput_rpmc: Completed requests per million cycles.
        latency: p50/p95/p99/mean/min/max request latency (cycles).
        utilization: Busy fraction of the fleet over the horizon.
        switches: Enclave context switches (schedule after a different
            tenant, or after a release).
        affinity_hits: Requests served with the tenant already installed
            (no monitor call, no purge).
        purge_count: Monitor purges executed (functional truth from the
            machine's cores — the monitor always purges).
        purge_stall_cycles: Functional purge stall cycles accumulated by
            the cores.
        charged_purge_cycles: Purge cycles actually charged to request
            latency (non-zero only when the configuration flushes on
            context switch).
        charged_flush_cycles: LLC scrub cycles charged on tenant churn.
        per_core: Per-core audit rows (purge count, stall cycles, busy
            cycles, charged cycles).
        details: Further diagnostic values (JSON scalars).
    """

    policy: str
    variant: str
    seed: int
    load: float
    load_profile: str
    num_cores: int
    num_tenants: int
    requests: int
    horizon_cycles: int
    throughput_rpmc: float
    latency: Dict[str, Any]
    utilization: float
    switches: int
    affinity_hits: int
    purge_count: int
    purge_stall_cycles: int
    charged_purge_cycles: int
    charged_flush_cycles: int
    per_core: List[Dict[str, int]] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def purge_share(self) -> float:
        """Charged purge cycles as a fraction of fleet busy time."""
        busy = sum(row["busy_cycles"] for row in self.per_core)
        return self.charged_purge_cycles / busy if busy else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible encoding (stable round-trip)."""
        return {
            "policy": self.policy,
            "variant": self.variant,
            "seed": self.seed,
            "load": self.load,
            "load_profile": self.load_profile,
            "num_cores": self.num_cores,
            "num_tenants": self.num_tenants,
            "requests": self.requests,
            "horizon_cycles": self.horizon_cycles,
            "throughput_rpmc": self.throughput_rpmc,
            "latency": dict(self.latency),
            "utilization": self.utilization,
            "switches": self.switches,
            "affinity_hits": self.affinity_hits,
            "purge_count": self.purge_count,
            "purge_stall_cycles": self.purge_stall_cycles,
            "charged_purge_cycles": self.charged_purge_cycles,
            "charged_flush_cycles": self.charged_flush_cycles,
            "per_core": [dict(row) for row in self.per_core],
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> ServiceOutcome:
        """Rebuild an outcome from :meth:`to_dict` output."""
        return cls(
            policy=data["policy"],
            variant=data["variant"],
            seed=data["seed"],
            load=data["load"],
            load_profile=data["load_profile"],
            num_cores=data["num_cores"],
            num_tenants=data["num_tenants"],
            requests=data["requests"],
            horizon_cycles=data["horizon_cycles"],
            throughput_rpmc=data["throughput_rpmc"],
            latency=dict(data["latency"]),
            utilization=data["utilization"],
            switches=data["switches"],
            affinity_hits=data["affinity_hits"],
            purge_count=data["purge_count"],
            purge_stall_cycles=data["purge_stall_cycles"],
            charged_purge_cycles=data["charged_purge_cycles"],
            charged_flush_cycles=data["charged_flush_cycles"],
            per_core=[dict(row) for row in data.get("per_core", [])],
            details=dict(data.get("details", {})),
        )


@dataclass
class _Pending:
    """One queued request."""

    seq: int
    tenant: int
    arrival: int


@dataclass
class _CoreState:
    """Serving-side view of one core."""

    core_id: int
    busy_until: int = 0
    installed: Optional[int] = None  # tenant id of the resident enclave
    streak: int = 0
    busy_cycles: int = 0
    charged_purge_cycles: int = 0
    charged_flush_cycles: int = 0


class _Fleet:
    """The machine, monitor, and tenant enclaves behind one simulation."""

    def __init__(self, config: MI6Config, num_cores: int, num_tenants: int, seed: int) -> None:
        num_regions = config.address_map.num_regions
        if num_tenants > num_regions - 2:
            raise ConfigurationError(
                f"{num_tenants} tenants need {num_tenants} DRAM regions but only "
                f"{num_regions - 2} are free (monitor PAR + OS region reserved)"
            )
        self.machine = Machine(config=config, num_cores=num_cores, seed=seed)
        self.monitor = SecurityMonitor(self.machine)
        # The OS keeps a single high region; everything between the
        # monitor's PAR (region 0) and it is tenant-allocatable.
        self.os = UntrustedOS(
            self.machine, self.monitor, os_regions={num_regions - 1}
        )
        self.enclaves: Dict[int, Enclave] = {
            tenant: self._create_enclave(tenant) for tenant in range(num_tenants)
        }

    def _create_enclave(self, tenant: int) -> Enclave:
        enclave = self.monitor.create_enclave({1 + tenant}, entry_point=0x1000)
        self.monitor.load_enclave_page(
            enclave, 0x1000, f"tenant-{tenant} service handler".encode()
        )
        self.monitor.finalize_measurement(enclave)
        return enclave

    def recreate_enclave(self, tenant: int) -> int:
        """Destroy and relaunch a tenant's enclave (churn).

        Returns the LLC lines actually scrubbed while the tenant's DRAM
        regions changed hands, read from the machine's scrub counter.
        """
        scrubbed_before = self.machine.stats.value("llc.region_scrub_lines")
        self.monitor.destroy_enclave(self.enclaves[tenant])
        self.enclaves[tenant] = self._create_enclave(tenant)
        scrubbed_after = self.machine.stats.value("llc.region_scrub_lines")
        return int(scrubbed_after - scrubbed_before)


def run_service(
    config: MI6Config,
    policy: str,
    *,
    service_cycles: Mapping[str, int],
    seed: int,
    load: float = 0.7,
    load_profile: str = "poisson",
    num_cores: int = DEFAULT_SERVICE_CORES,
    num_tenants: int = DEFAULT_SERVICE_TENANTS,
    num_requests: int = DEFAULT_SERVICE_REQUESTS,
    instructions: int = DEFAULT_SERVICE_INSTRUCTIONS,
    churn_every: int = 0,
) -> ServiceOutcome:
    """Serve an open-loop request stream on one simulated MI6 machine.

    Args:
        config: Machine configuration (any mitigation combination).
        policy: Scheduling-policy name (see
            :func:`repro.service.schedulers.policy_names`).
        service_cycles: Benchmark -> cycles of one request's workload on
            this configuration (the engine resolves this table through
            the result store; see
            :func:`repro.analysis.engine.resolve_service_cycles`).
        seed: Arrival-process / machine seed.
        load: Offered load as a fraction of fleet service capacity
            (switch costs come on top, so a FLUSH machine saturates
            below ``load=1.0``).
        load_profile: Arrival profile (``poisson``/``bursty``/``diurnal``).
        num_cores: Serving cores of the machine.
        num_tenants: Tenant enclaves sharing the machine.
        num_requests: Requests to serve.
        instructions: Per-request instruction budget (recorded for
            provenance; the cycle costs already reflect it).
        churn_every: Destroy and recreate a tenant's enclave after this
            many of its completions (0 disables churn).
    """
    if load <= 0.0:
        raise ConfigurationError("load must be positive")
    if num_cores < 1:
        raise ConfigurationError("num_cores must be positive")
    if num_tenants < 1:
        raise ConfigurationError("num_tenants must be positive")
    if churn_every < 0:
        raise ConfigurationError("churn_every must be non-negative")
    benchmarks = tenant_benchmarks(num_tenants)
    missing = sorted(set(benchmarks) - set(service_cycles))
    if missing:
        raise ConfigurationError(
            f"service_cycles is missing benchmarks: {', '.join(missing)}"
        )
    scheduler = create_policy(policy)
    fleet = _Fleet(config, num_cores, num_tenants, seed)
    charge_purge = config.flush_on_context_switch
    charge_flush = config.has_protection_hardware
    # Tracing is inert: the tracer is resolved once per simulation (not
    # per event), span timestamps come from the event loop's integer
    # cycle counter only, and nothing recorded here reaches the outcome
    # or its cache key.
    tracer = active_tracer()
    variant = config.name

    mean_service = sum(service_cycles[name] for name in benchmarks) / num_tenants
    mean_gap = max(1, int(round(mean_service / (load * num_cores))))
    arrivals = generate_arrivals(
        load_profile,
        num_requests=num_requests,
        num_tenants=num_tenants,
        mean_gap_cycles=mean_gap,
        seed=seed,
    )

    cores = [_CoreState(core_id=index) for index in range(num_cores)]
    pending: List[_Pending] = []
    in_service: set = set()
    installed_core: Dict[int, int] = {}
    latencies: List[int] = []
    completions_per_tenant: Dict[int, int] = {}
    switches = 0
    affinity_hits = 0
    charged_purge_total = 0
    charged_flush_total = 0
    horizon = 0
    queue_peak = 0

    events: List[Tuple[int, int, int, Any]] = []
    for seq, arrival in enumerate(arrivals):
        heapq.heappush(
            events, (arrival.time, _ARRIVAL, seq, _Pending(seq, arrival.tenant, arrival.time))
        )
    wake_counter = 0

    def wake_at(when: int) -> None:
        """Re-run dispatch when a post-completion stall ends.

        A release or scrub stall pushes ``busy_until`` past the current
        event time; without a wake event a stalled core could strand
        queued requests once the arrival stream has drained.
        """
        nonlocal wake_counter
        wake_counter += 1
        heapq.heappush(events, (when, _WAKE, wake_counter, None))

    def charge(core: _CoreState, stall: int, *, flush: bool = False) -> int:
        nonlocal charged_purge_total, charged_flush_total
        if flush:
            core.charged_flush_cycles += stall
            charged_flush_total += stall
        else:
            core.charged_purge_cycles += stall
            charged_purge_total += stall
        return stall

    def install(core: _CoreState, tenant: int) -> int:
        """Point ``core`` at ``tenant``'s enclave; returns charged cycles."""
        nonlocal switches, affinity_hits
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
                cost += charge(core, result.purge_stall_cycles)
        result = fleet.monitor.schedule_enclave(fleet.enclaves[tenant], core.core_id)
        if charge_purge:
            cost += charge(core, result.purge_stall_cycles)
        core.installed = tenant
        core.streak = 0
        installed_core[tenant] = core.core_id
        switches += 1
        return cost

    def release(core: _CoreState, now: int) -> None:
        """Eagerly deschedule the core's enclave (FIFO-style policies)."""
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
            stall = charge(core, result.purge_stall_cycles)
            core.busy_until = now + stall
            core.busy_cycles += stall
            wake_at(core.busy_until)
            if tracer is not None:
                tracer.sim_span(
                    "purge-stall",
                    f"service/core-{core.core_id}",
                    now,
                    now + stall,
                    tenant=tenant,
                    variant=variant,
                )

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
                service = service_cycles[benchmarks[choice.tenant]]
                completion = now + cost + service
                core.busy_until = completion
                core.busy_cycles += cost + service
                in_service.add(choice.tenant)
                heapq.heappush(events, (completion, _COMPLETE, choice.seq, (core, choice)))
                if tracer is not None:
                    track = f"service/core-{core.core_id}"
                    tracer.sim_span(
                        "queue",
                        "service/queue",
                        choice.arrival,
                        now,
                        tenant=choice.tenant,
                        seq=choice.seq,
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
                            variant=variant,
                        )
                    tracer.sim_span(
                        "execute",
                        track,
                        now + cost,
                        completion,
                        tenant=choice.tenant,
                        seq=choice.seq,
                        variant=variant,
                    )
                progress = True

    while events:
        now, kind, _seq, payload = heapq.heappop(events)
        if kind == _ARRIVAL:
            # Arrival pops come off the heap in (time, seq) order and
            # arrival times are nondecreasing in seq, so appending keeps
            # `pending` in seq order — the order every policy scans in.
            pending.append(payload)
            queue_peak = max(queue_peak, len(pending))
        elif kind == _COMPLETE:
            core, request = payload
            in_service.discard(request.tenant)
            latencies.append(now - request.arrival)
            if tracer is not None:
                tracer.sim_event(
                    "complete",
                    f"service/core-{core.core_id}",
                    now,
                    tenant=request.tenant,
                    seq=request.seq,
                    latency_cycles=now - request.arrival,
                    variant=variant,
                )
            horizon = max(horizon, now)
            tally = completions_per_tenant.get(request.tenant, 0) + 1
            completions_per_tenant[request.tenant] = tally
            if churn_every and tally % churn_every == 0:
                # Tenant churn: the enclave is torn down and relaunched;
                # the monitor deschedules (the core frees), scrubs the
                # regions' LLC sets, and the scrub occupies the core.
                if core.installed == request.tenant:
                    installed_core.pop(request.tenant, None)
                    core.installed = None
                    core.streak = 0
                scrubbed = fleet.recreate_enclave(request.tenant)
                if charge_flush:
                    stall = charge(core, max(MIN_SCRUB_CYCLES, scrubbed), flush=True)
                    core.busy_until = now + stall
                    core.busy_cycles += stall
                    wake_at(core.busy_until)
                    if tracer is not None:
                        tracer.sim_span(
                            "scrub",
                            f"service/core-{core.core_id}",
                            now,
                            now + stall,
                            tenant=request.tenant,
                            variant=variant,
                        )
            elif scheduler.eager_release:
                release(core, now)
        dispatch(now)

    audit = fleet.machine.purge_audit()
    per_core = [
        {
            "core": core.core_id,
            "purge_count": audit[core.core_id]["purge_count"],
            "purge_stall_cycles": audit[core.core_id]["purge_stall_cycles"],
            "busy_cycles": core.busy_cycles,
            "charged_purge_cycles": core.charged_purge_cycles,
            "charged_flush_cycles": core.charged_flush_cycles,
        }
        for core in cores
    ]
    horizon = max(horizon, 1)
    busy_total = sum(core.busy_cycles for core in cores)
    return ServiceOutcome(
        policy=policy,
        variant=config.name,
        seed=seed,
        load=load,
        load_profile=load_profile,
        num_cores=num_cores,
        num_tenants=num_tenants,
        requests=len(latencies),
        horizon_cycles=horizon,
        throughput_rpmc=throughput_per_mcycle(len(latencies), horizon),
        latency=summarize_latencies(latencies),
        utilization=busy_total / (num_cores * horizon),
        switches=switches,
        affinity_hits=affinity_hits,
        purge_count=sum(row["purge_count"] for row in per_core),
        purge_stall_cycles=sum(row["purge_stall_cycles"] for row in per_core),
        charged_purge_cycles=charged_purge_total,
        charged_flush_cycles=charged_flush_total,
        per_core=per_core,
        details={
            "mean_gap_cycles": mean_gap,
            "mean_service_cycles": mean_service,
            "queue_peak": queue_peak,
            "instructions_per_request": instructions,
            "churn_every": churn_every,
            "tenant_benchmarks": list(benchmarks),
            "service_cycles": {name: service_cycles[name] for name in sorted(set(benchmarks))},
        },
    )
