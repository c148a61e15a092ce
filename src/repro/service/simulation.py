"""The discrete-event enclave-serving loop and its one-machine adapter.

:func:`serve` is the serving event loop: it serves a request stream on
one simulated MI6 machine.  Every tenant is a real enclave created
through the :class:`~repro.monitor.security_monitor.SecurityMonitor`,
every placement decision goes through ``schedule_enclave`` /
``deschedule_enclave`` (so the monitor's invariants — and its purges —
are exercised functionally on every switch), and per-request service
demand is the cycle count of the tenant's calibrated workload on this
exact machine configuration, taken from the cycle kernel.

The loop owns the event heap, dispatch, the purges, churn teardown and
the simulated-cycle spans.  Request generation stays with the caller,
which hands in the initial arrivals and, optionally, an admission gate
and a closed-loop think time.  Two adapters drive it:

* :func:`run_service` — one machine under open-loop arrivals: every
  arrival is admitted and churn charges the LLC scrub alone;
* :func:`repro.fleet.simulation.run_fleet_shard` — one shard of a fleet:
  a bounded queue behind an admission gate, open- or closed-loop
  clients, and DRAM-wipe and measurement charges on churn.

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
* **teardown** — on tenant churn the monitor destroys and recreates the
  enclave, scrubbing its DRAM regions' LLC sets.  Protected builds
  charge the scrub (one line per cycle, measured from the machine's
  actual scrub counter), the DRAM wipe and the re-measurement
  (:func:`teardown_cycles`).

Determinism: arrivals are precomputed from the seed (closed-loop think
times come from a seeded stream), the event queue breaks ties on
(time, kind, seq), and every cost is an integer derived from the
configuration — a simulation is a pure function of its parameters,
bit-identical across processes (the engine's serial==parallel
guarantee) and across the JSON round-trip through the result store.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.defaults import (
    DEFAULT_SERVICE_CORES,
    DEFAULT_SERVICE_INSTRUCTIONS,
    DEFAULT_SERVICE_REQUESTS,
    DEFAULT_SERVICE_TENANTS,
)
from repro.common.errors import ConfigurationError
from repro.core.config import MI6Config
from repro.core.serialization import OutcomeDocument
from repro.monitor.enclave import Enclave
from repro.obs.trace import active_tracer
from repro.monitor.security_monitor import SecurityMonitor
from repro.os_model.kernel import UntrustedOS
from repro.os_model.machine import Machine
from repro.service.arrivals import Arrival, generate_arrivals
from repro.service.metrics import summarize_latencies, throughput_per_mcycle
from repro.service.schedulers import QueueView, create_policy
from repro.workloads.spec_cint2006 import tenant_benchmarks

#: Floor on the charged LLC scrub penalty per churned region (a scrub
#: walks the region's sets even when few lines are resident).
MIN_SCRUB_CYCLES = 64

#: Page-table pages the monitor charges per enclave (mirrors the
#: security monitor's ``used_pages`` accounting).
PAGE_TABLE_PAGES = 8

#: Event-kind ranks: completions free cores first, then stall-end wakes,
#: then simultaneous arrivals are dispatched.
_COMPLETE, _WAKE, _ARRIVAL = 0, 1, 2

#: ``gate(now, queue_length, earliest_free_cycle, service_cycles)``:
#: ``None`` admits the arriving request, a string rejects it and names
#: the reason it is counted under.
AdmissionGate = Callable[[int, int, int, int], Optional[str]]


def mean_service_cycles(service_cycles: Mapping[str, int], benchmarks: Sequence[str]) -> float:
    """Mean per-request demand over ``benchmarks`` (each must be priced)."""
    missing = sorted(set(benchmarks) - set(service_cycles))
    if missing:
        raise ConfigurationError(
            f"service_cycles is missing benchmarks: {', '.join(missing)}"
        )
    return sum(service_cycles[name] for name in benchmarks) / len(benchmarks)


def teardown_cycles(
    config: MI6Config,
    *,
    scrubbed_lines: int,
    loaded_pages: int,
    dram_wipe_bytes_per_cycle: int,
    measurement_cycles_per_page: int,
) -> Tuple[int, int, int]:
    """``(scrub, wipe, measurement)`` cycles of one churn teardown.

    The scrub charges the LLC lines actually scrubbed, floored at
    :data:`MIN_SCRUB_CYCLES`; the DRAM wipe covers the enclave's loaded
    pages plus its page table at the configured bandwidth (0 disables
    it); the measurement re-hashes every loaded page on relaunch.
    """
    wiped_bytes = (loaded_pages + PAGE_TABLE_PAGES) * config.address_map.page_bytes
    wipe = (
        -(-wiped_bytes // dram_wipe_bytes_per_cycle)
        if dram_wipe_bytes_per_cycle > 0
        else 0
    )
    return (
        max(MIN_SCRUB_CYCLES, scrubbed_lines),
        wipe,
        measurement_cycles_per_page * loaded_pages,
    )


@dataclass(frozen=True)
class ServiceOutcome(OutcomeDocument):
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


@dataclass(eq=False)
class _Pending:
    """One queued request (``client`` is None for open-loop arrivals).

    Compared by identity: every request is its own queue entry.
    """

    seq: int
    tenant: int
    arrival: int
    client: Optional[int] = None


@dataclass
class _CoreState:
    """Serving-side view of one core."""

    core_id: int
    busy_until: int = 0
    installed: Optional[int] = None  # tenant id of the resident enclave
    streak: int = 0
    busy_cycles: int = 0
    charged_purge_cycles: int = 0
    charged_teardown_cycles: int = 0


class _TenantMachine:
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


@dataclass
class ServedStream:
    """What one :func:`serve` run observed, for an adapter to report.

    Attributes:
        machine: The simulated machine (its ``purge_audit()`` is the
            functional purge truth).
        cores: Per-core serving state.
        latencies: Completed requests' latencies, in completion order.
        rejections: Rejected arrivals per gate reason.
        offered: Arrivals that reached the admission point.
        switches: Enclave context switches.
        affinity_hits: Requests served with the tenant already installed.
        queue_peak: Longest the pending queue grew.
        horizon_cycles: Cycle the last request completed at (at least 1).
        charged_scrub_cycles: Teardown LLC-scrub cycles charged.
        charged_wipe_cycles: Teardown DRAM-wipe cycles charged.
        charged_measurement_cycles: Relaunch measurement cycles charged.
    """

    machine: Machine
    cores: List[_CoreState]
    latencies: List[int] = field(default_factory=list)
    rejections: Dict[str, int] = field(default_factory=dict)
    offered: int = 0
    switches: int = 0
    affinity_hits: int = 0
    queue_peak: int = 0
    horizon_cycles: int = 1
    charged_scrub_cycles: int = 0
    charged_wipe_cycles: int = 0
    charged_measurement_cycles: int = 0

    @property
    def busy_cycles(self) -> int:
        """Cycles the cores spent serving, stalled, or tearing down."""
        return sum(core.busy_cycles for core in self.cores)

    @property
    def utilization(self) -> float:
        """Busy fraction of the machine over the horizon."""
        return self.busy_cycles / (len(self.cores) * self.horizon_cycles)

    @property
    def charged_purge_cycles(self) -> int:
        """Purge stall cycles charged to requests and releases."""
        return sum(core.charged_purge_cycles for core in self.cores)


def serve(
    config: MI6Config,
    policy: str,
    *,
    service_cycles: Mapping[str, int],
    benchmarks: Sequence[str],
    seed: int,
    num_cores: int,
    arrivals: Iterable[Arrival],
    num_requests: int,
    churn_every: int = 0,
    dram_wipe_bytes_per_cycle: int = 0,
    measurement_cycles_per_page: int = 0,
    gate: Optional[AdmissionGate] = None,
    think: Optional[Callable[[], int]] = None,
    slo_cycles: Optional[int] = None,
    track: str = "service",
    labels: Optional[Mapping[str, Any]] = None,
) -> ServedStream:
    """Serve a request stream on one simulated MI6 machine.

    The adapters validate their parameters before calling this.

    Args:
        config: Machine configuration (any mitigation combination).
        policy: Scheduling-policy name (see
            :func:`repro.service.schedulers.policy_names`).
        service_cycles: Benchmark -> cycles of one request's workload on
            this configuration; every entry of ``benchmarks`` is priced.
        benchmarks: Workload of each tenant, by machine-local tenant id.
        seed: Machine seed.
        num_cores: Serving cores of the machine.
        arrivals: The initial arrivals, in time order.
        num_requests: Request budget: arrivals past it are never issued.
        churn_every: Destroy and recreate a tenant's enclave after this
            many of its completions (0 disables churn).
        dram_wipe_bytes_per_cycle: DRAM-wipe bandwidth of a churn
            teardown (0 charges no wipe).
        measurement_cycles_per_page: Measurement cost per loaded page on
            relaunch.
        gate: Admission check every arrival passes before it may queue
            (``None`` admits everything).
        think: Closed-loop think time: a client whose request completes
            or is rejected issues its next one ``think()`` cycles later.
        slo_cycles: Latency SLO; completion spans then carry ``slo_met``.
        track: Prefix of the trace tracks.
        labels: Extra arguments tagged on every span.
    """
    scheduler = create_policy(policy)
    host = _TenantMachine(config, num_cores, len(benchmarks), seed)
    charge_purge = config.flush_on_context_switch
    charge_teardown = config.has_protection_hardware
    # Tracing is inert: the tracer is resolved once per simulation (not
    # per event), span timestamps come from the event loop's integer
    # cycle counter only, and nothing recorded here reaches the outcome
    # or its cache key.
    tracer = active_tracer()
    tags = {**(labels or {}), "variant": config.name}

    cores = [_CoreState(core_id=index) for index in range(num_cores)]
    stream = ServedStream(machine=host.machine, cores=cores)
    pending: List[_Pending] = []
    in_service: set = set()
    installed_core: Dict[int, int] = {}
    completions_per_tenant: Dict[int, int] = {}

    events: List[Tuple[int, int, int, Any]] = []
    issued = 0
    wake_counter = 0

    def issue(when: int, tenant: int, client: Optional[int]) -> None:
        """Push one arrival if the request budget allows it."""
        nonlocal issued
        if issued >= num_requests:
            return
        heapq.heappush(events, (when, _ARRIVAL, issued, _Pending(issued, tenant, when, client)))
        issued += 1

    def reissue(request: _Pending, now: int) -> None:
        """Closed-loop clients think, then come back for more."""
        if think is not None and request.client is not None:
            issue(now + think(), request.tenant, request.client)

    def wake_at(when: int) -> None:
        """Re-run dispatch when a post-completion stall ends.

        A release or teardown stall pushes ``busy_until`` past the
        current event time; without a wake event a stalled core could
        strand queued requests once the arrival stream has drained.
        """
        nonlocal wake_counter
        wake_counter += 1
        heapq.heappush(events, (when, _WAKE, wake_counter, None))

    def occupy(core: _CoreState, now: int, stall: int) -> None:
        """Hold ``core`` for a post-completion stall."""
        core.busy_until = now + stall
        core.busy_cycles += stall
        wake_at(core.busy_until)

    def evict(core: _CoreState) -> None:
        """Forget the enclave installed on ``core``."""
        installed_core.pop(core.installed, None)
        core.installed = None
        core.streak = 0

    def span(name: str, where: str, start: int, end: int, **args: Any) -> None:
        """Record a simulated-cycle span on this machine's ``where`` track."""
        if tracer is not None:
            tracer.sim_span(name, f"{track}/{where}", start, end, **args, **tags)

    def install(core: _CoreState, tenant: int) -> int:
        """Point ``core`` at ``tenant``'s enclave; returns charged cycles."""
        if core.installed == tenant:
            stream.affinity_hits += 1
            return 0
        cost = 0
        if core.installed is not None:
            result = host.monitor.deschedule_enclave(
                host.enclaves[core.installed], core.core_id
            )
            installed_core.pop(core.installed, None)
            if charge_purge:
                cost += result.purge_stall_cycles
        result = host.monitor.schedule_enclave(host.enclaves[tenant], core.core_id)
        if charge_purge:
            cost += result.purge_stall_cycles
        core.installed = tenant
        core.streak = 0
        installed_core[tenant] = core.core_id
        stream.switches += 1
        core.charged_purge_cycles += cost
        return cost

    def release(core: _CoreState, now: int) -> None:
        """Eagerly deschedule the core's enclave (FIFO-style policies)."""
        if core.installed is None:
            return
        tenant = core.installed
        result = host.monitor.deschedule_enclave(host.enclaves[tenant], core.core_id)
        evict(core)
        if charge_purge:
            stall = result.purge_stall_cycles
            core.charged_purge_cycles += stall
            occupy(core, now, stall)
            if tracer is not None:
                span("purge-stall", f"core-{core.core_id}", now, now + stall, tenant=tenant)

    def churn(core: _CoreState, tenant: int, now: int) -> None:
        """Tear down and relaunch a tenant's enclave, charging teardown.

        The monitor deschedules the enclave (the core frees), scrubs its
        regions' LLC sets and relaunches it; on protected builds the
        teardown charge (:func:`teardown_cycles`) occupies the core.
        """
        if core.installed == tenant:
            evict(core)
        scrubbed = host.recreate_enclave(tenant)
        if not charge_teardown:
            return
        scrub, wipe, measurement = teardown_cycles(
            config,
            scrubbed_lines=scrubbed,
            loaded_pages=len(host.enclaves[tenant].loaded_pages),
            dram_wipe_bytes_per_cycle=dram_wipe_bytes_per_cycle,
            measurement_cycles_per_page=measurement_cycles_per_page,
        )
        stream.charged_scrub_cycles += scrub
        stream.charged_wipe_cycles += wipe
        stream.charged_measurement_cycles += measurement
        stall = scrub + wipe + measurement
        core.charged_teardown_cycles += stall
        occupy(core, now, stall)
        if tracer is not None:
            span(
                "teardown",
                f"core-{core.core_id}",
                now,
                now + stall,
                tenant=tenant,
                scrub_cycles=scrub,
                wipe_cycles=wipe,
                measurement_cycles=measurement,
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
                    on_core = f"core-{core.core_id}"
                    ids = {"tenant": choice.tenant, "seq": choice.seq}
                    span("queue", "queue", choice.arrival, now, **ids)
                    if cost:
                        span("purge-stall", on_core, now, now + cost, **ids)
                    span("execute", on_core, now + cost, completion, **ids)
                progress = True

    for arrival in arrivals:
        issue(arrival.time, arrival.tenant, arrival.client)

    while events:
        now, kind, _seq, payload = heapq.heappop(events)
        if kind == _ARRIVAL:
            stream.offered += 1
            reason: Optional[str] = None
            if gate is not None:
                reason = gate(
                    now,
                    len(pending),
                    min(core.busy_until for core in cores),
                    service_cycles[benchmarks[payload.tenant]],
                )
                if tracer is not None:
                    span(
                        "admit",
                        "admission",
                        now,
                        now,
                        outcome=reason if reason is not None else "admitted",
                        tenant=payload.tenant,
                        seq=payload.seq,
                    )
            if reason is None:
                # Arrival pops come off the heap in time order, so
                # appending keeps `pending` time-ordered — the order
                # every scheduling policy scans in.
                pending.append(payload)
                stream.queue_peak = max(stream.queue_peak, len(pending))
            else:
                stream.rejections[reason] = stream.rejections.get(reason, 0) + 1
                reissue(payload, now)
        elif kind == _COMPLETE:
            core, request = payload
            in_service.discard(request.tenant)
            latency = now - request.arrival
            stream.latencies.append(latency)
            if tracer is not None:
                verdict: Dict[str, bool] = (
                    {} if slo_cycles is None else {"slo_met": latency <= slo_cycles}
                )
                span(
                    "complete",
                    f"core-{core.core_id}",
                    now,
                    now,
                    tenant=request.tenant,
                    seq=request.seq,
                    latency_cycles=latency,
                    **verdict,
                )
            stream.horizon_cycles = max(stream.horizon_cycles, now)
            tally = completions_per_tenant.get(request.tenant, 0) + 1
            completions_per_tenant[request.tenant] = tally
            if churn_every and tally % churn_every == 0:
                churn(core, request.tenant, now)
            elif scheduler.eager_release:
                release(core, now)
            reissue(request, now)
        dispatch(now)
    return stream


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

    The one-machine adapter over :func:`serve`: every arrival is
    admitted, and churn charges the LLC scrub with no DRAM-wipe or
    measurement cycles.

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
    mean_service = mean_service_cycles(service_cycles, benchmarks)
    mean_gap = max(1, int(round(mean_service / (load * num_cores))))
    stream = serve(
        config,
        policy,
        service_cycles=service_cycles,
        benchmarks=benchmarks,
        seed=seed,
        num_cores=num_cores,
        arrivals=generate_arrivals(
            load_profile,
            num_requests=num_requests,
            num_tenants=num_tenants,
            mean_gap_cycles=mean_gap,
            seed=seed,
        ),
        num_requests=num_requests,
        churn_every=churn_every,
    )
    audit = stream.machine.purge_audit()
    per_core = [
        {
            "core": core.core_id,
            "purge_count": audit[core.core_id]["purge_count"],
            "purge_stall_cycles": audit[core.core_id]["purge_stall_cycles"],
            "busy_cycles": core.busy_cycles,
            "charged_purge_cycles": core.charged_purge_cycles,
            "charged_flush_cycles": core.charged_teardown_cycles,
        }
        for core in stream.cores
    ]
    completed = len(stream.latencies)
    return ServiceOutcome(
        policy=policy,
        variant=config.name,
        seed=seed,
        load=load,
        load_profile=load_profile,
        num_cores=num_cores,
        num_tenants=num_tenants,
        requests=completed,
        horizon_cycles=stream.horizon_cycles,
        throughput_rpmc=throughput_per_mcycle(completed, stream.horizon_cycles),
        latency=summarize_latencies(stream.latencies),
        utilization=stream.utilization,
        switches=stream.switches,
        affinity_hits=stream.affinity_hits,
        purge_count=sum(row["purge_count"] for row in per_core),
        purge_stall_cycles=sum(row["purge_stall_cycles"] for row in per_core),
        charged_purge_cycles=stream.charged_purge_cycles,
        charged_flush_cycles=stream.charged_scrub_cycles,
        per_core=per_core,
        details={
            "mean_gap_cycles": mean_gap,
            "mean_service_cycles": mean_service,
            "queue_peak": stream.queue_peak,
            "instructions_per_request": instructions,
            "churn_every": churn_every,
            "tenant_benchmarks": list(benchmarks),
            "service_cycles": {name: service_cycles[name] for name in sorted(set(benchmarks))},
        },
    )
