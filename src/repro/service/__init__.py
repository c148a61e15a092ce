"""Enclave-serving subsystem: multi-tenant request-serving simulation.

MI6's headline cost is paid at enclave boundaries — ``purge`` stalls on
every schedule/deschedule, LLC scrubs when DRAM regions change owner,
and set-partitioning capacity loss — but the figure sweeps only measure
single-workload overheads.  This package turns the cycle-accurate
machine plus :class:`~repro.monitor.security_monitor.SecurityMonitor`
into a *serving* model: a seeded open-loop arrival process feeds
per-tenant request queues, a pluggable scheduling policy places tenant
enclaves on cores through the monitor, and the paper's per-switch costs
become throughput and tail-latency numbers under tenant churn.

* :mod:`repro.service.arrivals` — deterministic Poisson / bursty /
  diurnal arrival processes;
* :mod:`repro.service.schedulers` — the scheduling-policy table
  (``fifo``, ``affinity``, ``batch``);
* :mod:`repro.service.simulation` — the one serving event loop
  (:func:`~repro.service.simulation.serve`), its one-machine adapter
  :func:`~repro.service.simulation.run_service`, and the
  JSON-serialisable :class:`~repro.service.simulation.ServiceOutcome`;
* :mod:`repro.service.metrics` — latency percentile helpers.

The loop takes its request stream from the caller: ``run_service``
feeds it open-loop arrivals and admits every one, and
:func:`repro.fleet.simulation.run_fleet_shard` — the fleet's adapter
over the same loop — adds admission control and closed-loop clients.

Entry points: ``Session.run(ServiceRequest(...))`` for cached, parallel
sweeps, or :func:`repro.service.run_service` for a single standalone
simulation.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "repro.common.defaults": (
            "DEFAULT_SERVICE_CORES",
            "DEFAULT_SERVICE_INSTRUCTIONS",
            "DEFAULT_SERVICE_REQUESTS",
            "DEFAULT_SERVICE_TENANTS",
        ),
        "repro.service.arrivals": (
            "ARRIVAL_PROFILES",
            "LOAD_PROFILES",
            "Arrival",
            "generate_arrivals",
        ),
        "repro.service.metrics": ("percentile", "summarize_latencies"),
        "repro.service.schedulers": ("SCHEDULING_POLICIES", "SchedulingPolicy"),
        "repro.service.simulation": ("ServiceOutcome", "run_service"),
        "repro.workloads.spec_cint2006": ("tenant_benchmarks",),
    },
)
