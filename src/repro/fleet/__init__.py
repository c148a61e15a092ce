"""Fleet-scale sharded serving: router, admission control, clients.

The serving layer (:mod:`repro.service`) simulates one machine; this
package scales it out.  A front-end router distributes tenant enclaves
across N independent shard machines (:mod:`repro.fleet.routing`).  Each
shard runs the serving layer's one event loop through
:func:`~repro.fleet.simulation.run_fleet_shard`, the adapter that puts
a bounded queue with admission control in front of it
(:mod:`repro.fleet.admission`) and feeds it either the open-loop
arrival profiles or a closed-loop think-time client population
(:mod:`repro.fleet.clients`), so offered load can be swept to
saturation.  Shard results merge deterministically into a
:class:`~repro.fleet.simulation.FleetOutcome`, the unit the engine
caches and the CLI reports.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "repro.common.defaults": (
            "DEFAULT_FLEET_SHARDS",
            "DEFAULT_MEASUREMENT_CYCLES_PER_PAGE",
            "DEFAULT_QUEUE_DEPTH",
            "DEFAULT_SLO_FACTOR",
            "DEFAULT_THINK_FACTOR",
            "DEFAULT_WIPE_BYTES_PER_CYCLE",
        ),
        "repro.fleet.admission": ("ADMISSION_POLICIES",),
        "repro.fleet.clients": ("CLIENT_MODELS",),
        "repro.fleet.routing": ("ROUTERS", "TenantLoad", "assign_tenants"),
        "repro.fleet.simulation": (
            "FleetOutcome",
            "ShardOutcome",
            "merge_shard_outcomes",
            "run_fleet_shard",
        ),
    },
)
