"""The pinned workload suite every perf measurement runs.

Throughput numbers are only comparable across commits if every
measurement simulates exactly the same work, so the suite is *pinned*:
fixed (variant, benchmark) pairs spanning the timing model's main code
paths — the insecure baseline, a composed two-mitigation machine
(set-partitioned indexing + arbiter latency), and the full MI6 stack
with purge-on-trap — at a fixed seed.  The run length is a parameter
(CI uses a short one) but is recorded in every ``BENCH_*.json`` so
trajectories never silently mix lengths.

Suite runs always *simulate*: requests execute directly through the
engine, bypassing the result store, because a warm hit would measure
JSON decoding rather than the kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

from repro.analysis.engine import (
    EvaluationSettings,
    FleetRunRequest,
    RunRequest,
    ServiceRunRequest,
    evaluation_config,
    execute_fleet_request,
    execute_service_request,
    request_for,
    resolve_service_cycles,
)
from repro.core.serialization import config_digest
from repro.fleet.simulation import FleetOutcome
from repro.perf.profiler import ProfileReport, Profiler, component_shares_of
from repro.service.simulation import ServiceOutcome

#: (mitigation spec, benchmark) pairs of the pinned suite, in run order.
PINNED_SUITE: Tuple[Tuple[str, str], ...] = (
    ("BASE", "hmmer"),
    ("PART+ARB", "libquantum"),
    ("F+P+M+A", "mcf"),
)

#: Seed the suite always runs with (the evaluation default).
PINNED_SEED = 2019

#: Default instructions per suite run (CI's perf job uses the same).
DEFAULT_SUITE_INSTRUCTIONS = 20_000

#: The pinned enclave-serving case: the ``fifo`` policy maximises
#: monitor traffic (every request pays a schedule and a deschedule), so
#: this one point exercises the event loop, the purge path, and the
#: arrival process together.  Parameters are pinned for the same reason
#: the kernel suite is.
PINNED_SERVICE_CASE = {
    "policy": "fifo",
    "spec": "F+P+M+A",
    "load": 0.8,
    "load_profile": "poisson",
    "num_cores": 4,
    "num_tenants": 6,
    "num_requests": 400,
    "instructions": 2_000,
}

#: The pinned fleet case: the deadline admission policy evaluates the
#: SLO estimate on every arrival and the closed-loop client model keeps
#: every shard's think-time bookkeeping active, so this one point
#: exercises routing, admission, per-shard event loops, and the
#: deterministic merge together.  Parameters are pinned for the same
#: reason the kernel suite is.
PINNED_FLEET_CASE = {
    "policy": "affinity",
    "spec": "F+P+M+A",
    "router": "consistent_hash",
    "admission": "deadline",
    "client": "closed_loop",
    "load": 1.2,
    "load_profile": "poisson",
    "num_shards": 4,
    "shard_cores": 2,
    "num_tenants": 8,
    "num_requests": 320,
    "queue_depth": 16,
    "slo_factor": 8.0,
    "think_factor": 2.0,
    "instructions": 2_000,
}


def suite_requests(
    instructions: int = DEFAULT_SUITE_INSTRUCTIONS,
    seed: int = PINNED_SEED,
    cases: Sequence[Tuple[str, str]] = PINNED_SUITE,
) -> List[RunRequest]:
    """Fully specified engine requests for the pinned suite."""
    settings = EvaluationSettings(instructions=instructions, seed=seed)
    return [
        request_for(spec, benchmark, settings)
        for spec, benchmark in cases
    ]


@dataclass(frozen=True)
class SuiteMeasurement:
    """One suite case's identity and measured throughput.

    Attributes:
        variant: Mitigation spec the case ran on.
        benchmark: Benchmark profile name.
        cache_key: Content-hash identity of the simulated run.
        config_digest: Content hash of the machine configuration alone.
        report: Measured throughput (and optional component shares).
    """

    variant: str
    benchmark: str
    cache_key: str
    config_digest: str
    report: ProfileReport


@dataclass(frozen=True)
class SuiteResult:
    """All measurements of one suite execution."""

    instructions: int
    seed: int
    measurements: Tuple[SuiteMeasurement, ...]

    @property
    def total_instructions(self) -> int:
        """Instructions committed across the whole suite."""
        return sum(m.report.instructions for m in self.measurements)

    @property
    def total_wall_seconds(self) -> float:
        """Wall-clock seconds spent simulating across the whole suite."""
        return sum(m.report.wall_seconds for m in self.measurements)

    @property
    def instructions_per_second(self) -> float:
        """Aggregate simulator throughput over the suite."""
        wall = self.total_wall_seconds
        if wall <= 0.0:
            return 0.0
        return self.total_instructions / wall

    @property
    def cycles_per_second(self) -> float:
        """Aggregate simulated cycles per wall-clock second."""
        wall = self.total_wall_seconds
        if wall <= 0.0:
            return 0.0
        return sum(m.report.cycles for m in self.measurements) / wall


@dataclass(frozen=True)
class ServiceCaseMeasurement:
    """Event-loop throughput of the pinned enclave-serving case.

    Attributes:
        policy: Scheduling policy of the pinned case.
        variant: Mitigation spec the fleet ran on.
        cache_key: Content-hash identity of the serving simulation.
        requests: Requests the event loop served.
        wall_seconds: Wall-clock duration of the event loop alone (the
            per-benchmark kernel costs are resolved beforehand, so this
            measures dispatching, monitor calls, and purges — not the
            cycle kernel).
        outcome: The serving outcome itself (for sanity checks).
        component_shares: Fraction of serving CPU time per component
            (empty unless measured with ``components=True``).
    """

    policy: str
    variant: str
    cache_key: str
    requests: int
    wall_seconds: float
    outcome: ServiceOutcome
    component_shares: Dict[str, float] = field(default_factory=dict)

    @property
    def requests_per_second(self) -> float:
        """Served requests per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.requests / self.wall_seconds


def pinned_service_request(seed: int = PINNED_SEED) -> ServiceRunRequest:
    """The fully specified engine request of the pinned service case."""
    case = PINNED_SERVICE_CASE
    return ServiceRunRequest(
        policy=case["policy"],
        config=evaluation_config(case["spec"], case["instructions"]),
        seed=seed,
        load=case["load"],
        load_profile=case["load_profile"],
        num_cores=case["num_cores"],
        num_tenants=case["num_tenants"],
        num_requests=case["num_requests"],
        instructions=case["instructions"],
    )


def run_service_case(
    seed: int = PINNED_SEED, *, components: bool = False
) -> ServiceCaseMeasurement:
    """Measure the serving event loop on the pinned case.

    The per-benchmark kernel costs are resolved *before* the clock
    starts (they are the kernel suite's job to track), so the wall time
    gates the discrete-event loop itself: arrival handling, policy
    dispatch, monitor schedule/deschedule calls, and purges.

    Args:
        seed: Arrival-process seed (pin it unless studying seed noise).
        components: Also run the event loop once under :mod:`cProfile`
            and report per-component CPU-time shares (``service``,
            ``monitor``, ``os_model``, ...).  Throughput is never read
            off the instrumented run.
    """
    request = pinned_service_request(seed)
    cycles = resolve_service_cycles(request)
    priced = replace(request, service_cycles=tuple(sorted(cycles.items())))

    def _serve() -> ServiceOutcome:
        return execute_service_request(priced)

    started = time.perf_counter()
    outcome = _serve()
    wall = time.perf_counter() - started
    shares: Dict[str, float] = {}
    if components:
        shares = component_shares_of(_serve)
    return ServiceCaseMeasurement(
        policy=request.policy,
        variant=PINNED_SERVICE_CASE["spec"],
        cache_key=request.cache_key(),
        requests=outcome.requests,
        wall_seconds=wall,
        outcome=outcome,
        component_shares=shares,
    )


@dataclass(frozen=True)
class FleetCaseMeasurement:
    """Fleet-layer throughput of the pinned sharded-serving case.

    Attributes:
        router: Routing policy of the pinned case.
        admission: Admission policy at each shard's bounded queue.
        variant: Mitigation spec the shards ran on.
        cache_key: Content-hash identity of the fleet simulation.
        requests: Fleet-wide request budget the case served.
        wall_seconds: Wall-clock duration of the fleet layer alone —
            routing, every shard's event loop, and the deterministic
            merge (kernel costs are resolved before the clock).
        outcome: The merged fleet outcome itself (for sanity checks).
        component_shares: Fraction of fleet CPU time per component
            (empty unless measured with ``components=True``).
    """

    router: str
    admission: str
    variant: str
    cache_key: str
    requests: int
    wall_seconds: float
    outcome: FleetOutcome
    component_shares: Dict[str, float] = field(default_factory=dict)

    @property
    def requests_per_second(self) -> float:
        """Offered requests per wall-clock second of fleet simulation."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.requests / self.wall_seconds


def pinned_fleet_request(seed: int = PINNED_SEED) -> FleetRunRequest:
    """The fully specified engine request of the pinned fleet case."""
    case = PINNED_FLEET_CASE
    return FleetRunRequest(
        policy=case["policy"],
        config=evaluation_config(case["spec"], case["instructions"]),
        seed=seed,
        router=case["router"],
        admission=case["admission"],
        client=case["client"],
        load=case["load"],
        load_profile=case["load_profile"],
        num_shards=case["num_shards"],
        shard_cores=case["shard_cores"],
        num_tenants=case["num_tenants"],
        num_requests=case["num_requests"],
        queue_depth=case["queue_depth"],
        slo_factor=case["slo_factor"],
        think_factor=case["think_factor"],
        instructions=case["instructions"],
    )


def run_fleet_case(
    seed: int = PINNED_SEED, *, components: bool = False
) -> FleetCaseMeasurement:
    """Measure the fleet layer on the pinned sharded-serving case.

    The per-benchmark kernel costs are resolved *before* the clock
    starts (the kernel suite tracks those), so the wall time gates the
    fleet machinery itself: routing, admission checks, the per-shard
    discrete-event loops, and the deterministic merge.  Shards run
    serially here — parallel fan-out would measure pool overhead, not
    the simulator.

    Args:
        seed: Fleet seed (pin it unless studying seed noise).
        components: Also run the fleet once under :mod:`cProfile` and
            report per-component CPU-time shares.  Throughput is never
            read off the instrumented run.
    """
    request = pinned_fleet_request(seed)
    cycles = resolve_service_cycles(request)
    priced = replace(request, service_cycles=tuple(sorted(cycles.items())))

    def _fleet() -> FleetOutcome:
        return execute_fleet_request(priced)

    started = time.perf_counter()
    outcome = _fleet()
    wall = time.perf_counter() - started
    shares: Dict[str, float] = {}
    if components:
        shares = component_shares_of(_fleet)
    return FleetCaseMeasurement(
        router=request.router,
        admission=request.admission,
        variant=PINNED_FLEET_CASE["spec"],
        cache_key=request.cache_key(),
        requests=request.num_requests,
        wall_seconds=wall,
        outcome=outcome,
        component_shares=shares,
    )


def run_suite(
    instructions: int = DEFAULT_SUITE_INSTRUCTIONS,
    seed: int = PINNED_SEED,
    *,
    components: bool = False,
    cases: Sequence[Tuple[str, str]] = PINNED_SUITE,
) -> SuiteResult:
    """Run the pinned suite and return its measurements.

    Args:
        instructions: Instructions each case commits.
        seed: Workload/machine seed (pin it unless studying seed noise).
        components: Also collect per-component time shares per case.
        cases: Suite composition override (tests use a smaller one).
    """
    profiler = Profiler(EvaluationSettings(instructions=instructions, seed=seed))
    measurements = []
    for (spec, benchmark), request in zip(cases, suite_requests(instructions, seed, cases)):
        report = profiler.profile(request, components=components)
        measurements.append(
            SuiteMeasurement(
                variant=spec,
                benchmark=benchmark,
                cache_key=request.cache_key(),
                config_digest=config_digest(request.config),
                report=report,
            )
        )
    return SuiteResult(
        instructions=instructions, seed=seed, measurements=tuple(measurements)
    )
