"""Experiment engine: sweep specs, deterministic execution, parallel runs.

The paper's evaluation (Figures 5-13) is a cartesian sweep of
(variant × benchmark) runs; the ablations and future scaling work add
seeds and custom configurations on top.  This module is the orchestration
layer that executes such sweeps:

* :class:`EvaluationSettings` — run length and seed for one sweep,
  controllable through ``REPRO_BENCH_INSTRUCTIONS`` / ``REPRO_BENCH_SEED``;
* :class:`RunRequest` — one fully specified simulation (complete machine
  configuration + workload parameters), content-addressed via
  :func:`repro.core.serialization.run_cache_key`;
* :class:`ExperimentSpec` — a cartesian sweep of
  variants × benchmarks × seeds expanded into run requests;
* :class:`ScenarioRequest` / :class:`ScenarioSpec` — the same machinery
  for the co-scheduled security scenarios of
  :mod:`repro.attacks.scenarios` (scenarios × variants × seeds), and
  likewise for enclave serving on one machine and on a sharded fleet.
  Every spec declares its defaults on its fields and validates itself
  in ``__post_init__``, so no spec can be built from bad input; the
  session's requests (:mod:`repro.api.requests`) construct them;
* :data:`JOB_KINDS` — the one registry of request kinds: each request
  dataclass declares only its fields and a ``kind`` tag, and the registry
  names the function executing it, the codec of its value and, for runs,
  the key of the group it shares preparation with;
* :class:`ParallelRunner` — executes requests of every kind through one
  path, serving repeats from a
  :class:`~repro.analysis.store.ResultStore` and fanning cache misses out
  over a :class:`concurrent.futures.ProcessPoolExecutor`.

Each request is simulated on a *fresh* machine built from its own
configuration and seed.  Run requests sharing (benchmark, seed, warm-up)
form a group that builds its workload once (:func:`execute_run_group`),
and in the fast kernel a machine may load the warmed hierarchy of an
earlier group member of the same *warm class* (:func:`warm_class`)
instead of warming up itself — bit-identical to warming up, so a
sweep's numbers are the same whether it runs serially, in parallel, or
split across separate processes on different days.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from importlib import import_module
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    get_origin,
)

from repro.analysis.store import ResultStore
from repro.common.defaults import (
    DEFAULT_FLEET_SHARDS,
    DEFAULT_MEASUREMENT_CYCLES_PER_PAGE,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_SEED,
    DEFAULT_SERVICE_CORES,
    DEFAULT_SERVICE_INSTRUCTIONS,
    DEFAULT_SERVICE_REQUESTS,
    DEFAULT_SERVICE_TENANTS,
    DEFAULT_SLO_FACTOR,
    DEFAULT_THINK_FACTOR,
    DEFAULT_WIPE_BYTES_PER_CYCLE,
)
from repro.common.fastpath import slow_path_enabled
from repro.core.config import MI6Config
from repro.core.mitigations import VariantLike, as_spec, config_for_spec, spec_name
from repro.core.results import WarmState, WorkloadRun
from repro.core.serialization import (
    field_types,
    request_cache_key,
    request_from_payload,
    request_to_payload,
    run_cache_key,
    run_from_dict,
    run_to_dict,
)
from repro.fleet.admission import ADMISSION_POLICIES
from repro.fleet.clients import CLIENT_MODELS
from repro.fleet.routing import ROUTERS, TenantLoad, assign_tenants
from repro.obs.metrics import global_registry
from repro.obs.trace import Tracer, active_tracer, set_active_tracer, wall_span
from repro.service.arrivals import ARRIVAL_PROFILES
from repro.service.schedulers import SCHEDULING_POLICIES
from repro.workloads.spec_cint2006 import benchmark_names, profile_for, tenant_benchmarks

if TYPE_CHECKING:
    from repro.attacks.scenarios import ScenarioOutcome
    from repro.fleet.simulation import FleetOutcome, ShardOutcome
    from repro.service.simulation import ServiceOutcome

#: Environment variable controlling how many instructions each run commits.
INSTRUCTIONS_ENV_VAR = "REPRO_BENCH_INSTRUCTIONS"
#: Environment variable controlling the sweep seed.
SEED_ENV_VAR = "REPRO_BENCH_SEED"
#: Environment variable controlling default sweep parallelism.
JOBS_ENV_VAR = "REPRO_BENCH_JOBS"
#: Default instructions per run for the benchmark harness.
DEFAULT_INSTRUCTIONS = 30_000
#: Shorter run used for the NONSPEC variant (the paper also truncates it).
NONSPEC_INSTRUCTIONS_FRACTION = 0.5
#: Floor on the scaled timer-trap interval (see EXPERIMENTS.md).
MIN_TRAP_INTERVAL = 5_000

#: Process-wide count of simulations actually executed (cache misses);
#: exported on the daemon's ``/v1/metrics``.
_SIMULATIONS_TOTAL = global_registry().counter(
    "repro_simulations_total",
    "Simulations executed by this process (store misses that ran)",
)

#: Spec/request fields deliberately excluded from content-hash cache
#: keys.  The ``cache-key`` lint rule (``repro lint``) verifies every
#: other field reaches its digest, and that each entry here carries a
#: justification and still names a real field.
CACHE_KEY_EXCLUSIONS = {
    "ServiceRunRequest": {
        "service_cycles": (
            "derived state: the benchmark->cycles table is resolved "
            "deterministically from (config, instructions, seed) through "
            "the run layer, so hashing it would only duplicate "
            "information the key already covers"
        ),
    },
    "FleetRunRequest": {
        "service_cycles": (
            "derived state: resolved deterministically from (config, "
            "instructions, seed) through the run layer, exactly as for "
            "ServiceRunRequest"
        ),
    },
    "FleetShardRequest": {
        "service_cycles": (
            "derived state: the shard's benchmark->cycles table is a "
            "deterministic restriction of the fleet's, itself derived "
            "from (config, instructions, seed) through the run layer"
        ),
    },
}

#: ``MI6Config`` fields a warmed hierarchy cannot see.  Warm-up primes
#: the L1s, the LLC, the TLBs and the translation cache directly,
#: discarding every latency; configs equal outside these fields
#: therefore warm up to identical states and form one *warm class*
#: (:func:`warm_class`).  Every other field, including any added later,
#: separates classes.
WARM_KEY_EXCLUSIONS = {
    "name": "a label for reports and keys; no structure reads it",
    "core": (
        "core timing parameters: warm-up primes the memory hierarchy "
        "directly and never enters the pipeline"
    ),
    "dram": (
        "DRAM latency and queue depth: warm-up discards every latency it "
        "computes and never queues a DRAM request"
    ),
    "flush_on_context_switch": (
        "FLUSH purges on traps, and warm-up commits no instruction that "
        "could trap"
    ),
    "partition_mshrs": (
        "MISS resizes and banks the LLC MSHR file; warm-up allocates no "
        "MSHR and discards the bank it computes"
    ),
    "llc_arbiter": "ARB adds LLC pipeline-entry latency, which warm-up discards",
    "nonspec_memory": (
        "NONSPEC only delays when the core sends loads and stores; warm-up "
        "bypasses the core"
    ),
    "trap_interval_instructions": (
        "timer traps fire on committed instructions, and warm-up commits none"
    ),
}


def warm_class(config: MI6Config) -> Tuple[Tuple[str, Any], ...]:
    """The warm class of ``config``: its fields minus :data:`WARM_KEY_EXCLUSIONS`.

    Machines of one class warming up on the same workload end in the
    same hierarchy state, so one warm-up can serve them all.
    """
    return tuple(
        (item.name, getattr(config, item.name))
        for item in fields(config)
        if item.name not in WARM_KEY_EXCLUSIONS
    )


class EngineRequest:
    """Base of the engine's request dataclasses: fields plus a ``kind`` tag.

    A request class declares only its dataclass fields and its
    :data:`JOB_KINDS` tag.  Its cache key and worker payload are derived
    from those fields
    (:func:`~repro.core.serialization.request_cache_key`,
    :func:`~repro.core.serialization.request_to_payload`), so a field
    added to a request reaches its key unless :data:`CACHE_KEY_EXCLUSIONS`
    excludes it with a justification.
    """

    kind: ClassVar[str]

    def cache_key(self) -> str:
        """Content-hash identity of this request (the store key)."""
        return request_cache_key(
            self, self.kind, CACHE_KEY_EXCLUSIONS.get(type(self).__name__, {})
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible encoding shipped to worker processes."""
        return request_to_payload(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> Any:
        """Rebuild a request from :meth:`to_payload` output."""
        return request_from_payload(cls, payload)


@dataclass(frozen=True)
class EvaluationSettings:
    """Settings for one evaluation sweep."""

    instructions: int = DEFAULT_INSTRUCTIONS
    seed: int = DEFAULT_SEED

    @classmethod
    def from_environment(cls) -> EvaluationSettings:
        """Settings honouring ``REPRO_BENCH_INSTRUCTIONS``/``REPRO_BENCH_SEED``."""
        # repro: allow[determinism]: configuration boundary — the values land in explicit
        # EvaluationSettings fields, and both are hashed into every cache key they shape
        # (instructions/seed are RunRequest fields), so a changed environment changes the
        # key rather than silently diverging a cached result from it.
        instructions = int(os.environ.get(INSTRUCTIONS_ENV_VAR, DEFAULT_INSTRUCTIONS))
        seed = int(os.environ.get(SEED_ENV_VAR, DEFAULT_SEED))  # repro: allow[determinism]: same boundary.
        return cls(instructions=instructions, seed=seed)


def default_jobs() -> int:
    """Sweep parallelism honouring ``REPRO_BENCH_JOBS`` (default 1)."""
    # repro: allow[determinism]: parallelism only — sweeps are bit-identical across jobs
    # settings (the serial==parallel equivalence tests), so the value cannot touch results.
    return max(1, int(os.environ.get(JOBS_ENV_VAR, "1")))


def _freeze_sequences(spec: Any) -> None:
    """Hold a spec's tuple fields as tuples, whatever sequence was passed."""
    for name, annotation in field_types(type(spec)).items():
        value = getattr(spec, name)
        if get_origin(annotation) is tuple and not isinstance(value, tuple):
            if value is None:
                raise ValueError(f"{name} must be a sequence (omit it for the default)")
            object.__setattr__(spec, name, tuple(value))


def _reject_empty(**sequences: Sequence[Any]) -> None:
    """Spec axes must not be empty (an omitted axis takes the default)."""
    for name, value in sequences.items():
        if len(value) == 0:
            raise ValueError(f"{name} must not be empty (omit it for the default)")


def _require_known(what: str, value: str, known: Iterable[str]) -> None:
    """A name given to a spec must be one of ``known``."""
    if value not in known:
        raise ValueError(f"unknown {what} {value!r} (expected one of: {', '.join(known)})")


def _require_all_known(what: str, values: Sequence[str], known: Iterable[str]) -> None:
    """Every name of a spec axis must be one of ``known``."""
    unknown = [name for name in values if name not in known]
    if unknown:
        raise ValueError(f"unknown {what}: {', '.join(unknown)} (expected: {', '.join(known)})")


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive")


def _require_non_negative(**values: float) -> None:
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative")


# ----------------------------------------------------------------------
# Evaluation policy: how a (variant, settings) pair becomes a request


def instructions_for_variant(variant: VariantLike, instructions: int) -> int:
    """Per-variant run length (NONSPEC combinations run truncated)."""
    if "NONSPEC" in as_spec(variant):
        return max(2_000, int(instructions * NONSPEC_INSTRUCTIONS_FRACTION))
    return instructions


def evaluation_config(variant: VariantLike, instructions: int) -> MI6Config:
    """Machine configuration used by the evaluation for one variant.

    Scales the timer-trap interval with the run length so every run sees
    a handful of context switches regardless of how short it is;
    EXPERIMENTS.md documents how this scaling relates to the paper's
    Linux-scale trap intervals.
    """
    base = MI6Config(
        trap_interval_instructions=max(MIN_TRAP_INTERVAL, instructions // 2)
    )
    return config_for_spec(variant, base)


@dataclass(frozen=True)
class RunRequest(EngineRequest):
    """One fully specified simulation run.

    Unlike the old ``(variant, benchmark, instructions, seed)`` tuple,
    a request carries the *complete* machine configuration, so custom
    and ablation configurations are first-class citizens of the engine
    and the cache key reflects every parameter that affects the numbers.
    """

    kind: ClassVar[str] = "run"

    config: MI6Config
    benchmark: str
    instructions: int
    seed: int = DEFAULT_SEED
    warm_up: bool = True

    def __post_init__(self) -> None:
        # An empty run would commit nothing in zero cycles and still be
        # stored under its key.
        _require_positive(instructions=self.instructions)
        _require_known("benchmark", self.benchmark, benchmark_names())

    def cache_key(self) -> str:
        """Content-hash identity of this run: :func:`run_cache_key`.

        Run keys predate the kind tag, so they carry none.
        """
        return run_cache_key(
            self.config,
            self.benchmark,
            self.instructions,
            self.seed,
            warm_up=self.warm_up,
        )


def request_for(
    variant: VariantLike,
    benchmark: str,
    settings: Optional[EvaluationSettings] = None,
) -> RunRequest:
    """Build the evaluation run request for one (variant, benchmark).

    The requested run length must be positive even where NONSPEC's
    truncation floor would lift it.
    """
    settings = settings or EvaluationSettings.from_environment()
    _require_positive(instructions=settings.instructions)
    instructions = instructions_for_variant(variant, settings.instructions)
    return RunRequest(
        config=evaluation_config(variant, instructions),
        benchmark=benchmark,
        instructions=instructions,
        seed=settings.seed,
    )


def run_group_key(request: RunRequest) -> Tuple[str, int, bool]:
    """What run requests must share to share a prepared workload."""
    return (request.benchmark, request.seed, request.warm_up)


def execute_run_group(requests: Sequence[RunRequest]) -> List[WorkloadRun]:
    """Simulate run requests of one :func:`run_group_key` (the only place runs happen).

    The group builds one :class:`~repro.workloads.generator.PreparedWorkload`:
    the domain's page list, the warm-up address lists and the longest
    member's instruction stream, whose prefix the shorter (NONSPEC) runs
    consume.  Every member runs on a fresh machine built from its own
    configuration.  In the fast kernel the first member of each warm
    class (:func:`warm_class`) warms up and the later ones load a copy
    of its warmed state; under ``REPRO_SLOW_PATH`` every machine warms
    itself, so the reference path stays the oracle.
    """
    from repro.core.processor import MI6Processor
    from repro.workloads.generator import PreparedWorkload, SyntheticWorkload

    first = requests[0]
    workload = PreparedWorkload(
        SyntheticWorkload(profile_for(first.benchmark), seed=first.seed),
        max(request.instructions for request in requests),
    )
    sharing = first.warm_up and len(requests) > 1 and not slow_path_enabled()
    warmed: Dict[Hashable, WarmState] = {}
    runs = []
    for request in requests:
        processor = MI6Processor(request.config, seed=request.seed)
        warm = warm_class(request.config) if sharing else None
        processor.load_workload(
            workload, warm_up=request.warm_up, warm_state=warmed.get(warm)
        )
        if sharing and warm not in warmed:
            warmed[warm] = processor.capture_warm_state()
        runs.append(processor.run_loaded(workload, request.instructions))
    return runs


def execute_request(request: RunRequest) -> WorkloadRun:
    """Simulate one request on a fresh machine: a run group of one."""
    return execute_run_group([request])[0]


# ----------------------------------------------------------------------
# Security scenarios

#: The paper's seven evaluation variants (Section 7), in its order.
PAPER_VARIANTS = ("BASE", "FLUSH", "PART", "MISS", "ARB", "NONSPEC", "F+P+M+A")

#: Variants the security evaluation compares by default: the insecure
#: baseline against the full MI6 machine (the Section 6 comparison).
DEFAULT_SCENARIO_VARIANTS = ("BASE", "F+P+M+A")


@dataclass(frozen=True)
class ScenarioRequest(EngineRequest):
    """One fully specified security-scenario run.

    Like :class:`RunRequest`, a scenario request carries the complete
    machine configuration, so its content-hash identity reflects every
    parameter that affects the outcome.
    """

    kind: ClassVar[str] = "scenario"

    scenario: str
    config: MI6Config
    seed: int = DEFAULT_SEED
    num_cores: int = 2


def execute_scenario_request(request: ScenarioRequest) -> ScenarioOutcome:
    """Run one scenario on a fresh machine (the only place scenarios run)."""
    from repro.attacks.scenarios import run_scenario

    return run_scenario(
        request.scenario, request.config, request.seed, num_cores=request.num_cores
    )


def _registered_scenarios() -> Tuple[str, ...]:
    """Every scenario name (imports the scenario table when called)."""
    from repro.attacks.scenarios import SCENARIOS

    return tuple(SCENARIOS)


@dataclass(frozen=True)
class ScenarioSpec:
    """A security sweep: scenarios × variants × seeds (× machine size).

    Requests are expanded in deterministic insertion order (scenarios
    outermost, seeds innermost), mirroring :class:`ExperimentSpec`.
    Variants are :data:`~repro.core.mitigations.VariantLike` — mitigation
    sets or spec strings like ``FLUSH+MISS``.
    The defaults are every registered scenario and the BASE-vs-F+P+M+A
    pair; empty axes, unknown scenario names and machines smaller than
    attacker + victim are rejected on construction.
    """

    scenarios: Tuple[str, ...] = field(default_factory=_registered_scenarios)
    variants: Tuple[VariantLike, ...] = DEFAULT_SCENARIO_VARIANTS
    seeds: Tuple[int, ...] = (DEFAULT_SEED,)
    num_cores: int = 2

    def __post_init__(self) -> None:
        _freeze_sequences(self)
        _reject_empty(scenarios=self.scenarios, variants=self.variants, seeds=self.seeds)
        _require_all_known("scenario(s)", self.scenarios, _registered_scenarios())
        if self.num_cores < 2:
            raise ValueError("num_cores must be at least 2 (attacker + victim)")

    def requests(self) -> List[ScenarioRequest]:
        """Expand the sweep into scenario requests (deterministic order)."""
        return [
            ScenarioRequest(
                scenario=scenario,
                config=config_for_spec(variant),
                seed=seed,
                num_cores=self.num_cores,
            )
            for scenario in self.scenarios
            for variant in self.variants
            for seed in self.seeds
        ]


# ----------------------------------------------------------------------
# Enclave serving

#: Scheduling policies a default serving sweep compares.
DEFAULT_SERVICE_POLICIES = ("fifo", "affinity", "batch")

#: Default offered-load point of a serving sweep.
DEFAULT_SERVICE_LOAD = 0.7


@dataclass(frozen=True)
class ServiceRunRequest(EngineRequest):
    """One fully specified enclave-serving simulation.

    Like :class:`RunRequest` and :class:`ScenarioRequest`, a service
    request carries the complete machine configuration, so its
    content-hash identity reflects every parameter that affects the
    outcome.  ``service_cycles`` — the benchmark → cycles table the
    event loop consumes — is *derived* state resolved through the run
    layer (:func:`resolve_service_cycles`); it travels in the payload so
    pool workers never re-simulate the kernel, but it is excluded from
    the cache key.
    """

    kind: ClassVar[str] = "service"

    policy: str
    config: MI6Config
    seed: int = DEFAULT_SEED
    load: float = DEFAULT_SERVICE_LOAD
    load_profile: str = "poisson"
    num_cores: int = DEFAULT_SERVICE_CORES
    num_tenants: int = DEFAULT_SERVICE_TENANTS
    num_requests: int = DEFAULT_SERVICE_REQUESTS
    instructions: int = DEFAULT_SERVICE_INSTRUCTIONS
    churn_every: int = 0
    service_cycles: Optional[Tuple[Tuple[str, int], ...]] = None

    def workload_requests(self) -> List[RunRequest]:
        """The kernel runs pricing this request (see :func:`pricing_requests`)."""
        return pricing_requests(self, tenant_benchmarks(self.num_tenants))


def execute_service_request(request: ServiceRunRequest) -> ServiceOutcome:
    """Run one serving simulation (the only place service runs happen)."""
    from repro.service.simulation import run_service

    return run_service(
        request.config,
        request.policy,
        service_cycles=resolve_service_cycles(request),
        seed=request.seed,
        load=request.load,
        load_profile=request.load_profile,
        num_cores=request.num_cores,
        num_tenants=request.num_tenants,
        num_requests=request.num_requests,
        instructions=request.instructions,
        churn_every=request.churn_every,
    )


@dataclass(frozen=True)
class ServiceSpec:
    """A serving sweep: policies × variants × loads × seeds.

    Requests are expanded in deterministic insertion order (policies
    outermost, seeds innermost).  The fleet shape (cores, tenants,
    stream length, per-request budget, churn) is shared across the
    sweep so the grid isolates the scheduling/mitigation/load axes.
    Empty axes, unknown policy or load-profile names and out-of-range
    numbers are rejected on construction.
    """

    policies: Tuple[str, ...] = DEFAULT_SERVICE_POLICIES
    variants: Tuple[VariantLike, ...] = DEFAULT_SCENARIO_VARIANTS
    loads: Tuple[float, ...] = (DEFAULT_SERVICE_LOAD,)
    seeds: Tuple[int, ...] = (DEFAULT_SEED,)
    load_profile: str = "poisson"
    num_cores: int = DEFAULT_SERVICE_CORES
    num_tenants: int = DEFAULT_SERVICE_TENANTS
    num_requests: int = DEFAULT_SERVICE_REQUESTS
    instructions: int = DEFAULT_SERVICE_INSTRUCTIONS
    churn_every: int = 0

    def __post_init__(self) -> None:
        _freeze_sequences(self)
        _reject_empty(
            policies=self.policies, variants=self.variants, loads=self.loads, seeds=self.seeds
        )
        _require_all_known("scheduling policy(ies)", self.policies, SCHEDULING_POLICIES)
        _require_known("load profile", self.load_profile, ARRIVAL_PROFILES)
        if any(load <= 0.0 for load in self.loads):
            raise ValueError("loads must be positive fractions of fleet capacity")
        _require_positive(
            num_cores=self.num_cores,
            num_tenants=self.num_tenants,
            num_requests=self.num_requests,
            instructions=self.instructions,
        )
        _require_non_negative(churn_every=self.churn_every)

    def requests(self) -> List[ServiceRunRequest]:
        """Expand the sweep into service requests (deterministic order)."""
        return [
            ServiceRunRequest(
                policy=policy,
                config=evaluation_config(variant, self.instructions),
                seed=seed,
                load=load,
                load_profile=self.load_profile,
                num_cores=self.num_cores,
                num_tenants=self.num_tenants,
                num_requests=self.num_requests,
                instructions=self.instructions,
                churn_every=self.churn_every,
            )
            for policy in self.policies
            for variant in self.variants
            for load in self.loads
            for seed in self.seeds
        ]


# ----------------------------------------------------------------------
# Fleet serving

#: Default scheduling policy of a fleet sweep (lazy release keeps the
#: per-shard purge traffic representative of a tuned deployment).
DEFAULT_FLEET_POLICY = "affinity"
#: Default routing policy of a fleet sweep.
DEFAULT_FLEET_ROUTER = "consistent_hash"
#: Default admission policy of a fleet sweep.
DEFAULT_FLEET_ADMISSION = "drop_on_full"
#: Default client model of a fleet sweep (closed loop: the model that
#: makes saturation sweeps well defined).
DEFAULT_FLEET_CLIENT = "closed_loop"
#: Default cores per shard machine.
DEFAULT_FLEET_SHARD_CORES = 2
#: Default fleet-wide tenant count.
DEFAULT_FLEET_TENANTS = 8
#: Default fleet-wide request budget.
DEFAULT_FLEET_REQUESTS = 400


@dataclass(frozen=True)
class FleetShardRequest(EngineRequest):
    """One fully specified shard of a fleet simulation.

    The engine's unit of parallel fan-out: a shard request carries the
    complete machine configuration plus the exact tenant placement the
    router produced, so its content-hash identity reflects every
    parameter that affects the shard's numbers — the shard index seeds
    its streams, and the placement replaces the fleet-level router name.
    ``service_cycles`` is derived state, excluded from the key exactly as
    for :class:`ServiceRunRequest`.
    """

    kind: ClassVar[str] = "fleet-shard"

    policy: str
    config: MI6Config
    seed: int
    shard_index: int
    tenants: Tuple[int, ...]
    num_tenants: int
    admission: str
    client: str
    load: float
    load_profile: str
    num_cores: int
    num_requests: int
    queue_depth: int
    slo_cycles: int
    think_factor: float
    instructions: int
    churn_every: int = 0
    dram_wipe_bytes_per_cycle: int = DEFAULT_WIPE_BYTES_PER_CYCLE
    measurement_cycles_per_page: int = DEFAULT_MEASUREMENT_CYCLES_PER_PAGE
    service_cycles: Optional[Tuple[Tuple[str, int], ...]] = None

    def workload_requests(self) -> List[RunRequest]:
        """Kernel runs pricing this shard's tenants (fallback path)."""
        benchmarks = tenant_benchmarks(self.num_tenants)
        return pricing_requests(self, [benchmarks[tenant] for tenant in self.tenants])


def execute_fleet_shard_request(request: FleetShardRequest) -> ShardOutcome:
    """Run one shard simulation (the only place shard runs happen)."""
    from repro.fleet.simulation import run_fleet_shard

    return run_fleet_shard(
        request.config,
        request.policy,
        service_cycles=resolve_service_cycles(request),
        seed=request.seed,
        shard_index=request.shard_index,
        tenants=request.tenants,
        num_tenants=request.num_tenants,
        load=request.load,
        load_profile=request.load_profile,
        client=request.client,
        num_cores=request.num_cores,
        num_requests=request.num_requests,
        queue_depth=request.queue_depth,
        admission=request.admission,
        slo_cycles=request.slo_cycles,
        think_factor=request.think_factor,
        churn_every=request.churn_every,
        dram_wipe_bytes_per_cycle=request.dram_wipe_bytes_per_cycle,
        measurement_cycles_per_page=request.measurement_cycles_per_page,
    )


@dataclass
class FleetPlan:
    """One fleet request lowered onto shards (router already applied)."""

    assignment: Tuple[int, ...]
    slo_cycles: int
    mean_service_cycles: float
    shard_requests: List[FleetShardRequest]

    def shard_tenants(self, shard_index: int) -> Tuple[int, ...]:
        """The tenants the router placed on ``shard_index``."""
        return tuple(
            tenant
            for tenant, shard in enumerate(self.assignment)
            if shard == shard_index
        )


@dataclass(frozen=True)
class FleetRunRequest(EngineRequest):
    """One fully specified fleet simulation (all shards plus the merge).

    Carries every fleet-level parameter — routing/admission policies,
    client model, fleet shape, queue bound, SLO/think factors, and the
    extended churn-costing knobs — all hashed into its cache key.
    Lowering onto shard requests (:meth:`shard_plan`) needs the
    service-cycle table, because two routers weigh tenants by their
    measured demand.
    """

    kind: ClassVar[str] = "fleet"

    policy: str
    config: MI6Config
    seed: int = DEFAULT_SEED
    router: str = DEFAULT_FLEET_ROUTER
    admission: str = DEFAULT_FLEET_ADMISSION
    client: str = DEFAULT_FLEET_CLIENT
    load: float = DEFAULT_SERVICE_LOAD
    load_profile: str = "poisson"
    num_shards: int = DEFAULT_FLEET_SHARDS
    shard_cores: int = DEFAULT_FLEET_SHARD_CORES
    num_tenants: int = DEFAULT_FLEET_TENANTS
    num_requests: int = DEFAULT_FLEET_REQUESTS
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    slo_factor: float = DEFAULT_SLO_FACTOR
    think_factor: float = DEFAULT_THINK_FACTOR
    instructions: int = DEFAULT_SERVICE_INSTRUCTIONS
    churn_every: int = 0
    dram_wipe_bytes_per_cycle: int = DEFAULT_WIPE_BYTES_PER_CYCLE
    measurement_cycles_per_page: int = DEFAULT_MEASUREMENT_CYCLES_PER_PAGE
    service_cycles: Optional[Tuple[Tuple[str, int], ...]] = None

    def workload_requests(self) -> List[RunRequest]:
        """The kernel runs pricing this fleet (see :func:`pricing_requests`)."""
        return pricing_requests(self, tenant_benchmarks(self.num_tenants))

    def shard_plan(self, cycles: Dict[str, int]) -> FleetPlan:
        """Route tenants and expand this fleet into shard requests.

        Deterministic given the cycle table: the router sees each
        tenant's measured demand plus an a-priori boundary-cost
        estimate, the fleet-wide request budget is split evenly across
        tenants (remainder to the lowest ids), and the SLO is fixed
        fleet-wide from the mean service demand.  Shards the router
        left empty (or with a zero budget) produce no request — the
        merge fills their rows with
        :func:`~repro.fleet.simulation.empty_shard_outcome`.
        """
        from repro.fleet.simulation import estimate_boundary_cycles

        benchmarks = tenant_benchmarks(self.num_tenants)
        boundary = estimate_boundary_cycles(
            self.config,
            churn_every=self.churn_every,
            dram_wipe_bytes_per_cycle=self.dram_wipe_bytes_per_cycle,
            measurement_cycles_per_page=self.measurement_cycles_per_page,
        )
        loads = [
            TenantLoad(
                tenant=tenant,
                benchmark=benchmarks[tenant],
                demand_cycles=cycles[benchmarks[tenant]],
                boundary_cycles=boundary,
            )
            for tenant in range(self.num_tenants)
        ]
        assignment = assign_tenants(self.router, loads, self.num_shards)
        mean_service = sum(load.demand_cycles for load in loads) / self.num_tenants
        slo_cycles = max(1, int(round(self.slo_factor * mean_service)))
        base, extra = divmod(self.num_requests, self.num_tenants)
        per_tenant = [
            base + (1 if tenant < extra else 0) for tenant in range(self.num_tenants)
        ]
        shard_requests: List[FleetShardRequest] = []
        for shard in range(self.num_shards):
            members = tuple(
                tenant
                for tenant in range(self.num_tenants)
                if assignment[tenant] == shard
            )
            budget = sum(per_tenant[tenant] for tenant in members)
            if not members or budget < 1:
                continue
            table: Dict[str, int] = {}
            for tenant in members:
                table[benchmarks[tenant]] = cycles[benchmarks[tenant]]
            shard_requests.append(
                FleetShardRequest(
                    policy=self.policy,
                    config=self.config,
                    seed=self.seed,
                    shard_index=shard,
                    tenants=members,
                    num_tenants=self.num_tenants,
                    admission=self.admission,
                    client=self.client,
                    load=self.load,
                    load_profile=self.load_profile,
                    num_cores=self.shard_cores,
                    num_requests=budget,
                    queue_depth=self.queue_depth,
                    slo_cycles=slo_cycles,
                    think_factor=self.think_factor,
                    instructions=self.instructions,
                    churn_every=self.churn_every,
                    dram_wipe_bytes_per_cycle=self.dram_wipe_bytes_per_cycle,
                    measurement_cycles_per_page=self.measurement_cycles_per_page,
                    service_cycles=tuple(sorted(table.items())),
                )
            )
        return FleetPlan(
            assignment=assignment,
            slo_cycles=slo_cycles,
            mean_service_cycles=mean_service,
            shard_requests=shard_requests,
        )


#: A serving request whose tenants are priced by kernel runs.
PricedRequest = TypeVar("PricedRequest", ServiceRunRequest, FleetShardRequest, FleetRunRequest)


def pricing_requests(request: PricedRequest, benchmarks: Sequence[str]) -> List[RunRequest]:
    """The kernel runs whose cycle counts price a serving request.

    One run per distinct tenant benchmark, on exactly the request's
    machine configuration — the same runs a ``sweep`` at the same
    instruction budget would issue, so serving sweeps and figure sweeps
    share cache entries.
    """
    return [
        RunRequest(
            config=request.config,
            benchmark=benchmark,
            instructions=request.instructions,
            seed=request.seed,
        )
        for benchmark in dict.fromkeys(benchmarks)
    ]


def resolve_service_cycles(request: PricedRequest) -> Dict[str, int]:
    """Benchmark -> request service cycles of any serving request.

    The attached ``service_cycles`` table when the request carries one;
    otherwise its kernel runs, simulated directly.  The session prices
    requests through the result store instead (cached, parallel); this
    fallback keeps the ``execute_*`` functions pure functions of the
    request for pool workers and direct callers.
    """
    if request.service_cycles is not None:
        return dict(request.service_cycles)
    return {
        workload.benchmark: execute_request(workload).cycles
        for workload in request.workload_requests()
    }


def _merge_fleet(
    request: FleetRunRequest, plan: FleetPlan, outcomes: Sequence[ShardOutcome]
) -> FleetOutcome:
    """Fold shard outcomes into the fleet document for ``request``."""
    from repro.fleet.simulation import empty_shard_outcome, merge_shard_outcomes

    produced = {outcome.shard: outcome for outcome in outcomes}
    shards = [
        produced.get(index, empty_shard_outcome(index, plan.shard_tenants(index)))
        for index in range(request.num_shards)
    ]
    return merge_shard_outcomes(
        router=request.router,
        admission=request.admission,
        client=request.client,
        policy=request.policy,
        variant=request.config.name,
        seed=request.seed,
        load=request.load,
        load_profile=request.load_profile,
        num_shards=request.num_shards,
        shard_cores=request.shard_cores,
        num_tenants=request.num_tenants,
        num_requests=request.num_requests,
        queue_depth=request.queue_depth,
        slo_cycles=plan.slo_cycles,
        assignment=plan.assignment,
        shards=shards,
        details={
            "slo_factor": request.slo_factor,
            "think_factor": request.think_factor,
            "churn_every": request.churn_every,
            "dram_wipe_bytes_per_cycle": request.dram_wipe_bytes_per_cycle,
            "measurement_cycles_per_page": request.measurement_cycles_per_page,
            "mean_service_cycles": plan.mean_service_cycles,
            "instructions_per_request": request.instructions,
        },
    )


@dataclass(frozen=True)
class FleetSpec:
    """A fleet sweep: variants × loads × seeds on a fixed fleet shape.

    Requests are expanded in deterministic insertion order (variants
    outermost, seeds innermost).  The router/admission/client triple and
    the fleet shape are shared across the sweep, so the grid isolates
    the mitigation and offered-load axes — the goodput-vs-offered-load
    frontier per mitigation spec.  Empty axes, unknown registry names
    (scheduling policy, router, admission, client model, load profile)
    and out-of-range numbers are rejected on construction.
    """

    variants: Tuple[VariantLike, ...] = DEFAULT_SCENARIO_VARIANTS
    loads: Tuple[float, ...] = (DEFAULT_SERVICE_LOAD,)
    seeds: Tuple[int, ...] = (DEFAULT_SEED,)
    policy: str = DEFAULT_FLEET_POLICY
    router: str = DEFAULT_FLEET_ROUTER
    admission: str = DEFAULT_FLEET_ADMISSION
    client: str = DEFAULT_FLEET_CLIENT
    load_profile: str = "poisson"
    num_shards: int = DEFAULT_FLEET_SHARDS
    shard_cores: int = DEFAULT_FLEET_SHARD_CORES
    num_tenants: int = DEFAULT_FLEET_TENANTS
    num_requests: int = DEFAULT_FLEET_REQUESTS
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    slo_factor: float = DEFAULT_SLO_FACTOR
    think_factor: float = DEFAULT_THINK_FACTOR
    instructions: int = DEFAULT_SERVICE_INSTRUCTIONS
    churn_every: int = 0
    dram_wipe_bytes_per_cycle: int = DEFAULT_WIPE_BYTES_PER_CYCLE
    measurement_cycles_per_page: int = DEFAULT_MEASUREMENT_CYCLES_PER_PAGE

    def __post_init__(self) -> None:
        _freeze_sequences(self)
        _reject_empty(variants=self.variants, loads=self.loads, seeds=self.seeds)
        _require_known("scheduling policy", self.policy, SCHEDULING_POLICIES)
        _require_known("routing policy", self.router, ROUTERS)
        _require_known("admission policy", self.admission, ADMISSION_POLICIES)
        _require_known("client model", self.client, CLIENT_MODELS)
        _require_known("load profile", self.load_profile, ARRIVAL_PROFILES)
        if any(load <= 0.0 for load in self.loads):
            raise ValueError("loads must be positive fractions of shard capacity")
        _require_positive(
            num_shards=self.num_shards,
            shard_cores=self.shard_cores,
            num_tenants=self.num_tenants,
            num_requests=self.num_requests,
            queue_depth=self.queue_depth,
            slo_factor=self.slo_factor,
        )
        _require_non_negative(think_factor=self.think_factor)
        _require_positive(instructions=self.instructions)
        _require_non_negative(
            churn_every=self.churn_every,
            dram_wipe_bytes_per_cycle=self.dram_wipe_bytes_per_cycle,
            measurement_cycles_per_page=self.measurement_cycles_per_page,
        )

    def requests(self) -> List[FleetRunRequest]:
        """Expand the sweep into fleet requests (deterministic order)."""
        return [
            FleetRunRequest(
                policy=self.policy,
                config=evaluation_config(variant, self.instructions),
                seed=seed,
                router=self.router,
                admission=self.admission,
                client=self.client,
                load=load,
                load_profile=self.load_profile,
                num_shards=self.num_shards,
                shard_cores=self.shard_cores,
                num_tenants=self.num_tenants,
                num_requests=self.num_requests,
                queue_depth=self.queue_depth,
                slo_factor=self.slo_factor,
                think_factor=self.think_factor,
                instructions=self.instructions,
                churn_every=self.churn_every,
                dram_wipe_bytes_per_cycle=self.dram_wipe_bytes_per_cycle,
                measurement_cycles_per_page=self.measurement_cycles_per_page,
            )
            for variant in self.variants
            for load in self.loads
            for seed in self.seeds
        ]


# ----------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class ExperimentSpec:
    """A cartesian sweep: variants × benchmarks × seeds.

    Requests are expanded in deterministic insertion order (variants
    outermost, seeds innermost) so result rows line up across runs.
    Variants are :data:`~repro.core.mitigations.VariantLike`: composed
    :class:`~repro.core.mitigations.MitigationSet` values and spec
    strings (``"FLUSH+MISS"``) may be mixed freely —
    the full 2^5 mitigation lattice is sweepable.  The defaults are the
    full Figure 13 grid (all seven variants, all eleven benchmarks);
    empty axes and a non-positive run length are rejected on
    construction.
    """

    variants: Tuple[VariantLike, ...] = PAPER_VARIANTS
    benchmarks: Tuple[str, ...] = field(default_factory=lambda: tuple(benchmark_names()))
    seeds: Tuple[int, ...] = (DEFAULT_SEED,)
    instructions: int = DEFAULT_INSTRUCTIONS

    def __post_init__(self) -> None:
        _freeze_sequences(self)
        _reject_empty(variants=self.variants, benchmarks=self.benchmarks, seeds=self.seeds)
        _require_positive(instructions=self.instructions)

    def requests(self) -> List[RunRequest]:
        """Expand the sweep into run requests (deterministic order)."""
        return [
            request_for(
                variant,
                benchmark,
                EvaluationSettings(instructions=self.instructions, seed=seed),
            )
            for variant in self.variants
            for benchmark in self.benchmarks
            for seed in self.seeds
        ]


@dataclass
class ExperimentResult:
    """Runs of one sweep, addressable by (variant, benchmark, seed)."""

    requests: List[RunRequest]
    runs: List[WorkloadRun]
    _index: Dict[Tuple[str, str, int], WorkloadRun] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        for request, run in zip(self.requests, self.runs):
            self._index[(request.config.name, request.benchmark, request.seed)] = run

    def run_for(
        self, variant: VariantLike, benchmark: str, seed: Optional[int] = None
    ) -> WorkloadRun:
        """The run for one (variant, benchmark, seed) cell (default: the first seed)."""
        seed = seed if seed is not None else self.requests[0].seed
        return self._index[(spec_name(variant), benchmark, seed)]

    def overhead_percent(
        self, variant: VariantLike, benchmark: str, seed: Optional[int] = None
    ) -> float:
        """Runtime overhead of ``variant`` over BASE for one benchmark.

        Requires BASE in the spec; :meth:`WorkloadRun.overhead_vs` compares.
        """
        base = self.run_for("BASE", benchmark, seed)
        return self.run_for(variant, benchmark, seed).overhead_vs(base)


@dataclass(frozen=True)
class JobKind:
    """How the engine executes and stores one request kind.

    Attributes:
        request_type: The request dataclass (its ``kind`` tag is the key
            of this entry in :data:`JOB_KINDS`).
        execute: Name of the module-level function running one request,
            or one group of requests for a kind with a ``group_key``.
            It is looked up at every call, so instrumentation can wrap
            it in place.  ``None`` for a fleet, which the runner lowers
            onto shard requests and never executes whole.
        value: ``module:name`` of the type of the value one request
            produces, imported once, on first use (:attr:`value_type`), so
            answering a kind from the store loads no simulator.
        group_key: Maps a request to the group it shares preparation
            with; ``None`` (every kind but runs) runs each request alone.
        codec: The value's ``(encode, decode)`` pair when its type has no
            ``to_dict``/``from_dict`` of its own.
    """

    request_type: Type[EngineRequest]
    execute: Optional[str]
    value: str
    group_key: Optional[Callable[[Any], Hashable]] = None
    codec: Optional[Tuple[Callable[[Any], Dict[str, Any]], Callable[[Dict[str, Any]], Any]]] = None

    @cached_property
    def value_type(self) -> Any:
        """Type of the value one request produces."""
        module, _, name = self.value.partition(":")
        return getattr(import_module(module), name)

    def encode(self, value: Any) -> Dict[str, Any]:
        """The value's JSON document (worker transport, store document, wire)."""
        if self.codec is not None:
            return self.codec[0](value)
        return self.value_type.to_dict(value)

    def decode(self, document: Dict[str, Any]) -> Any:
        """Rebuild a value from :meth:`encode` output."""
        if self.codec is not None:
            return self.codec[1](document)
        return self.value_type.from_dict(document)

    def executor(self) -> Callable[[Any], Any]:
        """The execute function as this module binds it right now."""
        return globals()[self.execute]  # type: ignore[index]

    def execute_group(self, requests: Sequence[Any]) -> List[Any]:
        """Values of one group, in order (a group of one for ungrouped kinds)."""
        if self.group_key is not None:
            return self.executor()(requests)
        (request,) = requests
        return [self.executor()(request)]


#: Request kind -> how the engine runs it.  Runs persist in the store's
#: run layer; every other kind persists in its document layer under the
#: kind tag.  A fleet is the one expanding kind: the runner lowers it onto
#: shard requests of its own (see :meth:`ParallelRunner.run`), so it
#: names no execute function.
JOB_KINDS: Dict[str, JobKind] = {
    job.request_type.kind: job
    for job in (
        JobKind(
            RunRequest,
            "execute_run_group",
            "repro.core.results:WorkloadRun",
            group_key=run_group_key,
            codec=(run_to_dict, run_from_dict),
        ),
        JobKind(
            ScenarioRequest, "execute_scenario_request", "repro.attacks.scenarios:ScenarioOutcome"
        ),
        JobKind(
            ServiceRunRequest, "execute_service_request", "repro.service.simulation:ServiceOutcome"
        ),
        JobKind(
            FleetShardRequest, "execute_fleet_shard_request", "repro.fleet.simulation:ShardOutcome"
        ),
        JobKind(FleetRunRequest, None, "repro.fleet.simulation:FleetOutcome"),
    )
}


def _tasks(job: JobKind, requests: Sequence[EngineRequest], jobs: int) -> List[List[int]]:
    """Positions of ``requests`` (all of ``job``'s kind) in execution tasks.

    A task is one group, in the order of the group's first request.  A
    group larger than ⌈len(requests) / jobs⌉ is split into tasks of at
    most that size, so a one-benchmark lattice sweep still spreads over
    every worker.
    """
    groups: Dict[Hashable, List[int]] = {}
    for position, request in enumerate(requests):
        key = position if job.group_key is None else job.group_key(request)
        groups.setdefault(key, []).append(position)
    size = -(-len(requests) // jobs)
    return [
        group[start:start + size]
        for group in groups.values()
        for start in range(0, len(group), size)
    ]


def _pool_worker(envelope: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool entry point for every kind: dicts in, dicts out.

    The envelope is ``{"kind": tag, "requests": [to_payload(), ...],
    "trace": bool}`` for one task.  When the parent is tracing, the
    worker collects sim spans on a local tracer and ships them back
    beside the encoded values — the encoding itself is identical either
    way, so persisted store bytes never depend on tracing.
    """
    job = JOB_KINDS[envelope["kind"]]
    requests = [job.request_type.from_payload(payload) for payload in envelope["requests"]]
    if not envelope["trace"]:
        return {"values": [job.encode(value) for value in job.execute_group(requests)]}
    tracer = Tracer()
    previous = set_active_tracer(tracer)
    try:
        values = job.execute_group(requests)
    finally:
        set_active_tracer(previous)
    return {"values": [job.encode(value) for value in values], "spans": tracer.span_dicts()}


class ParallelRunner:
    """Executes engine requests through a store, in parallel on cache misses.

    Args:
        store: Result store consulted before simulating (defaults to a
            fresh in-memory store).
        jobs: Worker processes for cache misses.  ``jobs=1`` executes
            serially in-process; results are bit-identical either way.

    Attributes:
        last_origins: Per-request provenance of the most recent
            :meth:`run` call, aligned with the request sequence:
            ``"warm"`` for store hits, ``"cold"`` for executed
            simulations (duplicate positions of one executed key are all
            ``"cold"``).
        last_keys: Cache keys of the most recent call, aligned the same
            way — computed once here, so provenance consumers (the
            Session API) never re-hash configurations.
    """

    def __init__(self, store: Optional[ResultStore] = None, *, jobs: int = 1) -> None:
        self.store = store if store is not None else ResultStore.in_memory()
        self.jobs = max(1, jobs)
        self.last_origins: List[str] = []
        self.last_keys: List[str] = []

    def _lookup(self, kind: str, key: str) -> Any:
        """The stored value of ``kind`` under ``key``, or ``None``."""
        if kind == RunRequest.kind:
            return self.store.get(key)
        return self.store.get_payload(kind, key, JOB_KINDS[kind].decode)

    def _persist(self, kind: str, key: str, value: Any) -> None:
        """Store a value: runs in the run layer, the rest as documents."""
        if kind == RunRequest.kind:
            self.store.put(key, value)
        else:
            self.store.put_payload(kind, key, JOB_KINDS[kind].encode(value))

    def run(self, requests: Sequence[EngineRequest]) -> List[Any]:
        """Execute requests of one kind, returning values in request order.

        Deduplicates by content key *before* the store lookup (so the
        store's hit/miss counters reflect simulations, not positions),
        serves warm keys from the store, and executes the rest a group at
        a time (:attr:`JobKind.group_key`), in process or over the process
        pool, bit-identical either way (:meth:`_execute`).  Values and
        store writes follow request order.  Serving
        requests shipped without a ``service_cycles`` table price their
        tenants inline (still deterministic, just slower; the Session
        prices them through :meth:`priced` first).  Fleet requests
        expand instead (:meth:`_run_fleets`).
        """
        requests = list(requests)
        if requests and requests[0].kind == FleetRunRequest.kind:
            return self._run_fleets(requests)
        results: List[Any] = [None] * len(requests)
        origins: List[str] = ["cold"] * len(requests)
        tracer = active_tracer()
        by_key: Dict[str, List[int]] = {}
        pending: Dict[str, List[int]] = {}
        with wall_span("store-lookup", track="engine", requests=len(requests)):
            keys: List[str] = [request.cache_key() for request in requests]
            for position, key in enumerate(keys):
                by_key.setdefault(key, []).append(position)
            for key, positions in by_key.items():
                cached = self._lookup(requests[positions[0]].kind, key)
                if cached is not None:
                    for position in positions:
                        results[position] = cached
                        origins[position] = "warm"
                else:
                    pending[key] = positions
        if pending:
            to_run = [requests[positions[0]] for positions in pending.values()]
            _SIMULATIONS_TOTAL.inc(len(to_run))
            with wall_span(
                "worker-dispatch", track="engine", pending=len(to_run), jobs=self.jobs
            ):
                produced = self._execute(to_run, tracer)
            with wall_span("store-persist", track="engine", produced=len(to_run)):
                for (key, positions), request, value in zip(pending.items(), to_run, produced):
                    self._persist(request.kind, key, value)
                    for position in positions:
                        results[position] = value
        # `keys` stays the full position-aligned list (one per request),
        # NOT the deduplicated pending subset: provenance consumers zip
        # it against the request sequence.
        self.last_origins = origins
        self.last_keys = keys
        return results

    def _execute(self, requests: List[EngineRequest], tracer: Optional[Tracer]) -> List[Any]:
        """Values of ``requests`` (one kind), executed a task at a time.

        Tasks run in the order of their first request, in process or on
        the pool; either way each task is one :meth:`JobKind.execute_group`
        call.  Kinds that record sim spans run each request alone, so
        their spans arrive in request order on both paths.
        """
        job = JOB_KINDS[requests[0].kind]
        tasks = _tasks(job, requests, self.jobs)
        values: List[Any] = [None] * len(requests)
        if self.jobs == 1 or len(tasks) == 1:
            # In-process execution: the ambient tracer (if any) records
            # sim spans directly.
            for task in tasks:
                for index, value in zip(task, job.execute_group([requests[i] for i in task])):
                    values[index] = value
            return values
        envelopes = [
            {
                "kind": job.request_type.kind,
                "requests": [requests[index].to_payload() for index in task],
                "trace": tracer is not None,
            }
            for task in tasks
        ]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(self.jobs, len(tasks))) as pool:
            # pool.map preserves task order.
            for task, encoded in zip(tasks, pool.map(_pool_worker, envelopes)):
                spans = encoded.get("spans")
                if spans and tracer is not None:
                    tracer.absorb(spans)
                for index, value in zip(task, encoded["values"]):
                    values[index] = job.decode(value)
        return values

    def priced(self, requests: Sequence[PricedRequest]) -> List[PricedRequest]:
        """Attach each serving request's kernel-priced cycle table.

        The per-benchmark cycle costs are served from (and persisted to)
        the store through :meth:`run`, so a serving event loop never
        simulates the kernel and a warm rerun touches no simulation.
        """
        workload_lists = [request.workload_requests() for request in requests]
        flat = [workload for group in workload_lists for workload in group]
        runs = iter(self.run(flat) if flat else [])
        priced = []
        for request, group in zip(requests, workload_lists):
            table = tuple(sorted((workload.benchmark, next(runs).cycles) for workload in group))
            priced.append(replace(request, service_cycles=table))
        return priced

    def _run_fleets(self, requests: Sequence[Any]) -> List[FleetOutcome]:
        """Fleet requests: a document lookup each, or lowering onto shards.

        The merged fleet document persists under the fleet kind, so a
        repeated fleet is a single lookup.  A cold one is priced (kernel
        runs) and its shards run through :meth:`run`, so it still shares
        cached shards and kernel runs with earlier sweeps.  This level
        records no engine spans of its own; ``last_keys`` and
        ``last_origins`` are realigned with the fleet requests after the
        nested calls.
        """
        keys = [request.cache_key() for request in requests]
        origins = ["cold"] * len(requests)
        results: List[FleetOutcome] = []
        executed: Dict[str, FleetOutcome] = {}
        for position, (request, key) in enumerate(zip(requests, keys)):
            if key in executed:
                results.append(executed[key])
                continue
            outcome = self._lookup(FleetRunRequest.kind, key)
            if outcome is not None:
                origins[position] = "warm"
            else:
                if request.service_cycles is None:
                    request = self.priced([request])[0]
                plan = request.shard_plan(resolve_service_cycles(request))
                outcome = _merge_fleet(request, plan, self.run(plan.shard_requests))
                self._persist(FleetRunRequest.kind, key, outcome)
                executed[key] = outcome
            results.append(outcome)
        self.last_origins = origins
        self.last_keys = keys
        return results
