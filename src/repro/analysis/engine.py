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
  :mod:`repro.attacks.scenarios` (scenarios × variants × seeds);
* :class:`ParallelRunner` — executes requests, serving repeats from a
  :class:`~repro.analysis.store.ResultStore` and fanning cache misses out
  over a :class:`concurrent.futures.ProcessPoolExecutor`.

Each request is simulated on a *fresh* machine seeded from the request
alone, so a sweep's numbers are bit-identical whether it runs serially,
in parallel, or split across separate processes on different days.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.attacks.scenarios import ScenarioOutcome, run_scenario, scenario_names
from repro.core.config import MI6Config
from repro.core.processor import WorkloadRun
from repro.core.serialization import (
    config_from_dict,
    config_to_dict,
    fleet_cache_key,
    fleet_shard_cache_key,
    run_cache_key,
    run_from_dict,
    run_to_dict,
    scenario_cache_key,
    service_cache_key,
)
from repro.fleet.admission import admission_names
from repro.fleet.clients import client_model_names
from repro.fleet.routing import TenantLoad, assign_tenants, router_names
from repro.fleet.simulation import (
    DEFAULT_FLEET_SHARDS,
    DEFAULT_MEASUREMENT_CYCLES_PER_PAGE,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_SLO_FACTOR,
    DEFAULT_THINK_FACTOR,
    DEFAULT_WIPE_BYTES_PER_CYCLE,
    FleetOutcome,
    ShardOutcome,
    empty_shard_outcome,
    estimate_boundary_cycles,
    merge_shard_outcomes,
    run_fleet_shard,
)
from repro.service.arrivals import LOAD_PROFILES
from repro.service.schedulers import policy_names
from repro.service.simulation import (
    DEFAULT_SERVICE_CORES,
    DEFAULT_SERVICE_INSTRUCTIONS,
    DEFAULT_SERVICE_REQUESTS,
    DEFAULT_SERVICE_TENANTS,
    ServiceOutcome,
    run_service,
    tenant_benchmarks,
)
from repro.core.simulator import DEFAULT_SEED, Simulator
from repro.core.mitigations import config_for_spec
from repro.obs.metrics import global_registry
from repro.obs.trace import Tracer, active_tracer, set_active_tracer, wall_span
from repro.core.variants import (
    Variant,
    VariantLike,
    all_variants,
    as_spec,
    spec_name,
)
from repro.analysis.store import ResultStore
from repro.workloads.spec_cint2006 import benchmark_names

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
#: snapshotted into BENCH records by ``repro perf --record``.
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

    def to_dict(self) -> Dict[str, int]:
        """JSON-compatible encoding (stable round-trip)."""
        return {"instructions": self.instructions, "seed": self.seed}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> EvaluationSettings:
        """Rebuild settings from :meth:`to_dict` output."""
        return cls(instructions=data["instructions"], seed=data["seed"])


def default_jobs() -> int:
    """Sweep parallelism honouring ``REPRO_BENCH_JOBS`` (default 1)."""
    # repro: allow[determinism]: parallelism only — sweeps are bit-identical across jobs
    # settings (the serial==parallel equivalence tests), so the value cannot touch results.
    return max(1, int(os.environ.get(JOBS_ENV_VAR, "1")))


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
class RunRequest:
    """One fully specified simulation run.

    Unlike the old ``(variant, benchmark, instructions, seed)`` tuple,
    a request carries the *complete* machine configuration, so custom
    and ablation configurations are first-class citizens of the engine
    and the cache key reflects every parameter that affects the numbers.
    """

    config: MI6Config
    benchmark: str
    instructions: int
    seed: int = DEFAULT_SEED
    warm_up: bool = True

    def cache_key(self) -> str:
        """Content-hash identity of this run (the store key)."""
        return run_cache_key(
            self.config,
            self.benchmark,
            self.instructions,
            self.seed,
            warm_up=self.warm_up,
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible encoding shipped to worker processes."""
        return {
            "config": config_to_dict(self.config),
            "benchmark": self.benchmark,
            "instructions": self.instructions,
            "seed": self.seed,
            "warm_up": self.warm_up,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> RunRequest:
        """Rebuild a request from :meth:`to_payload` output."""
        return cls(
            config=config_from_dict(payload["config"]),
            benchmark=payload["benchmark"],
            instructions=payload["instructions"],
            seed=payload["seed"],
            warm_up=payload["warm_up"],
        )


def request_for(
    variant: VariantLike,
    benchmark: str,
    settings: Optional[EvaluationSettings] = None,
) -> RunRequest:
    """Build the evaluation run request for one (variant, benchmark)."""
    settings = settings or EvaluationSettings.from_environment()
    instructions = instructions_for_variant(variant, settings.instructions)
    return RunRequest(
        config=evaluation_config(variant, instructions),
        benchmark=benchmark,
        instructions=instructions,
        seed=settings.seed,
    )


def execute_request(request: RunRequest) -> WorkloadRun:
    """Simulate one request on a fresh machine (the only place runs happen)."""
    simulator = Simulator(request.config, seed=request.seed)
    return simulator.run(
        request.benchmark,
        instructions=request.instructions,
        warm_up=request.warm_up,
    )


def _pool_execute(
    envelope: Dict[str, Any],
    decode_request: Any,
    execute: Any,
    encode: Any,
) -> Dict[str, Any]:
    """Worker-side envelope protocol shared by every pool worker.

    The envelope is ``{"request": to_payload(), "trace": bool}``.  When
    the parent is tracing, the worker collects sim spans on a local
    tracer and ships them back beside the encoded outcome — the outcome
    encoding itself is identical either way, so persisted store bytes
    never depend on tracing.
    """
    request = decode_request(envelope["request"])
    if not envelope.get("trace"):
        return {"value": encode(execute(request))}
    tracer = Tracer()
    previous = set_active_tracer(tracer)
    try:
        value = execute(request)
    finally:
        set_active_tracer(previous)
    return {"value": encode(value), "spans": tracer.span_dicts()}


def _pool_worker(envelope: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool entry point: dicts in, dicts out (always picklable)."""
    return _pool_execute(
        envelope, RunRequest.from_payload, execute_request, run_to_dict
    )


# ----------------------------------------------------------------------
# Security scenarios

#: Store document kind under which scenario outcomes persist.
SCENARIO_STORE_KIND = "scenario"

#: Variants the security evaluation compares by default: the insecure
#: baseline against the full MI6 machine (the Section 6 comparison).
DEFAULT_SCENARIO_VARIANTS = (Variant.BASE, Variant.F_P_M_A)


@dataclass(frozen=True)
class ScenarioRequest:
    """One fully specified security-scenario run.

    Like :class:`RunRequest`, a scenario request carries the complete
    machine configuration, so its content-hash identity reflects every
    parameter that affects the outcome.
    """

    scenario: str
    config: MI6Config
    seed: int = DEFAULT_SEED
    num_cores: int = 2

    def cache_key(self) -> str:
        """Content-hash identity of this scenario run (the store key)."""
        return scenario_cache_key(
            self.scenario, self.config, self.seed, num_cores=self.num_cores
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible encoding shipped to worker processes."""
        return {
            "scenario": self.scenario,
            "config": config_to_dict(self.config),
            "seed": self.seed,
            "num_cores": self.num_cores,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> ScenarioRequest:
        """Rebuild a request from :meth:`to_payload` output."""
        return cls(
            scenario=payload["scenario"],
            config=config_from_dict(payload["config"]),
            seed=payload["seed"],
            num_cores=payload.get("num_cores", 2),
        )


def execute_scenario_request(request: ScenarioRequest) -> ScenarioOutcome:
    """Run one scenario on a fresh machine (the only place scenarios run)."""
    return run_scenario(
        request.scenario, request.config, request.seed, num_cores=request.num_cores
    )


def _scenario_pool_worker(envelope: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool entry point for scenarios: dicts in, dicts out."""
    return _pool_execute(
        envelope,
        ScenarioRequest.from_payload,
        execute_scenario_request,
        lambda outcome: outcome.to_dict(),
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """A security sweep: scenarios × variants × seeds (× machine size).

    Requests are expanded in deterministic insertion order (scenarios
    outermost, seeds innermost), mirroring :class:`ExperimentSpec`.
    Variants are :data:`~repro.core.mitigations.VariantLike` — legacy
    enum members, mitigation sets, or spec strings like ``FLUSH+MISS``.
    """

    scenarios: Tuple[str, ...]
    variants: Tuple[VariantLike, ...] = DEFAULT_SCENARIO_VARIANTS
    seeds: Tuple[int, ...] = (DEFAULT_SEED,)
    num_cores: int = 2

    @classmethod
    def create(
        cls,
        scenarios: Optional[Sequence[str]] = None,
        variants: Optional[Sequence[VariantLike]] = None,
        seeds: Optional[Sequence[int]] = None,
        num_cores: int = 2,
    ) -> ScenarioSpec:
        """Spec with security-evaluation defaults for anything omitted.

        Defaults (for ``None`` arguments): every registered scenario,
        the BASE-vs-F+P+M+A variant pair, and the environment-controlled
        seed.  Explicitly empty sequences are rejected, and scenario
        names are validated against the registry here rather than at run
        time.
        """
        for name, value in (
            ("scenarios", scenarios),
            ("variants", variants),
            ("seeds", seeds),
        ):
            if value is not None and len(value) == 0:
                raise ValueError(f"{name} must not be empty (pass None for the default)")
        known = scenario_names()
        if scenarios is not None:
            unknown = [name for name in scenarios if name not in known]
            if unknown:
                raise ValueError(
                    f"unknown scenario(s): {', '.join(unknown)} "
                    f"(expected: {', '.join(known)})"
                )
        if num_cores < 2:
            raise ValueError("num_cores must be at least 2 (attacker + victim)")
        settings = EvaluationSettings.from_environment()
        return cls(
            scenarios=tuple(scenarios) if scenarios is not None else tuple(known),
            variants=(
                tuple(variants) if variants is not None else DEFAULT_SCENARIO_VARIANTS
            ),
            seeds=tuple(seeds) if seeds is not None else (settings.seed,),
            num_cores=num_cores,
        )

    @property
    def size(self) -> int:
        """Number of scenario runs in the sweep."""
        return len(self.scenarios) * len(self.variants) * len(self.seeds)

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

#: Store document kind under which service outcomes persist.
SERVICE_STORE_KIND = "service"

#: Scheduling policies a default serving sweep compares.
DEFAULT_SERVICE_POLICIES = ("fifo", "affinity", "batch")

#: Default offered-load point of a serving sweep.
DEFAULT_SERVICE_LOAD = 0.7


@dataclass(frozen=True)
class ServiceRunRequest:
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

    def cache_key(self) -> str:
        """Content-hash identity of this serving run (the store key)."""
        return service_cache_key(
            self.policy,
            self.config,
            self.seed,
            load=self.load,
            load_profile=self.load_profile,
            num_cores=self.num_cores,
            num_tenants=self.num_tenants,
            num_requests=self.num_requests,
            instructions=self.instructions,
            churn_every=self.churn_every,
        )

    def workload_requests(self) -> List[RunRequest]:
        """The kernel runs pricing this request (see :func:`pricing_requests`)."""
        return pricing_requests(self, tenant_benchmarks(self.num_tenants))

    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible encoding shipped to worker processes."""
        return {
            "policy": self.policy,
            "config": config_to_dict(self.config),
            "seed": self.seed,
            "load": self.load,
            "load_profile": self.load_profile,
            "num_cores": self.num_cores,
            "num_tenants": self.num_tenants,
            "num_requests": self.num_requests,
            "instructions": self.instructions,
            "churn_every": self.churn_every,
            "service_cycles": (
                [list(pair) for pair in self.service_cycles]
                if self.service_cycles is not None
                else None
            ),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> ServiceRunRequest:
        """Rebuild a request from :meth:`to_payload` output."""
        cycles = payload.get("service_cycles")
        return cls(
            policy=payload["policy"],
            config=config_from_dict(payload["config"]),
            seed=payload["seed"],
            load=payload["load"],
            load_profile=payload["load_profile"],
            num_cores=payload["num_cores"],
            num_tenants=payload["num_tenants"],
            num_requests=payload["num_requests"],
            instructions=payload["instructions"],
            churn_every=payload.get("churn_every", 0),
            service_cycles=(
                tuple((name, count) for name, count in cycles)
                if cycles is not None
                else None
            ),
        )


def execute_service_request(request: ServiceRunRequest) -> ServiceOutcome:
    """Run one serving simulation (the only place service runs happen)."""
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


def _service_pool_worker(envelope: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool entry point for serving runs: dicts in, dicts out."""
    return _pool_execute(
        envelope,
        ServiceRunRequest.from_payload,
        execute_service_request,
        lambda outcome: outcome.to_dict(),
    )


@dataclass(frozen=True)
class ServiceSpec:
    """A serving sweep: policies × variants × loads × seeds.

    Requests are expanded in deterministic insertion order (policies
    outermost, seeds innermost).  The fleet shape (cores, tenants,
    stream length, per-request budget, churn) is shared across the
    sweep so the grid isolates the scheduling/mitigation/load axes.
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

    @classmethod
    def create(
        cls,
        policies: Optional[Sequence[str]] = None,
        variants: Optional[Sequence[VariantLike]] = None,
        loads: Optional[Sequence[float]] = None,
        seeds: Optional[Sequence[int]] = None,
        load_profile: str = "poisson",
        num_cores: int = DEFAULT_SERVICE_CORES,
        num_tenants: int = DEFAULT_SERVICE_TENANTS,
        num_requests: int = DEFAULT_SERVICE_REQUESTS,
        instructions: int = DEFAULT_SERVICE_INSTRUCTIONS,
        churn_every: int = 0,
    ) -> ServiceSpec:
        """Spec with serving defaults for anything omitted.

        Defaults (for ``None`` arguments): all three shipped policies,
        the BASE-vs-F+P+M+A comparison, one 0.7-load point, and the
        environment-controlled seed.  Policy names, the load profile,
        and the numeric parameters are validated here rather than at run
        time.
        """
        for name, value in (
            ("policies", policies),
            ("variants", variants),
            ("loads", loads),
            ("seeds", seeds),
        ):
            if value is not None and len(value) == 0:
                raise ValueError(f"{name} must not be empty (pass None for the default)")
        known = policy_names()
        if policies is not None:
            unknown = [name for name in policies if name not in known]
            if unknown:
                raise ValueError(
                    f"unknown scheduling policy(ies): {', '.join(unknown)} "
                    f"(expected: {', '.join(known)})"
                )
        if load_profile not in LOAD_PROFILES:
            raise ValueError(
                f"unknown load profile {load_profile!r} "
                f"(expected one of: {', '.join(LOAD_PROFILES)})"
            )
        if loads is not None and any(load <= 0.0 for load in loads):
            raise ValueError("loads must be positive fractions of fleet capacity")
        if num_cores < 1:
            raise ValueError("num_cores must be positive")
        if num_tenants < 1:
            raise ValueError("num_tenants must be positive")
        if num_requests < 1:
            raise ValueError("num_requests must be positive")
        if instructions < 1:
            raise ValueError("instructions must be positive")
        if churn_every < 0:
            raise ValueError("churn_every must be non-negative")
        settings = EvaluationSettings.from_environment()
        return cls(
            policies=tuple(policies) if policies is not None else DEFAULT_SERVICE_POLICIES,
            variants=(
                tuple(variants) if variants is not None else DEFAULT_SCENARIO_VARIANTS
            ),
            loads=tuple(loads) if loads is not None else (DEFAULT_SERVICE_LOAD,),
            seeds=tuple(seeds) if seeds is not None else (settings.seed,),
            load_profile=load_profile,
            num_cores=num_cores,
            num_tenants=num_tenants,
            num_requests=num_requests,
            instructions=instructions,
            churn_every=churn_every,
        )

    @property
    def size(self) -> int:
        """Number of serving simulations in the sweep."""
        return len(self.policies) * len(self.variants) * len(self.loads) * len(self.seeds)

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

#: Store document kind under which merged fleet outcomes persist.
FLEET_STORE_KIND = "fleet"

#: Store document kind under which per-shard outcomes persist.
FLEET_SHARD_STORE_KIND = "fleet-shard"

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
class FleetShardRequest:
    """One fully specified shard of a fleet simulation.

    The engine's unit of parallel fan-out: a shard request carries the
    complete machine configuration plus the exact tenant placement the
    router produced, so its content-hash identity
    (:func:`repro.core.serialization.fleet_shard_cache_key`) reflects
    every parameter that affects the shard's numbers.  ``service_cycles``
    is derived state, excluded from the key exactly as for
    :class:`ServiceRunRequest`.
    """

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

    def cache_key(self) -> str:
        """Content-hash identity of this shard run (the store key)."""
        return fleet_shard_cache_key(
            self.policy,
            self.config,
            self.seed,
            shard_index=self.shard_index,
            tenants=self.tenants,
            num_tenants=self.num_tenants,
            admission=self.admission,
            client=self.client,
            load=self.load,
            load_profile=self.load_profile,
            num_cores=self.num_cores,
            num_requests=self.num_requests,
            queue_depth=self.queue_depth,
            slo_cycles=self.slo_cycles,
            think_factor=self.think_factor,
            instructions=self.instructions,
            churn_every=self.churn_every,
            dram_wipe_bytes_per_cycle=self.dram_wipe_bytes_per_cycle,
            measurement_cycles_per_page=self.measurement_cycles_per_page,
        )

    def workload_requests(self) -> List[RunRequest]:
        """Kernel runs pricing this shard's tenants (fallback path)."""
        benchmarks = tenant_benchmarks(self.num_tenants)
        return pricing_requests(self, [benchmarks[tenant] for tenant in self.tenants])

    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible encoding shipped to worker processes."""
        return {
            "policy": self.policy,
            "config": config_to_dict(self.config),
            "seed": self.seed,
            "shard_index": self.shard_index,
            "tenants": list(self.tenants),
            "num_tenants": self.num_tenants,
            "admission": self.admission,
            "client": self.client,
            "load": self.load,
            "load_profile": self.load_profile,
            "num_cores": self.num_cores,
            "num_requests": self.num_requests,
            "queue_depth": self.queue_depth,
            "slo_cycles": self.slo_cycles,
            "think_factor": self.think_factor,
            "instructions": self.instructions,
            "churn_every": self.churn_every,
            "dram_wipe_bytes_per_cycle": self.dram_wipe_bytes_per_cycle,
            "measurement_cycles_per_page": self.measurement_cycles_per_page,
            "service_cycles": (
                [list(pair) for pair in self.service_cycles]
                if self.service_cycles is not None
                else None
            ),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> FleetShardRequest:
        """Rebuild a request from :meth:`to_payload` output."""
        cycles = payload.get("service_cycles")
        return cls(
            policy=payload["policy"],
            config=config_from_dict(payload["config"]),
            seed=payload["seed"],
            shard_index=payload["shard_index"],
            tenants=tuple(payload["tenants"]),
            num_tenants=payload["num_tenants"],
            admission=payload["admission"],
            client=payload["client"],
            load=payload["load"],
            load_profile=payload["load_profile"],
            num_cores=payload["num_cores"],
            num_requests=payload["num_requests"],
            queue_depth=payload["queue_depth"],
            slo_cycles=payload["slo_cycles"],
            think_factor=payload["think_factor"],
            instructions=payload["instructions"],
            churn_every=payload.get("churn_every", 0),
            dram_wipe_bytes_per_cycle=payload["dram_wipe_bytes_per_cycle"],
            measurement_cycles_per_page=payload["measurement_cycles_per_page"],
            service_cycles=(
                tuple((name, count) for name, count in cycles)
                if cycles is not None
                else None
            ),
        )


def execute_fleet_shard_request(request: FleetShardRequest) -> ShardOutcome:
    """Run one shard simulation (the only place shard runs happen)."""
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


def _fleet_shard_pool_worker(envelope: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool entry point for shard runs: dicts in, dicts out."""
    return _pool_execute(
        envelope,
        FleetShardRequest.from_payload,
        execute_fleet_shard_request,
        lambda outcome: outcome.to_dict(),
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
class FleetRunRequest:
    """One fully specified fleet simulation (all shards plus the merge).

    Carries every fleet-level parameter — routing/admission policies,
    client model, fleet shape, queue bound, SLO/think factors, and the
    extended churn-costing knobs — hashed into
    :func:`repro.core.serialization.fleet_cache_key`.  Lowering onto
    shard requests (:meth:`shard_plan`) needs the service-cycle table,
    because two routers weigh tenants by their measured demand.
    """

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

    def cache_key(self) -> str:
        """Content-hash identity of this fleet run (the store key)."""
        return fleet_cache_key(
            self.policy,
            self.config,
            self.seed,
            router=self.router,
            admission=self.admission,
            client=self.client,
            load=self.load,
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
        merge fills their rows with :func:`empty_shard_outcome`.
        """
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


def execute_fleet_request(request: FleetRunRequest) -> FleetOutcome:
    """Run one fleet simulation serially (shards in index order).

    The runner's :meth:`ParallelRunner.run_fleets` fans shards out over
    the store and the process pool instead; this pure path exists for
    direct callers and produces bit-identical results.
    """
    plan = request.shard_plan(resolve_service_cycles(request))
    outcomes = [
        execute_fleet_shard_request(shard_request)
        for shard_request in plan.shard_requests
    ]
    return _merge_fleet(request, plan, outcomes)


@dataclass(frozen=True)
class FleetSpec:
    """A fleet sweep: variants × loads × seeds on a fixed fleet shape.

    Requests are expanded in deterministic insertion order (variants
    outermost, seeds innermost).  The router/admission/client triple and
    the fleet shape are shared across the sweep, so the grid isolates
    the mitigation and offered-load axes — the goodput-vs-offered-load
    frontier per mitigation spec.
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

    @classmethod
    def create(
        cls,
        variants: Optional[Sequence[VariantLike]] = None,
        loads: Optional[Sequence[float]] = None,
        seeds: Optional[Sequence[int]] = None,
        policy: str = DEFAULT_FLEET_POLICY,
        router: str = DEFAULT_FLEET_ROUTER,
        admission: str = DEFAULT_FLEET_ADMISSION,
        client: str = DEFAULT_FLEET_CLIENT,
        load_profile: str = "poisson",
        num_shards: int = DEFAULT_FLEET_SHARDS,
        shard_cores: int = DEFAULT_FLEET_SHARD_CORES,
        num_tenants: int = DEFAULT_FLEET_TENANTS,
        num_requests: int = DEFAULT_FLEET_REQUESTS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        slo_factor: float = DEFAULT_SLO_FACTOR,
        think_factor: float = DEFAULT_THINK_FACTOR,
        instructions: int = DEFAULT_SERVICE_INSTRUCTIONS,
        churn_every: int = 0,
        dram_wipe_bytes_per_cycle: int = DEFAULT_WIPE_BYTES_PER_CYCLE,
        measurement_cycles_per_page: int = DEFAULT_MEASUREMENT_CYCLES_PER_PAGE,
    ) -> FleetSpec:
        """Spec with fleet defaults for anything omitted.

        Defaults (for ``None`` arguments): the BASE-vs-F+P+M+A
        comparison, one 0.7-load point, and the environment-controlled
        seed.  Registry names (scheduling policy, router, admission,
        client model, load profile) and the numeric fleet shape are
        validated here rather than at run time.
        """
        for name, value in (
            ("variants", variants),
            ("loads", loads),
            ("seeds", seeds),
        ):
            if value is not None and len(value) == 0:
                raise ValueError(f"{name} must not be empty (pass None for the default)")
        if policy not in policy_names():
            raise ValueError(
                f"unknown scheduling policy {policy!r} "
                f"(expected one of: {', '.join(policy_names())})"
            )
        if router not in router_names():
            raise ValueError(
                f"unknown routing policy {router!r} "
                f"(expected one of: {', '.join(router_names())})"
            )
        if admission not in admission_names():
            raise ValueError(
                f"unknown admission policy {admission!r} "
                f"(expected one of: {', '.join(admission_names())})"
            )
        if client not in client_model_names():
            raise ValueError(
                f"unknown client model {client!r} "
                f"(expected one of: {', '.join(client_model_names())})"
            )
        if load_profile not in LOAD_PROFILES:
            raise ValueError(
                f"unknown load profile {load_profile!r} "
                f"(expected one of: {', '.join(LOAD_PROFILES)})"
            )
        if loads is not None and any(load <= 0.0 for load in loads):
            raise ValueError("loads must be positive fractions of shard capacity")
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        if shard_cores < 1:
            raise ValueError("shard_cores must be positive")
        if num_tenants < 1:
            raise ValueError("num_tenants must be positive")
        if num_requests < 1:
            raise ValueError("num_requests must be positive")
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if slo_factor <= 0.0:
            raise ValueError("slo_factor must be positive")
        if think_factor < 0.0:
            raise ValueError("think_factor must be non-negative")
        if instructions < 1:
            raise ValueError("instructions must be positive")
        if churn_every < 0:
            raise ValueError("churn_every must be non-negative")
        if dram_wipe_bytes_per_cycle < 0:
            raise ValueError("dram_wipe_bytes_per_cycle must be non-negative")
        if measurement_cycles_per_page < 0:
            raise ValueError("measurement_cycles_per_page must be non-negative")
        settings = EvaluationSettings.from_environment()
        return cls(
            variants=(
                tuple(variants) if variants is not None else DEFAULT_SCENARIO_VARIANTS
            ),
            loads=tuple(loads) if loads is not None else (DEFAULT_SERVICE_LOAD,),
            seeds=tuple(seeds) if seeds is not None else (settings.seed,),
            policy=policy,
            router=router,
            admission=admission,
            client=client,
            load_profile=load_profile,
            num_shards=num_shards,
            shard_cores=shard_cores,
            num_tenants=num_tenants,
            num_requests=num_requests,
            queue_depth=queue_depth,
            slo_factor=slo_factor,
            think_factor=think_factor,
            instructions=instructions,
            churn_every=churn_every,
            dram_wipe_bytes_per_cycle=dram_wipe_bytes_per_cycle,
            measurement_cycles_per_page=measurement_cycles_per_page,
        )

    @property
    def size(self) -> int:
        """Number of fleet simulations in the sweep."""
        return len(self.variants) * len(self.loads) * len(self.seeds)

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
    Variants are :data:`~repro.core.mitigations.VariantLike`: legacy
    enum members, composed :class:`~repro.core.mitigations.MitigationSet`
    values, and spec strings (``"FLUSH+MISS"``) may be mixed freely —
    the full 2^5 mitigation lattice is sweepable.
    """

    variants: Tuple[VariantLike, ...]
    benchmarks: Tuple[str, ...]
    seeds: Tuple[int, ...] = (DEFAULT_SEED,)
    instructions: int = DEFAULT_INSTRUCTIONS

    @classmethod
    def create(
        cls,
        variants: Optional[Sequence[VariantLike]] = None,
        benchmarks: Optional[Sequence[str]] = None,
        seeds: Optional[Sequence[int]] = None,
        instructions: Optional[int] = None,
    ) -> ExperimentSpec:
        """Spec with paper defaults for anything omitted.

        Defaults (for ``None`` arguments): all seven variants, all
        eleven SPEC benchmarks, the environment-controlled seed, and the
        environment-controlled run length — i.e. the full Figure 13
        grid.  Explicitly empty sequences are rejected rather than
        silently expanded into the full grid.
        """
        for name, value in (
            ("variants", variants),
            ("benchmarks", benchmarks),
            ("seeds", seeds),
        ):
            if value is not None and len(value) == 0:
                raise ValueError(f"{name} must not be empty (pass None for the default)")
        settings = EvaluationSettings.from_environment()
        return cls(
            variants=tuple(variants) if variants is not None else tuple(all_variants()),
            benchmarks=(
                tuple(benchmarks) if benchmarks is not None else tuple(benchmark_names())
            ),
            seeds=tuple(seeds) if seeds is not None else (settings.seed,),
            instructions=instructions if instructions is not None else settings.instructions,
        )

    @property
    def size(self) -> int:
        """Number of runs in the sweep."""
        return len(self.variants) * len(self.benchmarks) * len(self.seeds)

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

    spec: ExperimentSpec
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
        """The run for one (variant, benchmark, seed) cell of the sweep."""
        seed = seed if seed is not None else self.spec.seeds[0]
        return self._index[(spec_name(variant), benchmark, seed)]

    def overhead_percent(
        self, variant: VariantLike, benchmark: str, seed: Optional[int] = None
    ) -> float:
        """Runtime overhead of ``variant`` over BASE for one benchmark.

        Requires BASE in the spec.  Falls back to a per-instruction (CPI)
        comparison when the two runs committed different instruction
        counts (the NONSPEC truncation).
        """
        base = self.run_for(Variant.BASE, benchmark, seed)
        secured = self.run_for(variant, benchmark, seed)
        if secured.instructions != base.instructions:
            if not base.result.cpi:
                return 0.0
            return 100.0 * (secured.result.cpi - base.result.cpi) / base.result.cpi
        return secured.overhead_vs(base)


class ParallelRunner:
    """Executes run requests through a store, in parallel on cache misses.

    Args:
        store: Result store consulted before simulating (defaults to a
            fresh in-memory store).
        jobs: Worker processes for cache misses.  ``jobs=1`` executes
            serially in-process; results are bit-identical either way.

    Attributes:
        executed_runs: Simulations actually executed by this runner.
        warm_runs: Requests served from the store without simulating.
        last_origins: Per-request provenance of the most recent
            :meth:`run`/:meth:`run_scenarios` call, aligned with the
            request sequence: ``"warm"`` for store hits, ``"cold"`` for
            executed simulations (duplicate positions of one executed
            key are all ``"cold"``).
        last_keys: Cache keys of the most recent call, aligned the same
            way — computed once here, so provenance consumers (the
            Session API) never re-hash configurations.
    """

    def __init__(self, store: Optional[ResultStore] = None, *, jobs: int = 1) -> None:
        self.store = store if store is not None else ResultStore.in_memory()
        self.jobs = max(1, jobs)
        self.executed_runs = 0
        self.warm_runs = 0
        self.last_origins: List[str] = []
        self.last_keys: List[str] = []

    def _execute_through_store(
        self,
        requests: Sequence[Any],
        *,
        lookup: Any,
        persist: Any,
        execute: Any,
        pool_worker: Any,
        decode: Any,
    ) -> List[Any]:
        """Shared request-execution machinery for runs and scenarios.

        Deduplicates by content key *before* the store lookup (so the
        store's hit/miss counters reflect simulations, not positions),
        serves warm keys through ``lookup``, and fans the rest out over
        the process pool — ``pool_worker`` must be a module-level
        function taking the request's ``to_payload()`` dict and
        returning an encoded result for ``decode``.
        """
        requests = list(requests)
        results: List[Any] = [None] * len(requests)
        origins: List[str] = ["cold"] * len(requests)
        tracer = active_tracer()
        by_key: Dict[str, List[int]] = {}
        pending: Dict[str, List[int]] = {}
        pending_requests: Dict[str, Any] = {}
        with wall_span("store-lookup", track="engine", requests=len(requests)):
            keys: List[str] = [request.cache_key() for request in requests]
            for position, key in enumerate(keys):
                by_key.setdefault(key, []).append(position)
            for key, positions in by_key.items():
                cached = lookup(key)
                if cached is not None:
                    for position in positions:
                        results[position] = cached
                        origins[position] = "warm"
                    self.warm_runs += len(positions)
                else:
                    pending[key] = positions
                    pending_requests[key] = requests[positions[0]]
        if pending:
            pending_keys = list(pending)
            _SIMULATIONS_TOTAL.inc(len(pending_keys))
            with wall_span(
                "worker-dispatch",
                track="engine",
                pending=len(pending_keys),
                jobs=self.jobs,
            ):
                if self.jobs == 1 or len(pending_keys) == 1:
                    # In-process execution: the ambient tracer (if any)
                    # records sim spans directly.
                    produced = [execute(pending_requests[key]) for key in pending_keys]
                else:
                    envelopes = [
                        {
                            "request": pending_requests[key].to_payload(),
                            "trace": tracer is not None,
                        }
                        for key in pending_keys
                    ]
                    produced = []
                    with ProcessPoolExecutor(
                        max_workers=min(self.jobs, len(pending_keys))
                    ) as pool:
                        # pool.map preserves request order, so absorbed
                        # worker spans arrive in the same order the
                        # serial path would have recorded them.
                        for encoded in pool.map(pool_worker, envelopes):
                            spans = encoded.get("spans")
                            if spans and tracer is not None:
                                tracer.absorb(spans)
                            produced.append(decode(encoded["value"]))
            with wall_span("store-persist", track="engine", produced=len(pending_keys)):
                for key, result in zip(pending_keys, produced):
                    persist(key, result)
                    self.executed_runs += 1
                    for position in pending[key]:
                        results[position] = result
        # `keys` stays the full position-aligned list (one per request),
        # NOT the deduplicated pending subset: provenance consumers zip
        # it against the request sequence.
        self.last_origins = origins
        self.last_keys = keys
        return results

    def run(self, requests: Sequence[RunRequest]) -> List[WorkloadRun]:
        """Execute requests, returning runs in request order."""
        return self._execute_through_store(
            requests,
            lookup=self.store.get,
            persist=self.store.put,
            execute=execute_request,
            pool_worker=_pool_worker,
            decode=run_from_dict,
        )

    def run_one(self, request: RunRequest) -> WorkloadRun:
        """Execute (or fetch) a single request."""
        return self.run([request])[0]

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

    def run_spec(self, spec: ExperimentSpec) -> ExperimentResult:
        """Execute a full sweep and return its indexed results."""
        requests = spec.requests()
        return ExperimentResult(spec=spec, requests=requests, runs=self.run(requests))

    # ------------------------------------------------------------------
    # Security scenarios

    def run_scenarios(
        self, requests: Sequence[ScenarioRequest]
    ) -> List[ScenarioOutcome]:
        """Execute scenario requests, returning outcomes in request order.

        Mirrors :meth:`run`: outcomes are served from the store's
        document layer when warm and fanned out over the process pool on
        cache misses, with identical results either way.
        """

        def lookup(key: str) -> Optional[ScenarioOutcome]:
            payload = self.store.get_payload(SCENARIO_STORE_KIND, key)
            return ScenarioOutcome.from_dict(payload) if payload is not None else None

        def persist(key: str, outcome: ScenarioOutcome) -> None:
            self.store.put_payload(SCENARIO_STORE_KIND, key, outcome.to_dict())

        return self._execute_through_store(
            requests,
            lookup=lookup,
            persist=persist,
            execute=execute_scenario_request,
            pool_worker=_scenario_pool_worker,
            decode=ScenarioOutcome.from_dict,
        )

    def run_scenario_spec(
        self, spec: ScenarioSpec
    ) -> List[Tuple[ScenarioRequest, ScenarioOutcome]]:
        """Execute a full security sweep, pairing requests with outcomes."""
        requests = spec.requests()
        return list(zip(requests, self.run_scenarios(requests)))

    # ------------------------------------------------------------------
    # Enclave serving

    def run_services(
        self, requests: Sequence[ServiceRunRequest]
    ) -> List[ServiceOutcome]:
        """Execute serving requests, returning outcomes in request order.

        Mirrors :meth:`run_scenarios`: outcomes persist in the store's
        document layer under :data:`SERVICE_STORE_KIND` and cache misses
        fan out over the process pool, bit-identical either way.  The
        caller (the Session) normally resolves each request's
        ``service_cycles`` through the run layer first so the event loop
        never re-simulates the kernel; requests shipped without a table
        compute it inline (still deterministic, just slower).
        """

        def lookup(key: str) -> Optional[ServiceOutcome]:
            payload = self.store.get_payload(SERVICE_STORE_KIND, key)
            return ServiceOutcome.from_dict(payload) if payload is not None else None

        def persist(key: str, outcome: ServiceOutcome) -> None:
            self.store.put_payload(SERVICE_STORE_KIND, key, outcome.to_dict())

        return self._execute_through_store(
            requests,
            lookup=lookup,
            persist=persist,
            execute=execute_service_request,
            pool_worker=_service_pool_worker,
            decode=ServiceOutcome.from_dict,
        )

    def run_service_spec(
        self, spec: ServiceSpec
    ) -> List[Tuple[ServiceRunRequest, ServiceOutcome]]:
        """Execute a full serving sweep, pairing requests with outcomes."""
        requests = spec.requests()
        return list(zip(requests, self.run_services(requests)))

    # ------------------------------------------------------------------
    # Fleet serving

    def run_fleet_shards(
        self, requests: Sequence[FleetShardRequest]
    ) -> List[ShardOutcome]:
        """Execute shard requests, returning outcomes in request order.

        Mirrors :meth:`run_services` one level down: shard outcomes
        persist under :data:`FLEET_SHARD_STORE_KIND` and cache misses
        fan out one-per-worker over the process pool.  Results are
        bit-identical across ``jobs`` settings because each shard's
        streams are seeded from ``(seed, shard_index)`` alone and
        ``pool.map`` preserves request order.
        """

        def lookup(key: str) -> Optional[ShardOutcome]:
            payload = self.store.get_payload(FLEET_SHARD_STORE_KIND, key)
            return ShardOutcome.from_dict(payload) if payload is not None else None

        def persist(key: str, outcome: ShardOutcome) -> None:
            self.store.put_payload(FLEET_SHARD_STORE_KIND, key, outcome.to_dict())

        return self._execute_through_store(
            requests,
            lookup=lookup,
            persist=persist,
            execute=execute_fleet_shard_request,
            pool_worker=_fleet_shard_pool_worker,
            decode=ShardOutcome.from_dict,
        )

    def _execute_fleet(self, request: FleetRunRequest) -> FleetOutcome:
        """Lower one fleet request onto shards and merge the outcomes.

        Cannot reuse ``_execute_through_store``'s execute hook: the
        expansion itself goes back through the store (kernel pricing via
        :meth:`run`, shards via :meth:`run_fleet_shards`), so warm fleet
        reruns skip the shard layer entirely while cold ones still share
        cached shards and kernel runs with earlier sweeps.
        """
        if request.service_cycles is None:
            request = self.priced([request])[0]
        plan = request.shard_plan(resolve_service_cycles(request))
        outcomes = self.run_fleet_shards(plan.shard_requests)
        return _merge_fleet(request, plan, outcomes)

    def run_fleets(self, requests: Sequence[FleetRunRequest]) -> List[FleetOutcome]:
        """Execute fleet requests, returning outcomes in request order.

        The merged fleet document persists under
        :data:`FLEET_STORE_KIND` keyed by
        :func:`repro.core.serialization.fleet_cache_key`, so a repeated
        fleet run is a single document lookup.  ``last_keys`` and
        ``last_origins`` are (re)aligned with the *fleet* request
        sequence after any nested kernel/shard execution updated them.
        """
        requests = list(requests)
        results: List[Optional[FleetOutcome]] = [None] * len(requests)
        origins: List[str] = ["cold"] * len(requests)
        keys: List[str] = [request.cache_key() for request in requests]
        executed: Dict[str, FleetOutcome] = {}
        for position, (request, key) in enumerate(zip(requests, keys)):
            if key in executed:
                results[position] = executed[key]
                continue
            payload = self.store.get_payload(FLEET_STORE_KIND, key)
            if payload is not None:
                results[position] = FleetOutcome.from_dict(payload)
                origins[position] = "warm"
                self.warm_runs += 1
                continue
            outcome = self._execute_fleet(request)
            self.store.put_payload(FLEET_STORE_KIND, key, outcome.to_dict())
            self.executed_runs += 1
            executed[key] = outcome
            results[position] = outcome
        self.last_origins = origins
        self.last_keys = keys
        return [outcome for outcome in results if outcome is not None]

    def run_fleet_spec(
        self, spec: FleetSpec
    ) -> List[Tuple[FleetRunRequest, FleetOutcome]]:
        """Execute a full fleet sweep, pairing requests with outcomes."""
        requests = spec.requests()
        return list(zip(requests, self.run_fleets(requests)))
