"""Session: the single public front door of the simulator.

A :class:`Session` owns the pieces every experiment needs — the
persistent :class:`~repro.analysis.store.ResultStore`, the
:class:`~repro.analysis.engine.ParallelRunner`, the evaluation settings,
and the registries (composable mitigations, security scenarios,
benchmark profiles) — and exposes exactly one operation: :meth:`run` a
typed request, get back a uniform :class:`~repro.api.results.Result`
envelope with per-entry provenance.  The CLI, the figure functions, the
benchmarks, and the examples all flow through it, so adding a new
experiment type means adding a request shape here, not teaching five
front ends a new dialect.

A module-level default session (:func:`default_session`) plays the role
the harness's default store used to: shared across figure calls in one
process so BASE runs are computed once, re-pointable by the CLI via
:func:`set_default_session`.
"""

from __future__ import annotations

import time
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, get_args

from repro.analysis.engine import (
    EvaluationSettings,
    ExperimentResult,
    ExperimentSpec,
    ParallelRunner,
    RunRequest,
    default_jobs,
)
from repro.analysis.store import ResultStore
from repro.api.requests import Request, ScenarioRequest, SweepRequest, WorkloadRequest
from repro.api.results import Provenance, Result, ResultEntry
from repro.core.mitigations import (
    Mitigation,
    VariantLike,
    config_for_spec,
    known_compositions,
    known_mitigations,
)
from repro.core.serialization import SCHEMA_VERSION
from repro.fleet.admission import admission_description, admission_names
from repro.fleet.clients import client_model_description, client_model_names
from repro.fleet.routing import router_description, router_names
from repro.service.schedulers import policy_description, policy_names
from repro.workloads.spec_cint2006 import benchmark_names

#: Engine kind -> the names of the cell key (``ResultEntry.key``) of
#: one of its requests: each is a field of the engine request, except
#: ``variant``, the configuration's canonical name.
CELL_KEYS: Dict[str, Tuple[str, ...]] = {
    "run": ("variant", "benchmark", "seed"),
    "scenario": ("scenario", "variant", "seed"),
    "service": ("policy", "variant", "load", "seed"),
    "fleet": ("variant", "load", "seed"),
}

_CELLS: Dict[str, Callable[[Any], Tuple[Any, ...]]] = {
    kind: attrgetter(*("config.name" if name == "variant" else name for name in names))
    for kind, names in CELL_KEYS.items()
}

#: Serving kind -> the outcome fields of each entry's provenance audit:
#: the purge audit of a service run, the admission audit of a fleet.
#: These kinds' tenants are priced by kernel runs before they execute.
_AUDITS: Dict[str, Tuple[str, ...]] = {
    "service": (
        "purge_count",
        "purge_stall_cycles",
        "charged_purge_cycles",
        "charged_flush_cycles",
        "per_core",
    ),
    "fleet": (
        "offered",
        "admitted",
        "dropped_queue_full",
        "rejected_deadline",
        "deadline_misses",
        "per_shard",
    ),
}


def _audit(outcome: Any, names: Tuple[str, ...]) -> Dict[str, Any]:
    """A serving outcome's audit fields, its per-row lists copied."""
    audit: Dict[str, Any] = {}
    for name in names:
        value = getattr(outcome, name)
        audit[name] = [dict(row) for row in value] if isinstance(value, list) else value
    return audit


class Session:
    """One simulator context: store + runner + settings + registries.

    Args:
        store: Result store backing every request (environment default —
            on-disk under ``.repro_cache/`` — if omitted).
        jobs: Worker processes for cache misses (``REPRO_BENCH_JOBS``,
            default 1, if omitted).
        settings: Evaluation settings filling in unspecified request
            fields (environment defaults if omitted).
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        *,
        jobs: Optional[int] = None,
        settings: Optional[EvaluationSettings] = None,
    ) -> None:
        self.store = store if store is not None else ResultStore.from_environment()
        self.settings = (
            settings if settings is not None else EvaluationSettings.from_environment()
        )
        self.runner = ParallelRunner(
            self.store, jobs=jobs if jobs is not None else default_jobs()
        )

    # ------------------------------------------------------------------
    # Registries

    def mitigations(self) -> List[Mitigation]:
        """The registered composable mitigations, in canonical order."""
        return known_mitigations()

    def named_variants(self) -> Dict[str, Any]:
        """Declared composition names (``BASE``, ``F+P+M+A``) and members."""
        return known_compositions()

    def scenarios(self) -> Dict[str, str]:
        """Registered security scenarios and their descriptions."""
        from repro.attacks.scenarios import scenario_description, scenario_names

        return {name: scenario_description(name) for name in scenario_names()}

    def policies(self) -> Dict[str, str]:
        """Registered serving scheduling policies and their descriptions."""
        return {name: policy_description(name) for name in policy_names()}

    def routers(self) -> Dict[str, str]:
        """Registered fleet routing policies and their descriptions."""
        return {name: router_description(name) for name in router_names()}

    def admission_policies(self) -> Dict[str, str]:
        """Registered fleet admission policies and their descriptions."""
        return {name: admission_description(name) for name in admission_names()}

    def client_models(self) -> Dict[str, str]:
        """Registered fleet client models and their descriptions."""
        return {name: client_model_description(name) for name in client_model_names()}

    def benchmarks(self) -> List[str]:
        """Calibrated benchmark profile names, in paper order."""
        return benchmark_names()

    def describe(self, variant: VariantLike) -> str:
        """Figure-4-style summary of any mitigation combination."""
        return config_for_spec(variant).describe()

    # ------------------------------------------------------------------
    # Execution

    def run(self, request: Request) -> Result:
        """Execute one typed request and return its result envelope.

        Every request kind takes the same path: resolve it against the
        session settings into engine requests, price serving kinds'
        tenants through the run layer, execute through the runner, and
        wrap each value in an entry with its cell key, provenance and —
        for serving kinds — its audit.  Repeats are served from the
        session's store (``warm`` entries); everything else is
        simulated, in parallel when the session has more than one job,
        and persisted before the call returns.
        """
        if not isinstance(request, get_args(Request)):
            raise TypeError(
                f"unsupported request type {type(request).__name__!r} "
                "(expected WorkloadRequest, SweepRequest, ScenarioRequest, "
                "ServiceRequest, or FleetRequest)"
            )
        resolved = request.resolve(self.settings)
        engine_requests = (
            [resolved] if isinstance(resolved, RunRequest) else resolved.requests()
        )
        kind = engine_requests[0].kind
        started = time.perf_counter()
        executed = (
            self.runner.priced(engine_requests) if kind in _AUDITS else engine_requests
        )
        values = self.runner.run(executed)
        elapsed = time.perf_counter() - started
        # The runner's per-request bookkeeping belongs to exactly this
        # call: its cache keys were computed during execution (no
        # re-hashing here).
        entries = [
            ResultEntry(
                key=_CELLS[kind](engine_request),
                value=value,
                provenance=Provenance(
                    cache_key=cache_key,
                    schema_version=SCHEMA_VERSION,
                    origin=origin,
                    purge=_audit(value, _AUDITS[kind]) if kind in _AUDITS else None,
                ),
            )
            for engine_request, value, cache_key, origin in zip(
                engine_requests, values, self.runner.last_keys, self.runner.last_origins
            )
        ]
        sweep = (
            ExperimentResult(requests=engine_requests, runs=values)
            if isinstance(resolved, ExperimentSpec)
            else None
        )
        return Result(
            request=request, entries=entries, wall_time_seconds=elapsed, sweep=sweep
        )

    # ------------------------------------------------------------------
    # One-line conveniences (build the request, run it)

    def workload(
        self,
        variant: VariantLike = "BASE",
        benchmark: str = "gcc",
        **fields: Any,
    ) -> Result:
        """Run one benchmark on one mitigation combination."""
        return self.run(WorkloadRequest(variant=variant, benchmark=benchmark, **fields))

    def sweep(
        self,
        variants: Optional[Sequence[VariantLike]] = None,
        benchmarks: Optional[Sequence[str]] = None,
        **fields: Any,
    ) -> Result:
        """Run a variants × benchmarks × seeds sweep (full grid default)."""
        return self.run(
            SweepRequest(variants=variants, benchmarks=benchmarks, **fields)
        )

    def attack(
        self,
        scenarios: Optional[Sequence[str]] = None,
        variants: Optional[Sequence[VariantLike]] = None,
        **fields: Any,
    ) -> Result:
        """Run the co-scheduled security-scenario matrix."""
        return self.run(
            ScenarioRequest(scenarios=scenarios, variants=variants, **fields)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(store={self.store!r}, jobs={self.runner.jobs}, "
            f"settings={self.settings})"
        )


# ----------------------------------------------------------------------
# The process-wide default session

_DEFAULT_SESSION: Optional[Session] = None


def default_session() -> Session:
    """The session shared by every call that doesn't bring its own.

    Created lazily from the environment; the figure functions and the
    harness route through it so BASE runs are shared across figures and
    repeated invocations are warm-start.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION


def set_default_session(session: Session) -> Session:
    """Replace the shared session (the CLI points it at its store)."""
    global _DEFAULT_SESSION
    _DEFAULT_SESSION = session
    return session


def coerce_session(
    store: Optional[ResultStore] = None,
    jobs: Optional[int] = None,
    settings: Optional[EvaluationSettings] = None,
) -> Session:
    """Session for legacy (store, jobs) call sites.

    The harness and figure functions historically accepted a store and a
    job count; this maps those onto a session — the default one when
    nothing custom is asked for, a transient one otherwise.
    """
    if store is None and jobs is None and settings is None:
        return default_session()
    base = default_session()
    return Session(
        store=store if store is not None else base.store,
        jobs=jobs if jobs is not None else base.runner.jobs,
        settings=settings,
    )
