"""The typed request hierarchy accepted by :class:`repro.api.Session`.

Every experiment the simulator can run is declared as one of these
request shapes, and every front end (CLI, figures, benchmarks, examples,
notebooks) speaks this one vocabulary instead of its own dialect:

* :class:`WorkloadRequest` — one benchmark on one machine configuration;
* :class:`SweepRequest` — a cartesian variants × benchmarks × seeds grid;
* :class:`ScenarioRequest` — co-scheduled security scenarios across
  variants × seeds on an N-core machine;
* :class:`ServiceRequest` — the enclave-serving sweep on one machine;
* :class:`FleetRequest` — sharded fleet serving with routing, bounded
  admission, and a closed-loop client model.

Requests are *declarative*: fields left as ``None`` resolve against the
session's :class:`~repro.analysis.engine.EvaluationSettings` (environment
defaults) at run time.  ``resolve`` lowers each request onto the engine's
fully-specified form — a :class:`~repro.analysis.engine.RunRequest`, or
the spec (:class:`~repro.analysis.engine.ExperimentSpec`,
``ScenarioSpec``, ``ServiceSpec``, ``FleetSpec``) whose expansion holds
the content-hash cache keys.  Variant fields accept anything
:data:`~repro.core.mitigations.VariantLike`: legacy enum members,
composed :class:`~repro.core.mitigations.MitigationSet` values, or spec
strings such as ``"FLUSH+MISS"``.

Every request also speaks the **wire format**: ``to_wire()`` produces a
versioned, JSON-serialisable document and :func:`request_from_wire`
turns such a document back into the typed request.  The CLI, the
daemon's HTTP API, and tests all build requests through this one path,
so a request is the same object whether it was typed in Python, parsed
from argv, or POSTed over the network.  Variant values are canonicalised
to spec strings on encode (``spec_name``), so a round trip through the
wire is exact for canonically spelled requests and cache-key-identical
for enum or :class:`MitigationSet` spellings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, ClassVar, Dict, Optional, Sequence, Union

from repro.analysis.engine import (
    DEFAULT_FLEET_ADMISSION,
    DEFAULT_FLEET_CLIENT,
    DEFAULT_FLEET_POLICY,
    DEFAULT_FLEET_REQUESTS,
    DEFAULT_FLEET_ROUTER,
    DEFAULT_FLEET_SHARD_CORES,
    DEFAULT_FLEET_TENANTS,
    EvaluationSettings,
    ExperimentSpec,
    FleetSpec,
    RunRequest,
    ScenarioSpec,
    ServiceSpec,
    request_for,
)
from repro.common.defaults import (
    DEFAULT_FLEET_SHARDS,
    DEFAULT_MEASUREMENT_CYCLES_PER_PAGE,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_SERVICE_CORES,
    DEFAULT_SERVICE_INSTRUCTIONS,
    DEFAULT_SERVICE_REQUESTS,
    DEFAULT_SERVICE_TENANTS,
    DEFAULT_SLO_FACTOR,
    DEFAULT_THINK_FACTOR,
    DEFAULT_WIPE_BYTES_PER_CYCLE,
)
from repro.core.config import MI6Config
from repro.core.mitigations import VariantLike
from repro.core.serialization import decode_field, encode_field, field_types


#: Version stamped into (and demanded from) every wire document.  Bump
#: it whenever a request field changes shape or meaning; a daemon and a
#: client disagreeing on the version fail loudly instead of silently
#: reinterpreting fields.
WIRE_VERSION = 1

#: The keys every request wire document must carry — exactly these.
_WIRE_KEYS = frozenset({"wire_version", "kind", "fields"})


class WireError(ValueError):
    """A wire document is malformed, unknown, or version-incompatible."""


class _SessionRequest:
    """Base of the session's request dataclasses.

    Provides the wire encoding and, for the grid-shaped kinds, the
    lowering onto the engine's ``spec_type``: every field passes through
    to its ``create`` (``requests`` as ``num_requests``), and unset seeds
    and run lengths take the session settings.
    """

    wire_kind: ClassVar[str]
    spec_type: ClassVar[Any]

    def resolve(self, settings: EvaluationSettings) -> Any:
        """Lower onto the engine's spec of this request kind."""
        arguments = {
            "num_requests" if name == "requests" else name: getattr(self, name)
            for name in field_types(type(self))
        }
        for name, default in (("seeds", (settings.seed,)), ("instructions", settings.instructions)):
            if name in arguments and arguments[name] is None:
                arguments[name] = default
        return self.spec_type.create(**arguments)

    def to_wire(self) -> Dict[str, Any]:
        """Versioned JSON-serialisable document for this request."""
        return {
            "wire_version": WIRE_VERSION,
            "kind": self.wire_kind,
            "fields": {
                name: encode_field(annotation, getattr(self, name))
                for name, annotation in field_types(type(self)).items()
            },
        }


def request_from_wire(document: Any) -> "Request":
    """Decode a wire document into the typed request it names.

    The inverse of ``Request.to_wire()``.  Strict by design — unknown
    top-level keys, unknown request kinds, unknown fields, any
    ``wire_version`` other than :data:`WIRE_VERSION`, and field values
    that do not match their declared type
    (:func:`~repro.core.serialization.decode_field`) are
    :class:`WireError`\\ s, so a client/daemon skew can never silently
    drop or reinterpret a parameter.
    """
    if not isinstance(document, dict):
        raise WireError(
            f"wire document must be a JSON object, got {type(document).__name__}"
        )
    unknown_keys = sorted(set(document) - _WIRE_KEYS)
    if unknown_keys:
        raise WireError(f"unknown wire document key(s): {', '.join(unknown_keys)}")
    missing_keys = sorted(_WIRE_KEYS - set(document))
    if missing_keys:
        raise WireError(f"wire document missing key(s): {', '.join(missing_keys)}")
    version = document["wire_version"]
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: document speaks {version!r}, "
            f"this build speaks {WIRE_VERSION}"
        )
    kind = document["kind"]
    request_type = _WIRE_KINDS.get(kind)
    if request_type is None:
        raise WireError(
            f"unknown request kind {kind!r} (expected one of: "
            f"{', '.join(_WIRE_KINDS)})"
        )
    wire_fields = document["fields"]
    if not isinstance(wire_fields, dict):
        raise WireError(
            f"wire 'fields' must be a JSON object, got {type(wire_fields).__name__}"
        )
    types = field_types(request_type)
    unknown_fields = sorted(set(wire_fields) - set(types))
    if unknown_fields:
        raise WireError(
            f"unknown field(s) for {kind!r} request: {', '.join(unknown_fields)}"
        )
    decoded: Dict[str, Any] = {}
    for name, value in wire_fields.items():
        try:
            decoded[name] = decode_field(types[name], value)
        except (TypeError, ValueError, KeyError) as error:
            raise WireError(
                f"bad value for {kind!r} field {name!r}: {error}"
            ) from error
    return request_type(**decoded)


@dataclass(frozen=True)
class WorkloadRequest(_SessionRequest):
    """One benchmark run on one machine configuration.

    Attributes:
        variant: Mitigation spec of the machine (ignored when ``config``
            is given).
        benchmark: Benchmark profile name.
        instructions: Instructions to commit (session default if None).
        seed: Run seed (session default if None).
        warm_up: Prime caches/TLBs before the measured interval.
        config: Explicit machine configuration, for ablations that step
            outside the mitigation lattice entirely.
    """

    wire_kind: ClassVar[str] = "workload"

    variant: VariantLike = "BASE"
    benchmark: str = "gcc"
    instructions: Optional[int] = None
    seed: Optional[int] = None
    warm_up: bool = True
    config: Optional[MI6Config] = None

    def resolve(self, settings: EvaluationSettings) -> RunRequest:
        """Lower onto the engine's fully-specified run request."""
        instructions = (
            self.instructions if self.instructions is not None else settings.instructions
        )
        seed = self.seed if self.seed is not None else settings.seed
        if self.config is not None:
            return RunRequest(
                config=self.config,
                benchmark=self.benchmark,
                instructions=instructions,
                seed=seed,
                warm_up=self.warm_up,
            )
        resolved = request_for(
            self.variant,
            self.benchmark,
            EvaluationSettings(instructions=instructions, seed=seed),
        )
        if not self.warm_up:
            resolved = replace(resolved, warm_up=False)
        return resolved


@dataclass(frozen=True)
class SweepRequest(_SessionRequest):
    """A cartesian sweep: variants × benchmarks × seeds.

    ``None`` fields resolve to the paper's full grid (all seven named
    variants, all eleven benchmarks) and the session settings — i.e. an
    empty ``SweepRequest()`` is the Figure 13 evaluation.
    """

    wire_kind: ClassVar[str] = "sweep"
    spec_type: ClassVar[Any] = ExperimentSpec

    variants: Optional[Sequence[VariantLike]] = None
    benchmarks: Optional[Sequence[str]] = None
    seeds: Optional[Sequence[int]] = None
    instructions: Optional[int] = None


@dataclass(frozen=True)
class ScenarioRequest(_SessionRequest):
    """Co-scheduled security scenarios across variants × seeds.

    ``None`` fields resolve to every registered scenario, the paper's
    BASE-vs-F+P+M+A comparison, and the session seed.  ``num_cores``
    scales the shared machine past the attacker+victim pair (extra cores
    host bystander domains per the placement policy).
    """

    wire_kind: ClassVar[str] = "scenario"
    spec_type: ClassVar[Any] = ScenarioSpec

    scenarios: Optional[Sequence[str]] = None
    variants: Optional[Sequence[VariantLike]] = None
    seeds: Optional[Sequence[int]] = None
    num_cores: int = 2


@dataclass(frozen=True)
class ServiceRequest(_SessionRequest):
    """An enclave-serving sweep: policies × variants × loads × seeds.

    ``None`` fields resolve to all three shipped scheduling policies,
    the paper's BASE-vs-F+P+M+A comparison, one 0.7-load point, and the
    session seed.  The fleet shape — ``num_cores`` serving cores,
    ``num_tenants`` tenant enclaves, ``requests`` open-loop arrivals of
    ``instructions``-long work, optional churn — is shared across the
    grid so the sweep isolates the scheduling/mitigation/load axes.
    """

    wire_kind: ClassVar[str] = "service"
    spec_type: ClassVar[Any] = ServiceSpec

    policies: Optional[Sequence[str]] = None
    variants: Optional[Sequence[VariantLike]] = None
    loads: Optional[Sequence[float]] = None
    seeds: Optional[Sequence[int]] = None
    load_profile: str = "poisson"
    num_cores: int = DEFAULT_SERVICE_CORES
    num_tenants: int = DEFAULT_SERVICE_TENANTS
    requests: int = DEFAULT_SERVICE_REQUESTS
    instructions: int = DEFAULT_SERVICE_INSTRUCTIONS
    churn_every: int = 0


@dataclass(frozen=True)
class FleetRequest(_SessionRequest):
    """A fleet-scale serving sweep: variants × loads × seeds on shards.

    ``None`` fields resolve to the paper's BASE-vs-F+P+M+A comparison,
    one 0.7-load point, and the session seed.  The fleet shape —
    ``num_shards`` independent shard machines of ``shard_cores`` cores,
    a routing policy placing ``num_tenants`` tenants across them, a
    bounded per-shard queue with an admission policy, and a client
    model (closed-loop by default, so load sweeps drive the fleet to
    saturation) — is shared across the grid, isolating the
    mitigation/offered-load axes.  ``churn_every`` plus the DRAM-wipe
    and measurement knobs extend churn costing with teardown charges.
    """

    wire_kind: ClassVar[str] = "fleet"
    spec_type: ClassVar[Any] = FleetSpec

    variants: Optional[Sequence[VariantLike]] = None
    loads: Optional[Sequence[float]] = None
    seeds: Optional[Sequence[int]] = None
    policy: str = DEFAULT_FLEET_POLICY
    router: str = DEFAULT_FLEET_ROUTER
    admission: str = DEFAULT_FLEET_ADMISSION
    client: str = DEFAULT_FLEET_CLIENT
    load_profile: str = "poisson"
    num_shards: int = DEFAULT_FLEET_SHARDS
    shard_cores: int = DEFAULT_FLEET_SHARD_CORES
    num_tenants: int = DEFAULT_FLEET_TENANTS
    requests: int = DEFAULT_FLEET_REQUESTS
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    slo_factor: float = DEFAULT_SLO_FACTOR
    think_factor: float = DEFAULT_THINK_FACTOR
    instructions: int = DEFAULT_SERVICE_INSTRUCTIONS
    churn_every: int = 0
    dram_wipe_bytes_per_cycle: int = DEFAULT_WIPE_BYTES_PER_CYCLE
    measurement_cycles_per_page: int = DEFAULT_MEASUREMENT_CYCLES_PER_PAGE


#: Any request the Session accepts.
Request = Union[
    WorkloadRequest, SweepRequest, ScenarioRequest, ServiceRequest, FleetRequest
]

#: Wire kind tag -> request type, in declaration order.
_WIRE_KINDS: Dict[str, Any] = {
    WorkloadRequest.wire_kind: WorkloadRequest,
    SweepRequest.wire_kind: SweepRequest,
    ScenarioRequest.wire_kind: ScenarioRequest,
    ServiceRequest.wire_kind: ServiceRequest,
    FleetRequest.wire_kind: FleetRequest,
}

__all__ = [
    "FleetRequest",
    "Request",
    "ScenarioRequest",
    "ServiceRequest",
    "SweepRequest",
    "WIRE_VERSION",
    "WireError",
    "WorkloadRequest",
    "request_from_wire",
]
