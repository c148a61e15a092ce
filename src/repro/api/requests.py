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

Requests are *declarative*: seeds and run lengths left as ``None``
resolve against the session's
:class:`~repro.analysis.engine.EvaluationSettings` (environment
defaults) at run time, and every other ``None`` field takes the
engine's default.  ``resolve`` lowers each request onto the engine's
fully-specified form — a :class:`~repro.analysis.engine.RunRequest`, or
the spec (:class:`~repro.analysis.engine.ExperimentSpec`,
``ScenarioSpec``, ``ServiceSpec``, ``FleetSpec``) whose expansion holds
the content-hash cache keys.  Requests and specs are two classes per
grid kind on purpose: requests are the wire vocabulary, with ``None``
for "default" and no validation, while a spec is the resolved grid and
rejects bad input when it is constructed.  Variant fields accept anything
:data:`~repro.core.mitigations.VariantLike`: composed
:class:`~repro.core.mitigations.MitigationSet` values or spec strings
such as ``"FLUSH+MISS"``.

Every request also speaks the **wire format**: ``to_wire()`` produces a
versioned, JSON-serialisable document and :func:`request_from_wire`
turns such a document back into the typed request.  The CLI, the
daemon's HTTP API, and tests all build requests through this one path,
so a request is the same object whether it was typed in Python, parsed
from argv, or POSTed over the network.  Variant values are canonicalised
to spec strings on encode (``spec_name``), so a round trip through the
wire is exact for canonically spelled requests and cache-key-identical
for other spellings and :class:`MitigationSet` values.

The grid kinds also declare their command line: a field made with
:func:`_flag` carries its ``repro`` flag, help text and any argparse
options in its metadata, and :mod:`repro.cli` builds each subcommand's
options from those fields (type and ``nargs`` from the annotation, the
default from the field).  A new request field needs no CLI edit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
from repro.service.arrivals import LOAD_PROFILES


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
    lowering onto the engine's ``spec_type``: the spec is built from the
    request's non-``None`` fields (``requests`` as ``num_requests``), so
    every other field takes the spec's own default, except unset seeds
    and run lengths, which take the session settings.  The spec
    validates itself; a request validates nothing, so decoding a wire
    document raises only :class:`WireError`.
    """

    wire_kind: ClassVar[str]
    spec_type: ClassVar[Any]

    def resolve(self, settings: EvaluationSettings) -> Any:
        """Lower onto the engine's spec of this request kind."""
        unset = {"seeds": (settings.seed,), "instructions": settings.instructions}
        arguments = {}
        for name in field_types(type(self)):
            value = getattr(self, name)
            if value is None:
                value = unset.get(name)
            if value is not None:
                arguments["num_requests" if name == "requests" else name] = value
        return self.spec_type(**arguments)

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


def _flag(flag: str, help: str, default: Any = None, **options: Any) -> Any:
    """A request field the ``repro`` subcommand of its kind exposes as ``flag``.

    ``options`` (``choices``, ``metavar``, ``nargs``) go to
    ``add_argument`` as they are; a ``flag`` without leading dashes is a
    positional argument named after the field.
    """
    return field(default=default, metadata={"flag": flag, "help": help, **options})


_SEEDS_HELP = "seeds (default: the sweep seed)"
_PAIR_VARIANTS_HELP = "mitigation specs, e.g. BASE FLUSH+MISS (default: BASE and F+P+M+A)"
_CHURN_HELP = "destroy+recreate a tenant's enclave after N of its requests (default off)"


@dataclass(frozen=True)
class SweepRequest(_SessionRequest):
    """A cartesian sweep: variants × benchmarks × seeds.

    ``None`` fields resolve to the paper's full grid (all seven named
    variants, all eleven benchmarks) and the session settings — i.e. an
    empty ``SweepRequest()`` is the Figure 13 evaluation.  The CLI's
    shared ``--instructions`` flag sets the session's run length, which
    ``instructions`` then takes.
    """

    wire_kind: ClassVar[str] = "sweep"
    spec_type: ClassVar[Any] = ExperimentSpec

    variants: Optional[Sequence[VariantLike]] = _flag(
        "--variants",
        "mitigation specs, e.g. BASE FLUSH+MISS F+P+M+A (default: the paper's seven)",
    )
    benchmarks: Optional[Sequence[str]] = _flag(
        "--benchmarks", "benchmark names (default: all eleven)"
    )
    seeds: Optional[Sequence[int]] = _flag("--seeds", "seeds (default: one, the sweep seed)")
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

    scenarios: Optional[Sequence[str]] = _flag(
        "scenarios",
        "scenario names (default: all registered scenarios)",
        nargs="*",
        metavar="SCENARIO",
    )
    variants: Optional[Sequence[VariantLike]] = _flag("--variants", _PAIR_VARIANTS_HELP)
    seeds: Optional[Sequence[int]] = _flag("--seeds", _SEEDS_HELP)
    num_cores: int = _flag(
        "--num-cores",
        "machine size; cores beyond attacker+victim host bystander domains (default 2)",
        default=2,
    )


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

    policies: Optional[Sequence[str]] = _flag(
        "--policy", "scheduling policies (default: fifo affinity batch)", metavar="POLICY"
    )
    variants: Optional[Sequence[VariantLike]] = _flag("--variants", _PAIR_VARIANTS_HELP)
    loads: Optional[Sequence[float]] = _flag(
        "--load", "offered load points as fractions of fleet capacity (default: 0.7)"
    )
    seeds: Optional[Sequence[int]] = _flag("--seeds", _SEEDS_HELP)
    load_profile: str = _flag(
        "--profile",
        "arrival process shape (default: poisson)",
        default="poisson",
        choices=LOAD_PROFILES,
    )
    num_cores: int = _flag(
        "--num-cores",
        f"serving cores of the machine (default {DEFAULT_SERVICE_CORES})",
        default=DEFAULT_SERVICE_CORES,
    )
    num_tenants: int = _flag(
        "--tenants",
        f"tenant enclaves sharing the machine (default {DEFAULT_SERVICE_TENANTS})",
        default=DEFAULT_SERVICE_TENANTS,
    )
    requests: int = _flag(
        "--requests",
        f"open-loop requests per simulation (default {DEFAULT_SERVICE_REQUESTS})",
        default=DEFAULT_SERVICE_REQUESTS,
    )
    instructions: int = _flag(
        "--instructions",
        f"instructions per request (default {DEFAULT_SERVICE_INSTRUCTIONS}; "
        "short requests are where enclave boundary costs surface)",
        default=DEFAULT_SERVICE_INSTRUCTIONS,
    )
    churn_every: int = _flag("--churn-every", _CHURN_HELP, default=0)


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

    variants: Optional[Sequence[VariantLike]] = _flag("--variants", _PAIR_VARIANTS_HELP)
    loads: Optional[Sequence[float]] = _flag(
        "--load", "offered load points as fractions of per-shard capacity (default: 0.7)"
    )
    seeds: Optional[Sequence[int]] = _flag("--seeds", _SEEDS_HELP)
    policy: str = _flag(
        "--policy",
        f"per-shard scheduling policy (default {DEFAULT_FLEET_POLICY})",
        default=DEFAULT_FLEET_POLICY,
    )
    router: str = _flag(
        "--router",
        "routing policy placing tenants on shards "
        f"(default {DEFAULT_FLEET_ROUTER}; see 'repro-bench list')",
        default=DEFAULT_FLEET_ROUTER,
    )
    admission: str = _flag(
        "--admission",
        "admission policy at each shard's bounded queue "
        f"(default {DEFAULT_FLEET_ADMISSION}; see 'repro-bench list')",
        default=DEFAULT_FLEET_ADMISSION,
    )
    client: str = _flag(
        "--client",
        "client model generating the request stream "
        f"(default {DEFAULT_FLEET_CLIENT}; see 'repro-bench list')",
        default=DEFAULT_FLEET_CLIENT,
    )
    load_profile: str = _flag(
        "--profile",
        "arrival process shape for open-loop clients (default: poisson)",
        default="poisson",
        choices=LOAD_PROFILES,
    )
    num_shards: int = _flag(
        "--shards",
        f"independent shard machines (default {DEFAULT_FLEET_SHARDS})",
        default=DEFAULT_FLEET_SHARDS,
    )
    shard_cores: int = _flag(
        "--shard-cores",
        f"serving cores per shard (default {DEFAULT_FLEET_SHARD_CORES})",
        default=DEFAULT_FLEET_SHARD_CORES,
    )
    num_tenants: int = _flag(
        "--tenants",
        f"tenant enclaves across the fleet (default {DEFAULT_FLEET_TENANTS})",
        default=DEFAULT_FLEET_TENANTS,
    )
    requests: int = _flag(
        "--requests",
        f"fleet-wide request budget (default {DEFAULT_FLEET_REQUESTS})",
        default=DEFAULT_FLEET_REQUESTS,
    )
    queue_depth: int = _flag(
        "--queue-depth",
        f"bounded per-shard queue depth (default {DEFAULT_QUEUE_DEPTH})",
        default=DEFAULT_QUEUE_DEPTH,
    )
    slo_factor: float = _flag(
        "--slo-factor",
        "latency SLO as a multiple of the mean request service time "
        f"(default {DEFAULT_SLO_FACTOR})",
        default=DEFAULT_SLO_FACTOR,
    )
    think_factor: float = _flag(
        "--think-factor",
        "closed-loop mean think time as a multiple of the mean service "
        f"time (default {DEFAULT_THINK_FACTOR})",
        default=DEFAULT_THINK_FACTOR,
    )
    instructions: int = _flag(
        "--instructions",
        f"instructions per request (default {DEFAULT_SERVICE_INSTRUCTIONS})",
        default=DEFAULT_SERVICE_INSTRUCTIONS,
    )
    churn_every: int = _flag("--churn-every", _CHURN_HELP, default=0)
    dram_wipe_bytes_per_cycle: int = _flag(
        "--wipe-bytes-per-cycle",
        "DRAM-wipe bandwidth charged on churn teardown "
        f"(default {DEFAULT_WIPE_BYTES_PER_CYCLE} bytes/cycle)",
        default=DEFAULT_WIPE_BYTES_PER_CYCLE,
    )
    measurement_cycles_per_page: int = _flag(
        "--measurement-cycles",
        "enclave-measurement cycles per loaded page charged on churn "
        f"re-create (default {DEFAULT_MEASUREMENT_CYCLES_PER_PAGE})",
        default=DEFAULT_MEASUREMENT_CYCLES_PER_PAGE,
    )


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
