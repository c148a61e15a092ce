"""The uniform result envelope returned by :class:`repro.api.Session`.

Whatever the request shape — one workload, a sweep grid, a scenario
matrix — the session answers with one :class:`Result`: an ordered list of
:class:`ResultEntry` values, each carrying the domain object
(:class:`~repro.core.results.WorkloadRun` or
:class:`~repro.attacks.scenarios.ScenarioOutcome`) plus its
:class:`Provenance` — the content-hash cache key the entry is stored
under, the serialization schema version, and whether it was simulated
this call (``cold``) or served from the result store (``warm``).  The
envelope records the wall time of the whole request, so callers can see
what a warm-start actually saved.

The envelope also speaks the wire format: :func:`result_to_wire`
flattens a :class:`Result` into the versioned JSON document the daemon
answers ``POST /v1/run`` with, and :func:`result_from_wire` rebuilds the
typed envelope (values, provenance, and — for sweeps — the indexed
overhead accessors) on the client side.  Everything but the wall time is
a pure function of the request, so the same request answered locally and
over the network produces byte-identical documents modulo that field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.analysis.engine import JOB_KINDS, EvaluationSettings, ExperimentResult, JobKind
from repro.api.requests import (
    WIRE_VERSION,
    SweepRequest,
    WireError,
    request_from_wire,
)
from repro.core.mitigations import VariantLike
from repro.core.results import WorkloadRun

if TYPE_CHECKING:
    from repro.attacks.scenarios import ScenarioOutcome
    from repro.fleet.simulation import FleetOutcome
    from repro.service.simulation import ServiceOutcome


@dataclass(frozen=True)
class Provenance:
    """Where one result entry came from.

    Attributes:
        cache_key: Content-hash identity of the run (the store key): a
            SHA-256 over the complete machine configuration and every
            workload parameter.
        schema_version: Serialisation schema the entry is stored under.
        origin: ``"cold"`` (simulated by this call) or ``"warm"``
            (served from the result store).
        purge: For serving entries, the purge audit behind the numbers —
            total monitor purges, their stall cycles, the cycles
            actually charged to latency, and the per-core breakdown; for
            fleet entries, the admission audit (offered/admitted counts,
            drop and deadline counters, per-shard rows).  ``None`` for
            entry kinds without enclave boundaries.
    """

    cache_key: str
    schema_version: int
    origin: str
    purge: Optional[Dict[str, Any]] = None

    @property
    def warm(self) -> bool:
        """True when the entry was served from the store."""
        return self.origin == "warm"


@dataclass(frozen=True)
class ResultEntry:
    """One cell of a result: a domain value plus its provenance.

    ``key`` addresses the cell within its request — ``(variant_name,
    benchmark, seed)`` for workload runs, ``(scenario, variant_name,
    seed)`` for scenario outcomes.
    """

    key: Tuple[Any, ...]
    value: Any
    provenance: Provenance


@dataclass
class Result:
    """Uniform envelope for any session request.

    Attributes:
        request: The request that produced this result (as submitted).
        entries: One entry per expanded cell, in deterministic
            expansion order.
        wall_time_seconds: Wall time of the whole request, including
            store lookups and any parallel fan-out.
        sweep: For sweep requests, the engine's indexed
            :class:`~repro.analysis.engine.ExperimentResult` (overhead
            accessors); ``None`` otherwise.
    """

    request: Any
    entries: List[ResultEntry]
    wall_time_seconds: float
    sweep: Optional[ExperimentResult] = None
    _index: Dict[Tuple[Any, ...], ResultEntry] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        for entry in self.entries:
            self._index[entry.key] = entry

    def __iter__(self):
        return iter(self.entries)

    # ------------------------------------------------------------------
    # Single-value conveniences

    @property
    def value(self) -> Any:
        """The single entry's value (errors on multi-entry results)."""
        if len(self.entries) != 1:
            raise ValueError(
                f"result has {len(self.entries)} entries; use .entries or the "
                "keyed accessors"
            )
        return self.entries[0].value

    @property
    def provenance(self) -> Provenance:
        """The single entry's provenance (errors on multi-entry results)."""
        if len(self.entries) != 1:
            raise ValueError(
                f"result has {len(self.entries)} entries; use .entries"
            )
        return self.entries[0].provenance

    # ------------------------------------------------------------------
    # Provenance summaries

    @property
    def cold_count(self) -> int:
        """Entries simulated by this call."""
        return sum(1 for entry in self.entries if not entry.provenance.warm)

    @property
    def warm_count(self) -> int:
        """Entries served from the result store."""
        return sum(1 for entry in self.entries if entry.provenance.warm)

    # ------------------------------------------------------------------
    # Keyed accessors

    def entry(self, *key: Any) -> ResultEntry:
        """The entry with the given cell key."""
        return self._index[tuple(key)]

    def run_for(
        self, variant: VariantLike, benchmark: str, seed: Optional[int] = None
    ) -> WorkloadRun:
        """The workload run of one (variant, benchmark, seed) sweep cell."""
        if self.sweep is None:
            raise ValueError("run_for is only available on sweep results")
        return self.sweep.run_for(variant, benchmark, seed)

    def overhead_percent(
        self, variant: VariantLike, benchmark: str, seed: Optional[int] = None
    ) -> float:
        """Runtime overhead of ``variant`` over BASE for one benchmark."""
        if self.sweep is None:
            raise ValueError("overhead_percent is only available on sweep results")
        return self.sweep.overhead_percent(variant, benchmark, seed)

    @property
    def outcomes(self) -> List[ScenarioOutcome]:
        """All scenario outcomes, in expansion order."""
        return self._values_of("scenario")

    @property
    def service_outcomes(self) -> List[ServiceOutcome]:
        """All enclave-serving outcomes, in expansion order."""
        return self._values_of("service")

    @property
    def fleet_outcomes(self) -> List[FleetOutcome]:
        """All fleet serving outcomes, in expansion order."""
        return self._values_of("fleet")

    def _values_of(self, kind: str) -> List[Any]:
        """Entry values of one engine kind's value type, in expansion order."""
        value_type = JOB_KINDS[kind].value_type
        return [entry.value for entry in self.entries if isinstance(entry.value, value_type)]


# ----------------------------------------------------------------------
# Wire codec: Result <-> versioned JSON document

#: Wire tag -> the engine kind (value type and codec) of every entry the
#: envelope can carry; fleet shards never reach one.  Declaration order
#: is the dispatch order.
_VALUE_CODECS: Dict[str, JobKind] = {
    kind: JOB_KINDS[kind] for kind in ("run", "scenario", "service", "fleet")
}

#: The keys every result wire document must carry — exactly these.
_RESULT_WIRE_KEYS = frozenset(
    {"wire_version", "request", "entries", "wall_time_seconds"}
)


def _value_to_wire(value: Any) -> Dict[str, Any]:
    for tag, job in _VALUE_CODECS.items():
        if isinstance(value, job.value_type):
            return {"kind": tag, "data": job.encode(value)}
    raise WireError(f"cannot encode result value of type {type(value).__name__}")


def _value_from_wire(document: Any) -> Any:
    if not isinstance(document, dict) or set(document) != {"kind", "data"}:
        raise WireError("entry value must be a {kind, data} object")
    tag = document["kind"]
    if tag not in _VALUE_CODECS:
        raise WireError(
            f"unknown entry value kind {tag!r} "
            f"(expected one of: {', '.join(_VALUE_CODECS)})"
        )
    try:
        return _VALUE_CODECS[tag].decode(document["data"])
    except (TypeError, ValueError, KeyError) as error:
        raise WireError(f"bad {tag!r} entry value: {error}") from error


def result_to_wire(result: Result) -> Dict[str, Any]:
    """Flatten a result envelope into its versioned wire document.

    The document is what the daemon answers ``POST /v1/run`` with;
    everything except ``wall_time_seconds`` is a pure function of the
    request, so local and remote answers to the same request are
    byte-identical modulo that one field.
    """
    to_wire = getattr(result.request, "to_wire", None)
    if to_wire is None:
        raise WireError(
            f"result request of type {type(result.request).__name__} has no "
            "wire form; only typed session requests travel the wire"
        )
    return {
        "wire_version": WIRE_VERSION,
        "request": to_wire(),
        "entries": [
            {
                "key": list(entry.key),
                "value": _value_to_wire(entry.value),
                "provenance": {
                    "cache_key": entry.provenance.cache_key,
                    "schema_version": entry.provenance.schema_version,
                    "origin": entry.provenance.origin,
                    "purge": entry.provenance.purge,
                },
            }
            for entry in result.entries
        ],
        "wall_time_seconds": result.wall_time_seconds,
    }


def result_from_wire(
    document: Any, *, settings: Optional[EvaluationSettings] = None
) -> Result:
    """Rebuild a typed result envelope from its wire document.

    For sweep requests the indexed :class:`ExperimentResult` (overhead
    accessors) is reconstructed by re-expanding the request against
    ``settings`` (environment defaults if omitted) — the expansion is
    deterministic, so the decoded runs line up with the re-derived
    engine requests cell for cell.
    """
    if not isinstance(document, dict):
        raise WireError(
            f"result document must be a JSON object, got {type(document).__name__}"
        )
    unknown_keys = sorted(set(document) - _RESULT_WIRE_KEYS)
    if unknown_keys:
        raise WireError(f"unknown result document key(s): {', '.join(unknown_keys)}")
    missing_keys = sorted(_RESULT_WIRE_KEYS - set(document))
    if missing_keys:
        raise WireError(f"result document missing key(s): {', '.join(missing_keys)}")
    version = document["wire_version"]
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: document speaks {version!r}, "
            f"this build speaks {WIRE_VERSION}"
        )
    request = request_from_wire(document["request"])
    entries: List[ResultEntry] = []
    for row in document["entries"]:
        if not isinstance(row, dict) or set(row) != {"key", "value", "provenance"}:
            raise WireError("result entry must be a {key, value, provenance} object")
        provenance_fields = row["provenance"]
        if not isinstance(provenance_fields, dict) or sorted(provenance_fields) != [
            "cache_key",
            "origin",
            "purge",
            "schema_version",
        ]:
            raise WireError(
                "entry provenance must carry exactly cache_key, origin, purge, "
                "and schema_version"
            )
        entries.append(
            ResultEntry(
                key=tuple(row["key"]),
                value=_value_from_wire(row["value"]),
                provenance=Provenance(
                    cache_key=provenance_fields["cache_key"],
                    schema_version=provenance_fields["schema_version"],
                    origin=provenance_fields["origin"],
                    purge=provenance_fields["purge"],
                ),
            )
        )
    sweep: Optional[ExperimentResult] = None
    if isinstance(request, SweepRequest):
        resolved = request.resolve(
            settings if settings is not None else EvaluationSettings.from_environment()
        )
        engine_requests = resolved.requests()
        if len(engine_requests) == len(entries):
            sweep = ExperimentResult(
                requests=engine_requests,
                runs=[entry.value for entry in entries],
            )
    return Result(
        request=request,
        entries=entries,
        wall_time_seconds=document["wall_time_seconds"],
        sweep=sweep,
    )
