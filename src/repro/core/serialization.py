"""Stable dict/JSON round-trips for configurations and run results.

The experiment engine (:mod:`repro.analysis.engine`) and the persistent
result store (:mod:`repro.analysis.store`) need these from the core
layer:

* a canonical, content-addressed identity for a simulation — the cache
  key of a run (:func:`run_cache_key`) or of any other engine request
  (:func:`request_cache_key`) is a SHA-256 digest over the *full* machine
  configuration plus the request's parameters, so any configuration
  change (not just the variant name) invalidates cached results;
* a lossless serialisation of :class:`~repro.core.results.WorkloadRun`
  so results survive process boundaries (the parallel runner's worker
  processes) and process exits (the on-disk store);
* one field-typed codec for request dataclasses, shared by the worker
  payloads (:func:`request_to_payload`) and the strict wire decoder
  (:func:`decode_field`);
* one field-driven codec for outcome dataclasses
  (:class:`OutcomeDocument`), the documents the result store persists.

Everything here is plain dicts of JSON-compatible scalars; enums are
encoded by name.  ``SCHEMA_VERSION`` is folded into every digest so a
format change cleanly orphans old cache entries instead of misreading
them.
"""

from __future__ import annotations

import hashlib
import json
from collections import abc
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Tuple,
    Type,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.common.stats import StatsRegistry
from repro.core.config import CoreConfig, LlcConfig, MI6Config
from repro.core.mitigations import VariantLike, spec_name
from repro.core.results import CoreResult, WorkloadRun
from repro.mem.address import AddressMap, CacheGeometry, IndexFunction
from repro.mem.dram import DramConfig
from repro.mem.mshr import MshrConfig

#: Version of the serialised formats below.  Bump on any incompatible
#: change; the digest namespace includes it, so old on-disk entries are
#: simply never looked up again.
#: v2: the commit stage honours ``commit_width`` (it was hardcoded
#: 2-wide), changing cycle counts for non-default-width configurations;
#: pre-fix cache entries must not be served warm.
SCHEMA_VERSION = 2

#: Digest-builder parameters deliberately excluded from their content
#: hash, as ``owner -> {name: justification}``.  Empty today: every
#: parameter of :func:`run_cache_key` is hashed.  The ``cache-key`` lint
#: rule (``repro lint``) enforces that invariant and keeps this table
#: honest (stale or unjustified entries are findings).
CACHE_KEY_EXCLUSIONS: Dict[str, Dict[str, str]] = {}

#: An engine request type rebuilt by :func:`request_from_payload`.
_Request = TypeVar("_Request")
#: An outcome type rebuilt by :meth:`OutcomeDocument.from_dict`.
_Document = TypeVar("_Document", bound="OutcomeDocument")


# ----------------------------------------------------------------------
# Configurations


def _encode_value(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, MI6Config):
        return config_to_dict(value)
    if is_dataclass(value):
        return _encode_fields(value)
    return value


def _encode_fields(value: Any) -> Dict[str, Any]:
    return {f.name: _encode_value(getattr(value, f.name)) for f in fields(value)}


def config_to_dict(config: MI6Config) -> Dict[str, Any]:
    """Encode a full machine configuration as a JSON-compatible dict.

    Every cache key, worker payload and wire document with a
    configuration goes through here, so the encoding is memoized:
    configurations with the same ``repr`` share one document, which
    callers must not mutate (shared; read-only).
    """
    return _config_document(config, repr(config))


@lru_cache(maxsize=256)
def _config_document(config: MI6Config, spelling: str) -> Dict[str, Any]:
    """:func:`config_to_dict`'s memo, bounded for a long-running daemon.

    ``spelling`` is the configuration's ``repr``.  It is part of the key
    because ``==`` and ``hash`` do not tell ``True`` from ``1`` or ``16``
    from ``16.0``, whose documents, and so cache keys, differ.
    """
    return _encode_fields(config)


def config_from_dict(data: Dict[str, Any]) -> MI6Config:
    """Rebuild an :class:`MI6Config` from :func:`config_to_dict` output."""
    payload = dict(data)
    llc = dict(payload["llc"])
    llc["geometry"] = CacheGeometry(**llc["geometry"])
    llc["mshr"] = MshrConfig(**llc["mshr"])
    llc["index_function"] = IndexFunction[llc["index_function"]]
    payload["address_map"] = AddressMap(**payload["address_map"])
    payload["core"] = CoreConfig(**payload["core"])
    payload["llc"] = LlcConfig(**llc)
    payload["dram"] = DramConfig(**payload["dram"])
    return MI6Config(**payload)


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def run_cache_key(
    config: MI6Config,
    benchmark: str,
    instructions: int,
    seed: int,
    *,
    warm_up: bool = True,
) -> str:
    """Canonical cache key for one simulation run.

    The key is a content hash over the complete configuration and every
    workload parameter, replacing the old ad-hoc ``(variant, benchmark,
    instructions, seed)`` tuple: two runs share a key if and only if they
    would execute the identical simulation.
    """
    return _digest(
        {
            "schema": SCHEMA_VERSION,
            "config": config_to_dict(config),
            "benchmark": benchmark,
            "instructions": instructions,
            "seed": seed,
            "warm_up": warm_up,
        }
    )


def request_cache_key(request: Any, kind: str, exclusions: Mapping[str, str]) -> str:
    """Canonical cache key of an engine request, derived from its fields.

    Mirrors :func:`run_cache_key` for every other request kind: the
    digest covers the schema version, the ``kind`` discriminator (which
    keeps the kinds' keys disjoint even for identical fields) and every
    dataclass field of ``request`` — the complete machine configuration
    included, tuples hashed as JSON arrays — except the ``exclusions`` its owner
    declares in a ``CACHE_KEY_EXCLUSIONS`` table.  A field added to a
    request therefore reaches its key without touching this function,
    and the ``cache-key`` lint rule checks that the loop drops nothing
    but those exclusions.
    """
    document: Dict[str, Any] = {"schema": SCHEMA_VERSION, "kind": kind}
    for field in fields(request):
        if field.name in exclusions:
            continue
        document[field.name] = _encode_value(getattr(request, field.name))
    return _digest(document)


# ----------------------------------------------------------------------
# Request fields: worker payloads and wire documents


def request_to_payload(request: Any) -> Dict[str, Any]:
    """JSON-compatible encoding of every field of an engine request."""
    return {field.name: _encode_value(getattr(request, field.name)) for field in fields(request)}


def request_from_payload(
    request_type: Callable[..., _Request], payload: Mapping[str, Any]
) -> _Request:
    """Rebuild a request from :func:`request_to_payload` output."""
    types = field_types(request_type)
    return request_type(
        **{name: decode_field(types[name], value) for name, value in payload.items()}
    )


@lru_cache(maxsize=None)
def field_types(owner: Any) -> Mapping[str, Any]:
    """Resolved annotations of a dataclass's fields, by field name (shared; read-only)."""
    hints = get_type_hints(owner)
    return {field.name: hints[field.name] for field in fields(owner)}


# ----------------------------------------------------------------------
# Outcome documents


def _copy_rows(rows: Any) -> List[Dict[str, Any]]:
    return [dict(row) for row in rows]


#: ``(encode, decode)`` of an outcome field, by container type: copies,
#: and arrays for tuples.  Outcome lists hold dict rows (per-core and
#: per-shard audits); any other field is written as it is.
_CONVERTERS: Dict[Any, Tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    tuple: (list, tuple),
    dict: (dict, dict),
    list: (_copy_rows, _copy_rows),
}


class _DocumentPlan(NamedTuple):
    """How :class:`OutcomeDocument` writes one class's fields."""

    #: Every field, in declaration order.
    names: Tuple[str, ...]
    #: The fields without a default, which a document must carry.
    required: Tuple[str, ...]
    #: The fields with a default, which a document may omit.
    optional: Tuple[str, ...]
    #: ``(name, encode, decode)`` of the fields whose value is converted.
    converted: Tuple[Tuple[str, Callable[[Any], Any], Callable[[Any], Any]], ...]


@lru_cache(maxsize=None)
def _document_plan(owner: Any) -> _DocumentPlan:
    """``owner``'s :class:`_DocumentPlan`, computed once per class."""
    types = field_types(owner)
    required: List[str] = []
    optional: List[str] = []
    converted: List[Tuple[str, Callable[[Any], Any], Callable[[Any], Any]]] = []
    for field in fields(owner):
        has_default = field.default is not MISSING or field.default_factory is not MISSING
        (optional if has_default else required).append(field.name)
        pair = _CONVERTERS.get(get_origin(types[field.name]))
        if pair is not None:
            converted.append((field.name, *pair))
    return _DocumentPlan(tuple(types), tuple(required), tuple(optional), tuple(converted))


class OutcomeDocument:
    """Mixin: the JSON document codec of an outcome dataclass.

    :meth:`to_dict` writes one key per field, in declaration order;
    tuples become arrays, and dicts and lists of dict rows are copied.
    :meth:`from_dict` inverts it: arrays come back as tuples, a field
    absent from the document takes its dataclass default, and a missing
    required field raises :class:`KeyError`.  The store writes
    documents unsorted, so the field order is part of the store format.
    """

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible encoding (stable round-trip)."""
        plan = _document_plan(type(self))
        document = {name: getattr(self, name) for name in plan.names}
        for name, encode, _ in plan.converted:
            document[name] = encode(document[name])
        return document

    @classmethod
    def from_dict(cls: Type[_Document], data: Mapping[str, Any]) -> _Document:
        """Rebuild an outcome from :meth:`to_dict` output."""
        plan = _document_plan(cls)
        arguments = {name: data[name] for name in plan.required}
        for name in plan.optional:
            if name in data:
                arguments[name] = data[name]
        for name, _, decode in plan.converted:
            if name in arguments:
                arguments[name] = decode(arguments[name])
        return cls(**arguments)  # type: ignore[call-arg]


def optional_inner(annotation: Any) -> Any:
    """``X`` for ``Optional[X]``; any other annotation unchanged."""
    if get_origin(annotation) is Union:
        members = [arg for arg in get_args(annotation) if arg is not type(None)]
        if len(members) == 1:
            return members[0]
    return annotation


def encode_field(annotation: Any, value: Any) -> Any:
    """JSON-compatible form of a field value of type ``annotation``.

    Variant specs become their canonical names (``spec_name``), sequences
    become arrays, and configurations become :func:`config_to_dict`
    documents.
    """
    annotation = optional_inner(annotation)
    if value is not None and annotation == VariantLike:
        return spec_name(value)
    if value is not None and get_origin(annotation) is abc.Sequence:
        return [encode_field(get_args(annotation)[0], item) for item in value]
    return _encode_value(value)


def decode_field(annotation: Any, value: Any) -> Any:
    """Check a JSON value against ``annotation`` and rebuild the typed field.

    ``int`` rejects booleans, ``float`` accepts ints and keeps them as
    sent (so no cache key moves), ``Optional`` admits ``null``,
    sequences must be arrays and become tuples, configurations are
    rebuilt with :func:`config_from_dict`, and variant specs must be
    strings naming registered mitigations.  Raises :class:`TypeError` on
    a mismatch and :class:`ValueError` for an unknown variant spec.
    """
    inner = optional_inner(annotation)
    if value is None and inner is not annotation:
        return None
    if inner == VariantLike:
        if not isinstance(value, str):
            raise TypeError(f"expected a variant spec string, got {value!r}")
        spec_name(value)  # validation only: reject unknown mitigations
        return value
    origin, args = get_origin(inner), get_args(inner)
    if origin in (tuple, abc.Sequence):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected an array, got {value!r}")
        # Tuple[X, ...] and Sequence[X] repeat X; Tuple[X, Y] is positional.
        items = list(args) if origin is tuple and Ellipsis not in args else [args[0]] * len(value)
        if len(items) != len(value):
            raise TypeError(f"expected {len(items)} items, got {value!r}")
        return tuple(decode_field(item, member) for item, member in zip(items, value))
    if inner is MI6Config:
        if not isinstance(value, dict):
            raise TypeError(f"expected a configuration object, got {value!r}")
        return config_from_dict(value)
    accepted = (int, float) if inner is float else inner
    if isinstance(value, bool) is not (inner is bool) or not isinstance(value, accepted):
        raise TypeError(f"expected {getattr(inner, '__name__', inner)}, got {value!r}")
    return value


# ----------------------------------------------------------------------
# Results


def result_to_dict(result: CoreResult) -> Dict[str, Any]:
    """Encode a :class:`CoreResult` (cycles and counters).

    ``histograms`` is always empty: no structure records one.  The key
    stays because every stored run document and cache digest has it.
    """
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "counters": dict(result.stats.counters()),
        "histograms": {},
    }


def result_from_dict(data: Dict[str, Any]) -> CoreResult:
    """Rebuild a :class:`CoreResult` from :func:`result_to_dict` output."""
    registry = StatsRegistry()
    for name, value in data.get("counters", {}).items():
        registry.counter(name).increment(value)
    return CoreResult(
        cycles=data["cycles"], instructions=data["instructions"], stats=registry
    )


def run_to_dict(run: WorkloadRun) -> Dict[str, Any]:
    """Encode a :class:`WorkloadRun` as a JSON-compatible dict."""
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": run.benchmark,
        "config_name": run.config_name,
        "instructions": run.instructions,
        "result": result_to_dict(run.result),
    }


def run_from_dict(data: Dict[str, Any]) -> WorkloadRun:
    """Rebuild a :class:`WorkloadRun` from :func:`run_to_dict` output."""
    return WorkloadRun(
        benchmark=data["benchmark"],
        config_name=data["config_name"],
        instructions=data["instructions"],
        result=result_from_dict(data["result"]),
    )
