"""Public Session/Request API of the MI6 reproduction.

The one front door every consumer goes through:

>>> from repro.api import Session
>>> session = Session()
>>> result = session.workload("FLUSH+MISS", "gcc", instructions=5_000)
>>> result.value.cycles  # doctest: +SKIP
>>> result.provenance.origin  # doctest: +SKIP
'cold'

* :class:`Session` — owns the result store, the parallel runner and the
  evaluation settings;
* :class:`WorkloadRequest` / :class:`SweepRequest` /
  :class:`ScenarioRequest` / :class:`ServiceRequest` /
  :class:`FleetRequest` — the typed request hierarchy;
* :class:`Result` / :class:`ResultEntry` / :class:`Provenance` — the
  uniform result envelope (content-hash cache key, schema version,
  cold/warm origin, wall time);
* :func:`default_session` / :func:`set_default_session` — the shared
  process-wide session the figure functions and harness route through;
* the wire codec — ``request.to_wire()`` / :func:`request_from_wire`
  and :func:`result_to_wire` / :func:`result_from_wire` — the versioned
  JSON documents the daemon's HTTP API and the CLI speak.

Variant arguments everywhere accept the composable mitigation vocabulary
of :mod:`repro.core.mitigations`: ``"BASE"``, ``"FLUSH"``,
``"FLUSH+MISS"``, ``"f+p+m+a"``, or a
:class:`~repro.core.mitigations.MitigationSet`.
"""

from repro.api.requests import (
    WIRE_VERSION,
    FleetRequest,
    Request,
    ScenarioRequest,
    ServiceRequest,
    SweepRequest,
    WireError,
    WorkloadRequest,
    request_from_wire,
)
from repro.api.results import (
    Provenance,
    Result,
    ResultEntry,
    result_from_wire,
    result_to_wire,
)
from repro.api.session import (
    Session,
    coerce_session,
    default_session,
    set_default_session,
)

__all__ = [
    "WIRE_VERSION",
    "FleetRequest",
    "Provenance",
    "Request",
    "Result",
    "ResultEntry",
    "ScenarioRequest",
    "ServiceRequest",
    "Session",
    "SweepRequest",
    "WireError",
    "WorkloadRequest",
    "coerce_session",
    "default_session",
    "request_from_wire",
    "result_from_wire",
    "result_to_wire",
    "set_default_session",
]
