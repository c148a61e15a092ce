"""Long-running daemon: one Session behind an HTTP/JSON API.

``repro serve --daemon`` turns the per-invocation CLI into a persistent
service: a single :class:`~repro.api.session.Session` (one warm
in-memory store layer, one worker pool) answers wire-encoded requests
over plain HTTP — stdlib :mod:`http.server` only, no dependencies:

* ``POST /v1/run`` — any wire-encoded request (workload, sweep,
  scenario, service, fleet); answers the full ``Result`` envelope.
  ``?mode=async`` enqueues instead and answers a job id;
* ``GET /v1/jobs/<id>`` — an async submission's status and progress;
* ``GET /v1/health`` — cache hit rates, store entry counts, worker-pool
  state and async job counts;
* ``GET /v1/registries`` — every named choice a request can make.

:class:`~repro.daemon.client.DaemonClient` is the matching thin urllib
client; the CLI's ``--remote <addr>`` flag routes any sweep/attack/
serve/fleet invocation through it.
"""

from repro.common.defaults import DEFAULT_HOST, DEFAULT_PORT
from repro.daemon.client import DaemonClient, DaemonError
from repro.daemon.jobs import JobRegistry
from repro.daemon.server import DaemonState, ReproDaemonServer, serve_daemon

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DaemonClient",
    "DaemonError",
    "DaemonState",
    "JobRegistry",
    "ReproDaemonServer",
    "serve_daemon",
]
