"""The daemon's HTTP server: one Session behind four endpoints.

Stdlib only (:class:`http.server.ThreadingHTTPServer`): handler threads
parse wire documents and serialise onto the daemon's single session
lock, so every request — sync or async, from any number of clients —
flows through the same :meth:`Session.run` front door the CLI uses,
against the same warm store.  The response to ``POST /v1/run`` is
exactly :func:`~repro.api.results.result_to_wire` of the envelope, so a
request answered over the network is byte-identical (modulo the wall
time) to the same request answered in-process.

A request body is read only when its declared length is sane: a
negative ``Content-Length`` is answered 400, one above
:data:`MAX_BODY_BYTES` 413, and a client that stalls mid-body 408 after
:data:`REQUEST_TIMEOUT_SECONDS`; each of these closes the connection.

Shutdown is cooperative: SIGTERM/SIGINT trigger ``server.shutdown()``
from a helper thread (calling it from the signal handler itself would
deadlock ``serve_forever``), in-flight handlers drain, and the listening
socket closes before :func:`serve_daemon` returns.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.api.requests import WIRE_VERSION, Request, WireError, request_from_wire
from repro.api.results import Result, result_to_wire
from repro.api.session import Session, named_choices
from repro.common.defaults import DEFAULT_HOST, DEFAULT_PORT
from repro.common.errors import ConfigurationError
from repro.core.mitigations import known_compositions, known_mitigations
from repro.daemon.jobs import JobRegistry
from repro.obs.metrics import LabelValues, MetricsRegistry, global_registry
from repro.obs.trace import wall_span, wall_time
from repro.workloads.spec_cint2006 import benchmark_names

_LOGGER = logging.getLogger("repro.daemon")

_ENDPOINTS = (
    "POST /v1/run",
    "GET /v1/jobs/<id>",
    "GET /v1/health",
    "GET /v1/metrics",
    "GET /v1/registries",
)

#: Content type of the ``/v1/metrics`` exposition.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest ``POST /v1/run`` body the daemon reads.  Wire documents are
#: small (a 32-spec x 11-benchmark x 50-seed sweep request is 1,057
#: bytes), so a longer declared body is answered 413 without reading it.
MAX_BODY_BYTES = 1 << 20

#: Seconds a handler thread waits on a silent client socket.  A client
#: that stalls mid-body is answered 408; an idle keep-alive connection
#: is closed.  Either way the thread is freed.
REQUEST_TIMEOUT_SECONDS = 10.0


class DaemonState:
    """Everything the handler threads share: session, lock, job registry.

    The session lock serialises :meth:`Session.run` — the runner's
    per-request bookkeeping (``last_keys``/``last_origins``) is
    per-session state, so concurrent runs must queue.  Parallelism
    still comes from the session's own worker pool.
    """

    def __init__(self, session: Session) -> None:
        self.session = session
        self.lock = threading.Lock()
        self.jobs = JobRegistry()
        self.metrics = MetricsRegistry()
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Register the daemon's metric families.

        Pool, job, and store state are callback gauges over the same
        live objects :meth:`health` reports, so ``/v1/health`` and
        ``/v1/metrics`` read one source and can never disagree.  Each
        :class:`DaemonState` owns its registry (daemons in the same
        process — tests — must not collide); only cross-cutting process
        counters live on :func:`global_registry`.
        """
        metrics = self.metrics
        session = self.session
        metrics.gauge(
            "repro_workers_jobs", "Worker processes the session fans out to"
        ).set_function(lambda: float(session.runner.jobs))
        metrics.gauge(
            "repro_session_busy", "1 while a request holds the session lock"
        ).set_function(lambda: float(self.lock.locked()))
        metrics.gauge(
            "repro_jobs_total", "Async jobs submitted over this daemon's lifetime"
        ).set_function(lambda: float(self.jobs.stats()["total"]))
        metrics.gauge(
            "repro_jobs", "Async jobs by status", labels=("status",)
        ).set_callback(self._jobs_by_status)
        metrics.gauge(
            "repro_store_memory_runs", "Runs held in the session store's memory layer"
        ).set_function(lambda: float(len(session.store)))
        metrics.gauge(
            "repro_store_disk_entries",
            "On-disk store entries by result kind",
            labels=("kind",),
        ).set_callback(self._disk_entries)
        self.http_requests = metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served",
            labels=("method", "status"),
        )
        self.http_wall_ms = metrics.histogram(
            "repro_http_request_wall_ms", "Wall-clock time per HTTP request (ms)"
        )

    def _jobs_by_status(self) -> Dict[LabelValues, float]:
        by_status = self.jobs.stats()["by_status"]
        return {(status,): float(count) for status, count in by_status.items()}

    def _disk_entries(self) -> Dict[LabelValues, float]:
        entries = self.session.store.stats()["disk_entries"]
        return {(kind,): float(count) for kind, count in entries.items()}

    def run(self, request: Request) -> Result:
        """Execute one request under the session lock."""
        with self.lock:
            return self.session.run(request)

    def submit(self, request: Request) -> str:
        """Enqueue an async run; returns the job id immediately."""
        store = self.session.store

        def work(job) -> Dict[str, Any]:
            # Progress is the store-counter delta since submission:
            # approximate under concurrent jobs (the counters are
            # session-global) but monotone and cheap to poll.
            base_memory = store.memory_hits
            base_disk = store.disk_hits
            base_misses = store.misses
            job.progress_source = lambda: {
                "reused_in_memory": store.memory_hits - base_memory,
                "warm_from_disk": store.disk_hits - base_disk,
                "runs_simulated": store.misses - base_misses,
            }
            return result_to_wire(self.run(request))

        return self.jobs.submit(request.wire_kind, work)

    def health(self) -> Dict[str, Any]:
        """The health document (``GET /v1/health``).

        The worker and job numbers are read *through* the metrics
        registry (which itself reads the live objects), so this
        document agrees with ``/v1/metrics`` by construction.
        """
        metrics = self.metrics
        return {
            "status": "ok",
            "wire_version": WIRE_VERSION,
            "store": self.session.store.stats(),
            "workers": {
                "jobs": int(metrics.value("repro_workers_jobs")),
                "session_busy": bool(metrics.value("repro_session_busy")),
            },
            "jobs": {
                "total": int(metrics.value("repro_jobs_total")),
                "by_status": {
                    key[0]: int(value)
                    for key, value in metrics.values("repro_jobs").items()
                },
            },
        }

    def render_metrics(self) -> str:
        """The ``/v1/metrics`` body: daemon families then process-global.

        Both registries render deterministically; names are disjoint
        (daemon state vs cross-cutting ``*_total`` process counters),
        so the concatenation is a valid single exposition.
        """
        return self.metrics.render_prometheus() + global_registry().render_prometheus()

    def registries(self) -> Dict[str, Any]:
        """Every named choice a request can make (``GET /v1/registries``)."""
        return {
            "mitigations": {
                mitigation.name: mitigation.description for mitigation in known_mitigations()
            },
            "named_variants": {
                name: list(members) for name, members in known_compositions().items()
            },
            **{key: dict(registry.descriptions) for _, key, registry in named_choices()},
            "benchmarks": benchmark_names(),
        }


class DaemonRequestHandler(BaseHTTPRequestHandler):
    """Routes the four ``/v1`` endpoints onto the shared state."""

    server_version = "repro-daemon"
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_SECONDS

    #: Status of the response in flight (set by the ``_send_*`` helpers,
    #: read by :meth:`_handle` for the request log and HTTP counters).
    _status = 0

    @property
    def state(self) -> DaemonState:
        return self.server.state  # type: ignore[attr-defined]

    def log_request(self, code: Any = "-", size: Any = "-") -> None:
        """Silenced: :meth:`_handle` logs one structured line instead."""

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        _LOGGER.info("%s %s", self.address_string(), format % args)

    def _send_json(
        self, status: int, document: Dict[str, Any], *, close: bool = False
    ) -> None:
        """Answer ``document``; ``close`` ends the connection (its body is unread)."""
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _not_found(self, path: str) -> None:
        self._send_json(
            404, {"error": f"unknown path {path!r}", "endpoints": list(_ENDPOINTS)}
        )

    # ------------------------------------------------------------------
    # Routing

    def _handle(self, method: str, route: Any) -> None:
        """Run one route with timing, counters, and the request log.

        Every request produces exactly one structured log line
        (method, path, status, wall ms) and one increment of the
        ``repro_http_requests_total``/``repro_http_request_wall_ms``
        pair on the daemon's registry.
        """
        path = urlparse(self.path).path
        self._status = 0
        started = wall_time()
        with wall_span("http", track="daemon", method=method, path=path):
            route()
        elapsed_ms = (wall_time() - started) * 1000.0
        state = self.state
        state.http_requests.labels(method=method, status=self._status).inc()
        state.http_wall_ms.observe(elapsed_ms)
        _LOGGER.info(
            "method=%s path=%s status=%d wall_ms=%.2f",
            method,
            path,
            self._status,
            elapsed_ms,
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._handle("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        self._handle("POST", self._route_post)

    def _route_get(self) -> None:
        path = urlparse(self.path).path
        if path == "/v1/health":
            self._send_json(200, self.state.health())
        elif path == "/v1/metrics":
            self._send_text(200, self.state.render_metrics(), METRICS_CONTENT_TYPE)
        elif path == "/v1/registries":
            self._send_json(200, self.state.registries())
        elif path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/") :]
            snapshot = self.state.jobs.snapshot(job_id)
            if snapshot is None:
                self._send_json(404, {"error": f"unknown job {job_id!r}"})
            else:
                self._send_json(200, snapshot)
        else:
            self._not_found(path)

    def _route_post(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path != "/v1/run":
            self._not_found(parsed.path)
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._send_json(400, {"error": "bad Content-Length header"}, close=True)
            return
        if length < 0:
            self._send_json(400, {"error": f"negative Content-Length {length}"}, close=True)
            return
        if length > MAX_BODY_BYTES:
            self._send_json(
                413,
                {"error": f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"},
                close=True,
            )
            return
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self._send_json(
                408,
                {"error": f"request body not received within {self.timeout:g}s"},
                close=True,
            )
            return
        try:
            document = json.loads(body)
        except ValueError:
            self._send_json(400, {"error": "request body is not valid JSON"})
            return
        try:
            request = request_from_wire(document)
        except WireError as error:
            self._send_json(400, {"error": str(error)})
            return
        mode = parse_qs(parsed.query).get("mode", ["sync"])[0]
        if mode == "async":
            job_id = self.state.submit(request)
            self._send_json(
                202, {"job": job_id, "status_path": f"/v1/jobs/{job_id}"}
            )
            return
        if mode != "sync":
            self._send_json(
                400, {"error": f"unknown mode {mode!r} (expected sync or async)"}
            )
            return
        try:
            result = self.state.run(request)
        except (KeyError, ValueError, ConfigurationError) as error:
            # Registry lookups (KeyError), parameter validation, and
            # machine-size limits: the request was well-formed on the
            # wire but unsatisfiable.
            self._send_json(400, {"error": f"{type(error).__name__}: {error}"})
            return
        except Exception as error:  # answer 500, keep the daemon alive
            _LOGGER.exception("request failed")
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
            return
        self._send_json(200, result_to_wire(result))


class ReproDaemonServer(ThreadingHTTPServer):
    """Threading HTTP server owning one :class:`DaemonState`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], session: Session) -> None:
        super().__init__(address, DaemonRequestHandler)
        self.state = DaemonState(session)


def serve_daemon(
    session: Session,
    *,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    announce: Optional[Any] = print,
) -> None:
    """Serve until SIGTERM/SIGINT, then shut down cleanly.

    Binds ``host:port`` (``port=0`` picks a free port), installs signal
    handlers that stop the accept loop from a helper thread, and blocks
    in ``serve_forever`` until a signal (or another thread) calls
    ``shutdown``.  Previous signal dispositions are restored on exit.
    """
    server = ReproDaemonServer((host, port), session)

    def _request_shutdown(signum: int, frame: Any) -> None:
        # shutdown() blocks until serve_forever exits; called directly
        # from this handler (which interrupted serve_forever on the main
        # thread) it would deadlock, so hand it to a helper thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous: Dict[int, Any] = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _request_shutdown)
    try:
        if announce is not None:
            announce(
                f"repro daemon listening on http://{host}:{server.server_port} "
                "(endpoints: " + ", ".join(_ENDPOINTS) + "); SIGTERM to stop"
            )
        server.serve_forever()
    finally:
        server.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
