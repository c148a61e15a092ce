"""Thin urllib client for the repro daemon.

Speaks the same wire documents as the in-process API: ``run`` encodes a
typed request with :meth:`to_wire`, posts it to ``/v1/run``, and decodes
the answer with :func:`~repro.api.results.result_from_wire` — so a
remote result object supports exactly the accessors a local one does.
The CLI's ``--remote <addr>`` flag and the daemon test suite both sit on
this class; nothing beyond the stdlib is needed.
"""

from __future__ import annotations

import json
# repro: allow[determinism]: client-side poll pacing for wait() only —
# wall-clock never enters a simulated result, which is produced and
# timed entirely on the daemon side.
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from repro.analysis.engine import EvaluationSettings
from repro.api.requests import Request
from repro.api.results import Result, result_from_wire


class DaemonError(RuntimeError):
    """The daemon answered an error, or could not be reached at all."""


class DaemonClient:
    """HTTP client bound to one daemon address.

    ``address`` accepts ``host:port``, ``http://host:port``, or either
    with a trailing slash; all normalise to the same base URL.
    """

    def __init__(self, address: str, *, timeout: float = 60.0) -> None:
        if "://" not in address:
            address = f"http://{address}"
        self.base_url = address.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport

    def _request(
        self,
        method: str,
        path: str,
        document: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        body = None
        headers = {"Accept": "application/json"}
        if document is not None:
            body = json.dumps(document, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        http_request = urllib.request.Request(
            f"{self.base_url}{path}", data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(http_request, timeout=self.timeout) as response:
                payload = response.read()
        except urllib.error.HTTPError as error:
            detail = ""
            try:
                detail = json.loads(error.read()).get("error", "")
            except (ValueError, AttributeError, OSError):
                pass
            suffix = f": {detail}" if detail else ""
            raise DaemonError(
                f"daemon answered {error.code} for {method} {path}{suffix}"
            ) from error
        except urllib.error.URLError as error:
            raise DaemonError(
                f"cannot reach daemon at {self.base_url}: {error.reason}"
            ) from error
        try:
            return json.loads(payload)
        except ValueError as error:
            raise DaemonError(
                f"daemon answered non-JSON for {method} {path}"
            ) from error

    # ------------------------------------------------------------------
    # Endpoints

    def health(self) -> Dict[str, Any]:
        """``GET /v1/health``."""
        return self._request("GET", "/v1/health")

    def registries(self) -> Dict[str, Any]:
        """``GET /v1/registries``."""
        return self._request("GET", "/v1/registries")

    def run_wire(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """Post a wire document synchronously; returns the wire envelope."""
        return self._request("POST", "/v1/run", document)

    def run(
        self,
        request: Request,
        *,
        settings: Optional[EvaluationSettings] = None,
    ) -> Result:
        """Run a typed request remotely; returns a decoded ``Result``.

        ``settings`` feeds sweep-result reconstruction exactly as in
        :func:`result_from_wire`; defaults apply when omitted.
        """
        return result_from_wire(self.run_wire(request.to_wire()), settings=settings)

    def submit(self, request: Request) -> str:
        """Enqueue an async run; returns the job id."""
        answer = self._request("POST", "/v1/run?mode=async", request.to_wire())
        return answer["job"]

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>`` — one status/progress snapshot."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def wait(
        self,
        job_id: str,
        *,
        poll_seconds: float = 0.2,
        timeout_seconds: float = 300.0,
    ) -> Dict[str, Any]:
        """Poll a job until it finishes; returns the final snapshot.

        Raises :class:`DaemonError` if the job errors or the timeout
        elapses first.
        """
        deadline = time.monotonic() + timeout_seconds
        while True:
            snapshot = self.job(job_id)
            if snapshot["status"] == "done":
                return snapshot
            if snapshot["status"] == "error":
                raise DaemonError(
                    f"job {job_id} failed: {snapshot.get('error', 'unknown error')}"
                )
            if time.monotonic() >= deadline:
                raise DaemonError(
                    f"job {job_id} still {snapshot['status']} after "
                    f"{timeout_seconds:g}s"
                )
            time.sleep(poll_seconds)
