"""The daemon: HTTP API over one session, and store concurrency.

Server tests run the real :class:`ReproDaemonServer` in-process on an
ephemeral port and talk to it through :class:`DaemonClient` — the same
stack ``repro-bench serve --daemon`` and ``--remote`` use, minus the
process boundary.  The store contention test crosses a real process
boundary: concurrent writers hammer one cache directory and every
entry must parse afterwards (atomic replace + per-entry locks).
"""

import http.client
import json
import multiprocessing
import socket
import threading

import pytest

from repro.analysis.engine import EvaluationSettings
from repro.analysis.store import ResultStore
from repro.api import Session, SweepRequest, WorkloadRequest, result_to_wire, set_default_session
from repro.cli import _build_session, _settings, build_parser
from repro.cli import main as cli_main
from repro.daemon import DaemonClient, DaemonError, JobRegistry, ReproDaemonServer
from repro.daemon.server import DaemonRequestHandler

TINY = 400  # instructions per run: enough to exercise the kernel, fast in CI

SWEEP_FIELDS = {
    "variants": ("BASE", "FLUSH"),
    "benchmarks": ("gcc",),
    "seeds": (1,),
    "instructions": 2000,
}

#: The ``GET /v1/registries`` document: every named choice a request
#: may make, with its description, in presentation order.
REGISTRIES = {
    "mitigations": {
        "FLUSH": "flush per-core microarchitectural state on every context switch",
        "PART": "set-partition the LLC with the DRAM-region index function",
        "MISS": "partition and size the LLC MSHRs (12 entries, 4 banks)",
        "ARB": "round-robin LLC pipeline arbiter (+N/2 cycles of latency)",
        "NONSPEC": "execute memory instructions non-speculatively",
    },
    "named_variants": {"BASE": [], "F+P+M+A": ["FLUSH", "PART", "MISS", "ARB"]},
    "scenarios": {
        "prime_probe": "cross-core LLC prime+probe (closed by PART)",
        "spectre": "speculative cross-domain read + LLC transmit (closed by the protection checker)",
        "contention": "MSHR/arbiter covert channel (closed by MISS+ARB)",
        "branch_residue": "branch-predictor residue across a context switch (closed by FLUSH)",
    },
    "policies": {
        "fifo": "strict arrival order, core released after every request (max purges)",
        "affinity": "enclaves stay resident; idle cores serve their installed tenant first",
        "batch": "affinity with a 8-request fairness bound per tenant batch",
    },
    "routers": {
        "consistent_hash": "SHA-256 hash ring with 16 virtual nodes per shard (stateless placement)",
        "least_loaded": "greedy bin packing on per-request service demand (heaviest tenant first)",
        "purge_cost_aware": "greedy bin packing on demand plus estimated purge/churn boundary cost",
    },
    "admission_policies": {
        "drop_on_full": "admit while the bounded queue has room, drop otherwise",
        "deadline": "drop on full, and reject requests whose estimated wait would blow the SLO",
    },
    "client_models": {
        "open_loop": "fixed-rate arrivals precomputed from the sweep's arrival profile",
        "closed_loop": "think-time clients that wait for each response (self-limiting at saturation)",
    },
    "benchmarks": [
        "bzip2",
        "gcc",
        "mcf",
        "gobmk",
        "hmmer",
        "sjeng",
        "libquantum",
        "h264ref",
        "omnetpp",
        "astar",
        "xalancbmk",
    ],
}


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    session = Session(
        ResultStore(tmp_path_factory.mktemp("daemon_cache")), jobs=2
    )
    server = ReproDaemonServer(("127.0.0.1", 0), session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def client(daemon):
    return DaemonClient(f"127.0.0.1:{daemon.server_port}")


class TestEndpoints:
    def test_health_document(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["store"]["schema_version"]
        assert health["workers"]["jobs"] == 2
        assert set(health["jobs"]) == {"total", "by_status"}
        assert set(health) == {"status", "wire_version", "store", "workers", "jobs"}

    def test_registries_document(self, client, daemon):
        # The whole document, in the key order the state builds it (the
        # wire sorts keys, so only the in-process document shows order).
        assert client.registries() == REGISTRIES
        document = daemon.state.registries()
        assert json.dumps(document) == json.dumps(REGISTRIES)

    def test_unknown_path_lists_endpoints(self, client):
        with pytest.raises(DaemonError, match="404"):
            client._request("GET", "/v1/nope")

    def test_unknown_job_is_404(self, client):
        with pytest.raises(DaemonError, match="unknown job"):
            client.job("job-999")


class TestRun:
    def test_http_sweep_bit_identical_to_local(self, client):
        request = SweepRequest(**SWEEP_FIELDS)
        remote = client.run(request)
        local = Session(ResultStore.in_memory(), jobs=2).run(request)
        remote_doc, local_doc = result_to_wire(remote), result_to_wire(local)
        remote_doc.pop("wall_time_seconds")
        local_doc.pop("wall_time_seconds")
        assert json.dumps(remote_doc, sort_keys=True) == json.dumps(
            local_doc, sort_keys=True
        )

    def test_second_submission_is_warm(self, client):
        request = SweepRequest(**SWEEP_FIELDS)
        client.run(request)
        before = client.health()["store"]
        again = client.run(request)
        after = client.health()["store"]
        assert after["misses"] == before["misses"]  # zero new simulations
        assert all(entry.provenance.origin == "warm" for entry in again)

    def test_async_job_lifecycle(self, client):
        job_id = client.submit(WorkloadRequest(benchmark="gcc", instructions=2000))
        snapshot = client.wait(job_id, timeout_seconds=120)
        assert snapshot["status"] == "done"
        assert snapshot["kind"] == "workload"
        assert snapshot["result"]["wire_version"] == 1
        progress = snapshot["progress"]
        assert set(progress) == {"reused_in_memory", "warm_from_disk", "runs_simulated"}
        assert client.job(job_id)["status"] == "done"

    def test_bad_wire_document_is_400(self, client):
        with pytest.raises(DaemonError, match="400.*unknown request kind"):
            client.run_wire({"wire_version": 1, "kind": "banquet", "fields": {}})

    def test_unsatisfiable_request_is_400(self, client):
        for request in (
            SweepRequest(benchmarks=("not_a_benchmark",)),
            WorkloadRequest(benchmark="not_a_benchmark"),
        ):
            with pytest.raises(
                DaemonError, match="400.*unknown benchmark 'not_a_benchmark'.*gcc.*xalancbmk"
            ):
                client.run_wire(request.to_wire())
        for request in (
            SweepRequest(variants=("BASE",), benchmarks=("gcc",), instructions=0),
            WorkloadRequest(benchmark="gcc", instructions=-5),
            WorkloadRequest(variant="NONSPEC", benchmark="gcc", instructions=0),
        ):
            with pytest.raises(DaemonError, match="400.*instructions must be positive"):
                client.run_wire(request.to_wire())

    def test_invalid_json_body_is_400(self, client):
        import urllib.request

        http_request = urllib.request.Request(
            f"{client.base_url}/v1/run", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(http_request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_mode_is_400(self, client):
        with pytest.raises(DaemonError, match="unknown mode"):
            client._request(
                "POST", "/v1/run?mode=later", SweepRequest(**SWEEP_FIELDS).to_wire()
            )

    @staticmethod
    def _post(daemon, headers, body=b""):
        """Raw ``POST /v1/run``: (status, decoded JSON answer)."""
        connection = http.client.HTTPConnection("127.0.0.1", daemon.server_port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/run", skip_accept_encoding=True)
            for name, value in headers.items():
                connection.putheader(name, value)
            connection.endheaders(body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def _assert_still_serving(self, daemon):
        body = json.dumps(WorkloadRequest(benchmark="gcc", instructions=TINY).to_wire()).encode()
        status, document = self._post(daemon, {"Content-Length": str(len(body))}, body)
        assert status == 200
        assert len(document["entries"]) == 1

    def test_negative_content_length_is_400(self, daemon):
        status, document = self._post(daemon, {"Content-Length": "-1"})
        assert status == 400
        assert "negative Content-Length" in document["error"]
        self._assert_still_serving(daemon)

    def test_oversized_content_length_is_413_unread(self, daemon):
        status, document = self._post(daemon, {"Content-Length": "999999999999"})
        assert status == 413
        assert "exceeds the 1048576-byte limit" in document["error"]
        self._assert_still_serving(daemon)

    def test_stalled_body_is_408(self, daemon, monkeypatch):
        # The handler's fixed socket timeout, shortened so the test is quick.
        monkeypatch.setattr(DaemonRequestHandler, "timeout", 0.5)
        with socket.create_connection(("127.0.0.1", daemon.server_port), timeout=10) as raw:
            raw.sendall(b"POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{")
            answer = raw.makefile("rb").read()
        assert answer.startswith(b"HTTP/1.1 408 ")
        assert b"request body not received within 0.5s" in answer
        self._assert_still_serving(daemon)


class TestCliRemote:
    def test_remote_sweep_json_reports_remote_not_cache(self, daemon, capsys):
        address = f"127.0.0.1:{daemon.server_port}"
        code = cli_main(
            [
                "sweep",
                "--remote",
                address,
                "--variants",
                "BASE",
                "FLUSH",
                "--benchmarks",
                "gcc",
                "--instructions",
                "2000",
                "--json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["cache"] == {"remote": address}
        assert {entry["variant"] for entry in document["entries"]} == {"BASE", "FLUSH"}

    def test_remote_table_footer(self, daemon, capsys):
        address = f"127.0.0.1:{daemon.server_port}"
        code = cli_main(
            ["sweep", "--remote", address, "--variants", "BASE", "--benchmarks", "gcc",
             "--instructions", "2000"]
        )
        assert code == 0
        assert f"remote: {address}" in capsys.readouterr().out

    def test_unreachable_daemon_exits_1(self, capsys):
        code = cli_main(
            ["sweep", "--remote", "127.0.0.1:9", "--benchmarks", "gcc"]
        )
        assert code == 1
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_only_the_shared_run_length_flag_sets_the_session_run_length(self, monkeypatch):
        # On serve and fleet, --instructions is the per-request serving
        # budget: a daemon started with it must keep the environment's
        # run length for the requests POSTed without one.
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "1234")
        monkeypatch.setenv("REPRO_BENCH_SEED", "7")
        environment = EvaluationSettings(instructions=1234, seed=7)
        parse = build_parser().parse_args
        try:
            daemon_args = parse(["serve", "--daemon", "--no-cache", "--instructions", "500"])
            assert _build_session(daemon_args).settings == environment
        finally:
            set_default_session(None)
        assert _settings(parse(["fleet", "--instructions", "500"])) == environment
        for argv in (["sweep"], ["figure", "5"]):
            settings = _settings(parse([*argv, "--instructions", "500", "--seed", "3"]))
            assert settings == EvaluationSettings(instructions=500, seed=3)

    def test_local_sweep_rejects_non_positive_instructions(self, capsys):
        for instructions in ("0", "-5"):
            code = cli_main(
                ["sweep", "--no-cache", "--benchmarks", "gcc", "--instructions", instructions]
            )
            assert code == 2
            assert "instructions must be positive" in capsys.readouterr().err

    def test_sweep_json_is_machine_checkable(self, capsys):
        code = cli_main(
            [
                "sweep",
                "--variants",
                "BASE",
                "--benchmarks",
                "hmmer",
                "--instructions",
                str(TINY),
                "--no-cache",
                "--json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "sweep"
        assert document["cache"]["runs_simulated"] == 1
        assert document["cache"]["warm_from_disk"] == 0
        entry = document["entries"][0]
        assert entry["variant"] == "BASE"
        assert entry["benchmark"] == "hmmer"
        assert entry["origin"] == "cold"
        assert len(entry["cache_key"]) == 64

    def test_attack_json_is_machine_checkable(self, capsys):
        code = cli_main(["attack", "prime_probe", "--variants", "BASE", "--no-cache", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "attack"
        assert document["cache"]["runs_simulated"] == 1
        entry = document["entries"][0]
        assert entry["scenario"] == "prime_probe"
        assert entry["leaked"] is True
        assert entry["leaked_bits"] > 0
        assert entry["cycles"] > 0


class TestJobRegistry:
    def test_ids_are_sequential(self):
        registry = JobRegistry()
        done = threading.Event()
        ids = [registry.submit("workload", lambda job: done.wait(5) or {}) for _ in range(3)]
        done.set()
        assert ids == ["job-1", "job-2", "job-3"]

    def test_error_surfaces_in_snapshot(self):
        registry = JobRegistry()

        def explode(job):
            raise RuntimeError("boom")

        job_id = registry.submit("sweep", explode)
        for _ in range(100):
            snapshot = registry.snapshot(job_id)
            if snapshot["status"] == "error":
                break
            threading.Event().wait(0.01)
        assert snapshot["status"] == "error"
        assert "RuntimeError: boom" in snapshot["error"]


def _hammer_store(directory: str, worker: int, keys: int) -> None:
    store = ResultStore(directory)
    for index in range(keys):
        # Every worker writes every key, so replaces genuinely overlap.
        store.put_payload(
            "contend",
            f"key-{index}",
            {"worker": worker, "index": index, "blob": "x" * 4096},
        )


class TestStoreContention:
    def test_concurrent_writers_leave_no_torn_entries(self, tmp_path):
        processes = [
            multiprocessing.Process(
                target=_hammer_store, args=(str(tmp_path), worker, 8)
            )
            for worker in range(4)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        reader = ResultStore(tmp_path)
        for index in range(8):
            payload = reader.get_payload("contend", f"key-{index}")
            # Whichever writer won, the entry is one writer's complete
            # document — never an interleaving of two.
            assert payload is not None
            assert payload["index"] == index
            assert payload["worker"] in range(4)
            assert payload["blob"] == "x" * 4096
        stats = reader.stats()
        assert stats["disk_entries"].get("contend") == 8

    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_payload("contend", "key-0", {"fine": True})
        (path,) = [p for p in tmp_path.iterdir() if not p.name.startswith(".")]
        path.write_text("{truncated")
        fresh = ResultStore(tmp_path)
        assert fresh.get_payload("contend", "key-0") is None
        assert not path.exists()  # dropped, so the next write starts clean
