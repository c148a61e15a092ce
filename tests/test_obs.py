"""The observability layer: tracing inertness, metrics, export, CLI.

The core contract under test is that tracing is *inert*: outcomes and
cache keys are bit-identical with tracing on or off, serial and
parallel runs produce the same simulated-cycle span set, and the
``--trace`` flag changes nothing on stdout.  The metrics registry is
tested for its determinism guarantees (iteration order, idempotent
registration, Prometheus text shape) and the daemon's ``/v1/metrics``
surface for agreement with ``/v1/health``.
"""

import contextlib
import io
import json
import logging
import threading
import time
import urllib.request

import pytest

from repro.analysis.engine import ParallelRunner, ServiceSpec
from repro.analysis.figures import latency_breakdown_rows
from repro.analysis.store import ResultStore
from repro.api import Session
from repro.cli import main as cli_main
from repro.common.log import configure_logging
from repro.daemon import ReproDaemonServer
from repro.obs import (
    MetricsRegistry,
    Tracer,
    active_tracer,
    chrome_trace_document,
    load_trace,
    set_active_tracer,
    tracing,
    validate_chrome_trace,
    wall_span,
    write_chrome_trace,
)

SPEC_FIELDS = dict(
    policies=["fifo"],
    loads=[0.7],
    seeds=[3],
    num_cores=2,
    num_tenants=2,
    num_requests=15,
    instructions=3000,
)


def run_service_spec(jobs, tracer=None, directory=None):
    spec = ServiceSpec(**SPEC_FIELDS)
    store = ResultStore.in_memory() if directory is None else ResultStore(directory)
    runner = ParallelRunner(store=store, jobs=jobs)
    requests = spec.requests()
    if tracer is None:
        pairs = zip(requests, runner.run(requests))
    else:
        with tracing(tracer):
            pairs = zip(requests, runner.run(requests))
    return [(request.cache_key(), outcome.to_dict()) for request, outcome in pairs]


# ----------------------------------------------------------------------
# Tracing inertness


class TestInertness:
    def test_outcomes_and_cache_keys_identical_with_tracing(self):
        untraced = run_service_spec(jobs=1)
        traced = run_service_spec(jobs=1, tracer=Tracer())
        assert untraced == traced

    def test_store_bytes_identical_with_tracing(self, tmp_path):
        run_service_spec(jobs=1, directory=tmp_path / "plain")
        run_service_spec(jobs=1, tracer=Tracer(), directory=tmp_path / "traced")
        plain = sorted((tmp_path / "plain").glob("*.json"))
        traced = sorted((tmp_path / "traced").glob("*.json"))
        assert [path.name for path in plain] == [path.name for path in traced]
        for plain_path, traced_path in zip(plain, traced):
            assert plain_path.read_bytes() == traced_path.read_bytes()

    def test_serial_and_parallel_produce_same_sim_span_set(self):
        serial, parallel = Tracer(), Tracer()
        assert run_service_spec(jobs=1, tracer=serial) == run_service_spec(
            jobs=2, tracer=parallel
        )
        serial_spans = [span.sort_key() for span in serial.sim_spans()]
        parallel_spans = [span.sort_key() for span in parallel.sim_spans()]
        assert serial_spans and serial_spans == parallel_spans

    def test_no_tracer_active_by_default(self):
        assert active_tracer() is None

    def test_wall_span_is_noop_without_tracer(self):
        with wall_span("anything", track="t") as span:
            pass
        tracer = Tracer()
        previous = set_active_tracer(tracer)
        try:
            with wall_span("real", track="t", detail=1):
                pass
        finally:
            set_active_tracer(previous)
        assert len(tracer) == 1
        recorded = tracer.spans[0]
        assert recorded.name == "real" and recorded.category == "wall"
        assert span is not recorded  # the no-op singleton records nothing


# ----------------------------------------------------------------------
# Span export


class TestExport:
    def make_tracer(self):
        tracer = Tracer()
        tracer.sim_span("execute", "core-0", 10, 30, tenant=1)
        tracer.sim_span("queue", "queue", 0, 10, tenant=1)
        tracer.sim_event("complete", "core-0", 30, tenant=1)
        return tracer

    def test_document_validates_and_is_deterministic(self):
        first = chrome_trace_document(self.make_tracer().spans)
        second = chrome_trace_document(self.make_tracer().spans)
        assert validate_chrome_trace(first) == []
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_write_and_load_roundtrip(self, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", self.make_tracer().spans)
        document = load_trace(path)
        assert validate_chrome_trace(document) == []
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert {event["name"] for event in complete} == {
            "execute",
            "queue",
            "complete",
        }

    def test_validate_flags_structural_problems(self):
        assert validate_chrome_trace([]) == ["trace document is not a JSON object"]
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": 3, "pid": 1, "tid": 1}]}
        )
        assert any("name is not a string" in problem for problem in problems)

    def test_span_roundtrip_through_dicts(self):
        tracer = self.make_tracer()
        absorbed = Tracer()
        absorbed.absorb(tracer.span_dicts())
        original = [span.sort_key() for span in tracer.sorted_spans()]
        restored = [span.sort_key() for span in absorbed.sorted_spans()]
        assert original == restored

    def test_breakdown_rows_summarise_by_phase(self):
        document = chrome_trace_document(self.make_tracer().spans)
        rows = latency_breakdown_rows(document, category="sim")
        by_phase = {row["phase"]: row for row in rows}
        assert by_phase["execute"]["total"] == 20.0
        assert by_phase["queue"]["total"] == 10.0
        assert by_phase["execute"]["share"] == pytest.approx(20.0 / 30.0)
        assert [row["total"] for row in rows] == sorted(
            (row["total"] for row in rows), reverse=True
        )


# ----------------------------------------------------------------------
# Metrics registry


class TestMetrics:
    def test_counter_gauge_histogram_render(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", "a counter").inc(3)
        registry.gauge("repro_g", "a gauge").set(1.5)
        registry.histogram("repro_h", "a histogram", buckets=(1.0, 10.0)).observe(2.0)
        text = registry.render_prometheus()
        assert "# TYPE repro_c_total counter" in text
        assert "repro_c_total 3" in text
        assert "repro_g 1.5" in text
        assert 'repro_h_bucket{le="10"} 1' in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_sum 2" in text and "repro_h_count 1" in text

    def test_families_iterate_in_sorted_name_order(self):
        registry = MetricsRegistry()
        for name in ("repro_z", "repro_a", "repro_m"):
            registry.counter(name)
        assert [family.name for family in registry.families()] == [
            "repro_a",
            "repro_m",
            "repro_z",
        ]

    def test_labels_fan_out_and_sort(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_http_total", labels=("method", "status"))
        family.labels(method="POST", status=200).inc()
        family.labels(method="GET", status=200).inc(2)
        text = registry.render_prometheus()
        get_line = 'repro_http_total{method="GET",status="200"} 2'
        post_line = 'repro_http_total{method="POST",status="200"} 1'
        assert text.index(get_line) < text.index(post_line)
        assert registry.value("repro_http_total", method="GET", status=200) == 2.0

    def test_reregistration_is_idempotent_but_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_dup", "help")
        assert registry.counter("repro_dup") is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_dup")

    def test_counter_rejects_negative_and_wrong_labels(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="only go up"):
            registry.counter("repro_neg").inc(-1)
        family = registry.counter("repro_lbl", labels=("kind",))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(other="x")
        with pytest.raises(ValueError, match="labeled"):
            family.inc()

    def test_callback_gauge_and_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge("repro_live", labels=("kind",)).set_callback(
            lambda: {("run",): 2.0, ("fleet",): 1.0}
        )
        registry.counter("repro_plain").inc(5)
        snapshot = registry.snapshot()
        assert snapshot["repro_plain"] == 5
        assert snapshot["repro_live"] == {"kind=fleet": 1.0, "kind=run": 2.0}


# ----------------------------------------------------------------------
# Daemon surface


class JoiningDaemon(ReproDaemonServer):
    """A daemon whose ``server_close`` joins every request handler."""

    daemon_threads = False


@pytest.fixture
def obs_daemon(tmp_path):
    """A fresh daemon per test, with no request left in flight after it.

    The daemon counts and logs a request only after writing its body, so
    a daemon shared across tests could still be finishing an earlier
    test's request when the next test reads its counters or its log.
    """
    session = Session(ResultStore(tmp_path / "obs_cache"), jobs=2)
    server = JoiningDaemon(("127.0.0.1", 0), session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def fetch(server, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{server.server_port}{path}"
    ) as response:
        return response.headers, response.read().decode("utf-8")


class TestDaemonMetrics:
    def test_metrics_exposition_parses_and_covers_subsystems(self, obs_daemon):
        headers, text = fetch(obs_daemon, "/v1/metrics")
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        samples = {}
        for line in text.splitlines():
            assert line, "no blank lines inside the exposition"
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
        assert samples["repro_workers_jobs"] == 2.0
        assert "repro_jobs_total" in samples
        assert "repro_store_memory_runs" in samples
        assert "repro_simulations_total" in samples
        assert "repro_store_memory_hits_total" in samples
        assert "repro_store_disk_hits_total" in samples
        assert "repro_store_misses_total" in samples
        assert any(name.startswith("repro_http_request_wall_ms") for name in samples)

    def test_health_and_metrics_agree(self, obs_daemon):
        _, health_text = fetch(obs_daemon, "/v1/health")
        health = json.loads(health_text)
        state = obs_daemon.state
        assert health["workers"]["jobs"] == state.metrics.value("repro_workers_jobs")
        assert health["jobs"]["total"] == state.metrics.value("repro_jobs_total")

    def test_http_counters_track_requests(self, obs_daemon):
        state = obs_daemon.state
        before = state.metrics.value(
            "repro_http_requests_total", method="GET", status=200
        )
        fetch(obs_daemon, "/v1/health")
        # The counter increments after the response body is written;
        # briefly wait for the handler thread to get there.
        after = before
        for _ in range(100):
            after = state.metrics.value(
                "repro_http_requests_total", method="GET", status=200
            )
            if after > before:
                break
            time.sleep(0.01)
        assert after == before + 1

    def test_request_log_is_one_structured_line(self, obs_daemon, caplog):
        with caplog.at_level(logging.INFO, logger="repro.daemon"):
            fetch(obs_daemon, "/v1/health")
            # The structured line is emitted by the handler thread after
            # the response body is written, so briefly wait for it.
            for _ in range(100):
                if any(record.name == "repro.daemon" for record in caplog.records):
                    break
                time.sleep(0.01)
        lines = [
            record.getMessage()
            for record in caplog.records
            if record.name == "repro.daemon"
        ]
        assert len(lines) == 1
        assert lines[0].startswith("method=GET path=/v1/health status=200 wall_ms=")


# ----------------------------------------------------------------------
# CLI surface


SERVE_ARGS = [
    "serve",
    "--policy",
    "fifo",
    "--load",
    "0.7",
    "--requests",
    "10",
    "--tenants",
    "2",
    "--num-cores",
    "2",
    "--instructions",
    "2000",
    "--no-cache",
    "--json",
]


class TestCli:
    def test_trace_flag_leaves_stdout_identical(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(SERVE_ARGS) == 0
        untraced = capsys.readouterr().out
        trace_path = tmp_path / "serve.trace.json"
        assert cli_main(SERVE_ARGS + ["--trace", str(trace_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == untraced
        assert "trace:" in captured.err
        document = load_trace(trace_path)
        assert validate_chrome_trace(document) == []
        assert document["otherData"]["command"] == "serve"
        assert document["otherData"]["sim_spans"] > 0

    def test_trace_summary_and_validate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        trace_path = tmp_path / "t.json"
        assert cli_main(SERVE_ARGS + ["--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert cli_main(["trace", "validate", str(trace_path)]) == 0
        assert "valid" in capsys.readouterr().out
        assert cli_main(["trace", "summary", str(trace_path)]) == 0
        table = capsys.readouterr().out
        assert "Trace latency breakdown" in table
        assert "execute" in table
        assert cli_main(["trace", "summary", "--category", "sim", str(trace_path)]) == 0
        assert "wall" not in capsys.readouterr().out.split("\n", 3)[3]

    def test_trace_validate_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        assert cli_main(["trace", "validate", str(bad)]) == 1
        assert "not a string" in capsys.readouterr().err

    def test_trace_refused_with_remote(self, capsys):
        assert (
            cli_main(
                ["serve", "--remote", "127.0.0.1:1", "--trace", "x.json"]
            )
            == 2
        )
        assert "--remote" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Logging setup


class TestLogging:
    def test_returns_numeric_level(self):
        assert configure_logging("debug") == logging.DEBUG
        assert configure_logging("warning") == logging.WARNING

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("chatty")

    def test_records_go_to_the_stderr_current_when_they_are_written(self):
        first, second = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(first):
            configure_logging("warning")
        with contextlib.redirect_stderr(second):
            logging.getLogger("repro.test").warning("under the second redirect")
        assert "under the second redirect" in second.getvalue()
        assert "under the second redirect" not in first.getvalue()

    def test_repeat_calls_do_not_stack_handlers(self):
        configure_logging("info")
        count = len(logging.getLogger().handlers)
        configure_logging("debug")
        assert len(logging.getLogger().handlers) == count
        configure_logging("warning")
