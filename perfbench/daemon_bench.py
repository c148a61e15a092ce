"""``daemon``: a live daemon serving a seeded request mix over HTTP.

Why it exists: it is the only workload that crosses HTTP and the wire
codec, and it reads and writes one on-disk store, so a store change
that speeds reads at the cost of writes shows here.

An in-process :class:`ReproDaemonServer` listens on loopback with a disk
store in a scratch directory.  Set-up fills the store with the warm set:
the paper's 7 x 11 sweep at 2,000 instructions.  One sequential
:class:`DaemonClient` then drives a closed loop over that connection
(one client, next request only after the previous answer):

* 80% warm single-run ``WorkloadRequest``s drawn from the warm set;
* 15% warm 7 x 11 ``SweepRequest``s, the request that loads the codec
  most;
* 5% cold 2,000-instruction runs at seeds not used before, each one a
  kernel run plus a store write.

The mix comes in blocks of 20 requests with exactly those shares, in a
seeded order, and the cold runs go through the benchmarks in turn: a
cold run's cost depends on its benchmark several times over, so random
draws would make the cold median swing with ``--seed``.

Layers loaded: HTTP, the wire codec, session, engine, on-disk store
(reads and writes) and, for the cold runs, the kernel.  Layers bypassed:
the CLI, the serving loops, the fleet, the detailed LLC and the attacks.

Every answer must be a 200 and must equal what an in-process
``Session.run`` answers for the same request (ignoring wall time and
whether the entry was warm or cold, which is checked on its own).
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import repro.daemon.server as server_module
from harness import (
    PROBE_EVERY_S,
    Context,
    StoreProbe,
    Timers,
    cpu,
    digest,
    engine_layer,
    median,
    now,
    tail,
)
from repro.analysis.engine import EvaluationSettings
from repro.analysis.store import ResultStore
from repro.api.requests import Request, SweepRequest, WorkloadRequest
from repro.api.results import result_from_wire, result_to_wire
from repro.api.session import Session
from repro.daemon.client import DaemonClient, DaemonError
from repro.daemon.server import ReproDaemonServer
from repro.obs.trace import Tracer, tracing

#: One block of the mix: 16 warm single runs, 3 warm sweeps, 1 cold run.
BLOCK = ("warm",) * 16 + ("sweep",) * 3 + ("cold",)
#: Cold answers recomputed from scratch on a memory-only session.
COLD_RECOMPUTED = 3
#: Samples of each request kind a run collects even past its window
#: (for at most three windows).
MIN_PER_KIND = 3
#: Longest one request may take.
REQUEST_TIMEOUT_S = 120.0


@dataclass
class Daemon:
    """One running daemon, its session and a client bound to it."""

    session: Session
    server: ReproDaemonServer
    thread: threading.Thread
    client: DaemonClient

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)


@dataclass
class Replies:
    """Round trips by kind and the normalised answer of each distinct request."""

    seconds: Dict[str, List[float]] = field(
        default_factory=lambda: {"warm": [], "sweep": [], "cold": []}
    )
    answers: Dict[str, Tuple[str, Request, str]] = field(default_factory=dict)
    sequence: List[str] = field(default_factory=list)
    wire_bytes: int = 0
    completed: int = 0


class DaemonBench:
    """Closed-loop client against an in-process daemon."""

    name = "daemon"
    work_in_children = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        sizes = ctx.sizes
        self.settings = EvaluationSettings(
            instructions=sizes.daemon_instructions, seed=ctx.seed
        )
        self.sweep = SweepRequest(
            variants=sizes.daemon_variants,
            benchmarks=sizes.daemon_benchmarks,
            seeds=(ctx.seed,),
            instructions=sizes.daemon_instructions,
        )
        self.cells = [
            (request.config.name, request.benchmark)
            for request in self.sweep.resolve(self.settings).requests()
        ]
        self.daemon: Optional[Daemon] = None

    def prepare(self) -> None:
        """Start the daemon and fill its store with the warm set."""
        self.daemon = self._start()

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def _start(self) -> Daemon:
        session = Session(
            ResultStore(self.ctx.tempdir("daemon-store-")), jobs=1, settings=self.settings
        )
        fill = session.run(self.sweep)
        self.ctx.check_digest(self.name, digest(_normalised(result_to_wire(fill))))
        server = ReproDaemonServer(("127.0.0.1", 0), session)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = DaemonClient(f"127.0.0.1:{server.server_port}", timeout=REQUEST_TIMEOUT_S)
        return Daemon(session=session, server=server, thread=thread, client=client)

    def _mix(self) -> Iterator[Tuple[str, Request]]:
        """The seeded request mix (same seed, same sequence)."""
        rng = random.Random(self.ctx.seed)
        instructions = self.ctx.sizes.daemon_instructions
        variants = list(dict.fromkeys(variant for variant, _ in self.cells))
        benchmarks = list(dict.fromkeys(benchmark for _, benchmark in self.cells))
        cold_runs = 0
        while True:
            for kind in rng.sample(BLOCK, len(BLOCK)):
                if kind == "warm":
                    variant, benchmark = rng.choice(self.cells)
                    yield kind, WorkloadRequest(
                        variant=variant, benchmark=benchmark,
                        instructions=instructions, seed=self.ctx.seed,
                    )
                elif kind == "sweep":
                    yield kind, self.sweep
                else:
                    benchmark = benchmarks[cold_runs % len(benchmarks)]
                    variant = variants[cold_runs // len(benchmarks) % len(variants)]
                    cold_runs += 1
                    yield kind, WorkloadRequest(
                        variant=variant, benchmark=benchmark,
                        instructions=instructions, seed=self.ctx.seed + cold_runs,
                    )

    def _send(
        self, daemon: Daemon, kind: str, request: Request, replies: Replies,
        timers: Optional[Timers] = None,
    ) -> Optional[float]:
        """One round trip; records and returns its CPU time, checks the answer.

        Client and server are threads of this process, so the process's
        CPU time over the round trip is both sides' work.  Returns
        ``None`` when the request failed.
        """
        tally = self.ctx.tally
        started = cpu()
        document = request.to_wire()
        encoded = cpu()
        try:
            envelope = daemon.client.run_wire(document)
        except DaemonError as error:
            tally.fail(f"daemon: {kind} request failed: {error}")
            return None
        received = cpu()
        result_from_wire(envelope, settings=self.settings)
        finished = cpu()
        replies.seconds[kind].append(finished - started)
        replies.completed += 1
        tally.op()
        if timers is not None:
            timers.add("api.encode", encoded - started)
            timers.add("api.decode", finished - received)
        # Bytes as sent, less the answer's wall-time field, whose digits
        # vary from run to run; the rest repeats exactly for one seed.
        timeless = {k: v for k, v in envelope.items() if k != "wall_time_seconds"}
        replies.wire_bytes += len(json.dumps(document, sort_keys=True)) + len(
            json.dumps(timeless, sort_keys=True)
        )
        expected_origin = "cold" if kind == "cold" else "warm"
        tally.check(
            all(entry["provenance"]["origin"] == expected_origin
                for entry in envelope["entries"]),
            f"daemon: a {kind} request was not answered {expected_origin}",
        )
        key = json.dumps(document, sort_keys=True)
        answer = digest(_normalised(envelope))
        replies.sequence.append(answer)
        if key in replies.answers:
            tally.check(
                replies.answers[key][0] == answer,
                f"daemon: a repeated {kind} request got a different answer",
            )
        else:
            replies.answers[key] = (answer, request, kind)
        return finished - started

    def _verify(self, daemon: Daemon, replies: Replies) -> None:
        """Every distinct answer equals the in-process ``Session.run``.

        The reference session reads the daemon's store through a fresh
        memory layer; the first few cold answers are also recomputed on
        a memory-only session, independent of anything the daemon wrote.
        """
        tally = self.ctx.tally
        reference = Session(
            ResultStore(daemon.session.store.directory), jobs=1, settings=self.settings
        )
        scratch = Session(ResultStore.in_memory(), jobs=1, settings=self.settings)
        recomputed = 0
        for answer, request, kind in replies.answers.values():
            local = digest(_normalised(result_to_wire(reference.run(request))))
            tally.check(local == answer, f"daemon: a {kind} answer differs from Session.run")
            if kind == "cold" and recomputed < COLD_RECOMPUTED:
                recomputed += 1
                fresh = digest(_normalised(result_to_wire(scratch.run(request))))
                tally.check(fresh == answer, "daemon: a cold answer differs from a recomputation")

    def measure(self, seconds: float) -> Dict[str, float]:
        assert self.daemon is not None, "prepare() starts the daemon"
        replies = Replies()
        timers = Timers()
        mix = self._mix()
        started = now()
        while now() - started < seconds or (
            any(len(samples) < MIN_PER_KIND for samples in replies.seconds.values())
            and now() - started < 3 * seconds
        ):
            kind, request = next(mix)
            spent = self._send(self.daemon, kind, request, replies)
            if spent is not None:
                timers.add(kind, spent)
            timers.settle(every=PROBE_EVERY_S)
        window = now() - started
        self._verify(self.daemon, replies)
        warm = timers.values("warm")
        percentile, warm_tail = tail(warm)
        ctx = self.ctx
        ctx.note("daemon_warm_p50_ms", 1000.0 * median(warm), "ms", f"{len(warm)} warm runs")
        ctx.note(
            f"daemon_warm_p{percentile:g}_ms", 1000.0 * warm_tail, "ms",
            "highest percentile with >= 10 samples beyond it",
        )
        sweeps, colds = timers.values("sweep"), timers.values("cold")
        ctx.note("daemon_sweep_p50_ms", 1000.0 * median(sweeps), "ms", f"{len(sweeps)} sweeps")
        ctx.note("daemon_cold_p50_ms", 1000.0 * median(colds), "ms", f"{len(colds)} cold runs")
        ctx.note(
            "daemon_req_per_s", replies.completed / window, "req/s",
            f"{replies.completed} requests per wall second, one closed-loop client",
        )
        return {"cold_s": median(colds), "warm_ms": 1000.0 * median(warm)}

    def trace(self) -> Dict[str, float]:
        """Replay one fixed prefix of the mix on two daemons, request by request.

        Each request goes to the set-up daemon untraced and to a second
        daemon with the same warm set while a tracer is active, so drift
        in the machine's speed lands on both sides of the overhead ratio.
        Cold runs are cold on both, and the answers must match.
        """
        assert self.daemon is not None, "prepare() starts the daemon"
        tally = self.ctx.tally
        mix = self._mix()
        prefix = [next(mix) for _ in range(self.ctx.sizes.daemon_replay)]
        untraced, traced = Replies(), Replies()
        tracer, timers, probe = Tracer(), Timers(), StoreProbe()
        daemon = self._start()
        try:
            with probe.watch(daemon.session.store):
                for index, (kind, request) in enumerate(prefix):
                    # Alternate which side goes first: the second copy of a
                    # request runs on warmer host caches.
                    if index % 2 == 0:
                        self._send(self.daemon, kind, request, untraced)
                    with tracing(tracer), timers.wrap(
                        server_module, "result_to_wire", lambda *a: "api.encode"
                    ), timers.wrap(
                        server_module, "request_from_wire", lambda *a: "api.decode"
                    ):
                        self._send(daemon, kind, request, traced, timers)
                    if index % 2 == 1:
                        self._send(self.daemon, kind, request, untraced)
                    timers.settle(every=PROBE_EVERY_S)
                    probe.timers.settle(every=PROBE_EVERY_S)
        finally:
            daemon.stop()
        self._verify(self.daemon, untraced)
        tally.check(
            traced.sequence == untraced.sequence,
            "daemon: traced answers differ from untraced answers",
        )
        spans = tracer.spans
        layers = {
            "api.encode_s": timers.total("api.encode"),
            "api.decode_s": timers.total("api.decode"),
            "api.wire_bytes": traced.wire_bytes,
            "daemon.http_ms": self._http_ms(self.daemon, prefix, untraced),
            "trace.overhead_ratio": sum(map(sum, traced.seconds.values()))
            / sum(map(sum, untraced.seconds.values())),
        }
        layers.update(engine_layer(spans))
        layers.update(probe.metrics(spans))
        return layers

    def _http_ms(
        self, daemon: Daemon, prefix: List[Tuple[str, Request]], replies: Replies
    ) -> float:
        """Warm round-trip p50 minus in-process ``Session.run`` p50."""
        local = []
        for kind, request in prefix:
            if kind == "warm":
                started = cpu()
                daemon.session.run(request)
                local.append(cpu() - started)
        return 1000.0 * (median(replies.seconds["warm"]) - median(local))


def _normalised(envelope: Dict[str, Any]) -> Dict[str, Any]:
    """An answer without its wall time and per-entry warm/cold origin."""
    entries = []
    for entry in envelope["entries"]:
        provenance = {k: v for k, v in entry["provenance"].items() if k != "origin"}
        entries.append({**entry, "provenance": provenance})
    return {
        key: value
        for key, value in {**envelope, "entries": entries}.items()
        if key != "wall_time_seconds"
    }
