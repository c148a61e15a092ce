"""Shared pieces of the benchmark: metric definitions, tallies, timers.

The benchmark drives the simulator only through its public entry
points (the ``repro`` CLI, ``Session.run``, the daemon server and
client, the ``execute_*_request`` functions and ``MI6Processor``).  The
layer timers below wrap those entry points from the benchmark's side
for the length of a traced pass and put the originals back afterwards;
nothing under ``src/`` knows it is being measured.

Every time the benchmark reports is CPU time of the processes doing the
work (all their threads, user plus system), scaled to a reference host
speed by :class:`Timers`.  On the shared 2-core VM the benchmark was
tuned on, the host's speed drifts: the same work took up to 1.6x as long
within two minutes, in CPU time as much as in wall time (the guest saw
no steal time).  A fixed pure-Python loop timed between operations
drifts with it, so each operation's CPU time is divided by the loop's
time around it.  Wall time only bounds the measurement windows.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import runpy
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in, the package source, and
#: the benchmark's own directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Scratch space for stores and daemons; removed at the end of each run.
WORK_ROOT = ROOT / ".perfbench_work"

#: The default workload seed (the paper's year, as in the simulator).
DEFAULT_SEED = 2019

#: After each cold pass, warm reruns go on for at least this share of
#: the cold pass's time, so that every run has enough warm samples.
WARM_SHARE = 0.10

#: Alternating untraced and traced passes behind each overhead ratio.
TRACE_PAIRS = 3

#: Wall clock: bounds measurement windows; never reported.
now = time.perf_counter
#: CPU seconds of this process, all threads.
cpu = time.process_time

#: Iterations of the speed probe's loop, and its CPU seconds on the
#: reference host: reported times are what the work would take there.
PROBE_ITERATIONS = 400_000
REFERENCE_PROBE_S = 0.05
#: Least wall seconds between speed probes.  The host's speed swings
#: by a fifth within a second, so operations longer than this are split
#: into parts with probes between them where the workload allows.
PROBE_EVERY_S = 0.3


def children_cpu() -> float:
    """CPU seconds of the child processes waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------------
# Metric definitions (BENCHMARK.json mirrors these; selftest checks it)

#: End-to-end metrics: (name, unit, better, bound).  Every workload
#: reports every one of them, each in its own terms (see README.md).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("cold_s", "s", "lower", 0.25),
    ("warm_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: Per-layer metrics from the traced run: (name, unit, better).  A
#: workload that bypasses a layer reports 0 for it.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.gen_s", "s", "lower"),
    ("workloads.instructions", "count", "lower"),
    ("workloads.ns_per_instr", "ns", "lower"),
    ("warmup.s", "s", "lower"),
    ("warmup.accesses", "count", "lower"),
    ("warmup.ns_per_access", "ns", "lower"),
    ("ooo.s", "s", "lower"),
    ("ooo.ns_per_instr", "ns", "lower"),
    ("mem.l1d_accesses", "count", "lower"),
    ("mem.llc_accesses", "count", "lower"),
    ("mem.llc_misses", "count", "lower"),
    ("purge.executions", "count", "lower"),
    ("purge.stall_cycles", "cycles", "lower"),
    ("core.assemble_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.gets", "count", "lower"),
    ("store.get_bytes", "bytes", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.puts", "count", "lower"),
    ("store.put_bytes", "bytes", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("engine.lookup_s", "s", "lower"),
    ("engine.dispatch_s", "s", "lower"),
    ("engine.persist_s", "s", "lower"),
    ("api.encode_s", "s", "lower"),
    ("api.decode_s", "s", "lower"),
    ("api.wire_bytes", "bytes", "lower"),
    ("daemon.http_ms", "ms", "lower"),
    ("service.loop_s", "s", "lower"),
    ("service.requests", "count", "higher"),
    ("service.purges", "count", "lower"),
    ("service.us_per_request", "us", "lower"),
    ("fleet.route_s", "s", "lower"),
    ("fleet.shard_s", "s", "lower"),
    ("fleet.offered", "count", "higher"),
    ("fleet.completed", "count", "higher"),
    ("fleet.dropped", "count", "lower"),
    ("fleet.scrub_cycles", "cycles", "lower"),
    ("fleet.us_per_request", "us", "lower"),
    ("attacks.prime_probe_s", "s", "lower"),
    ("attacks.spectre_s", "s", "lower"),
    ("attacks.contention_s", "s", "lower"),
    ("attacks.branch_residue_s", "s", "lower"),
    ("attacks.cells", "count", "higher"),
    ("attacks.leaks", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def is_count(unit: str) -> bool:
    """Units of simulated work, which repeat exactly for one seed."""
    return unit in ("count", "cycles", "bytes")


# ----------------------------------------------------------------------
# Run bookkeeping


class Tally:
    """Operations and output checks attempted, and the ones that failed.

    A failed check counts as one failed operation, so ``failed /
    attempted`` is the run's fail ratio.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def op(self) -> None:
        """Count one operation that completed."""
        self.attempted += 1

    def fail(self, what: str) -> None:
        """Count one operation or check that failed."""
        self.attempted += 1
        self.failures.append(what)

    def check(self, ok: bool, what: str) -> bool:
        """Count one output check; ``what`` names it if it fails."""
        if ok:
            self.attempted += 1
        else:
            self.fail(what)
        return ok


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does per operation.

    :data:`FULL` is the benchmark of record; the selftest runs smaller
    sizes.  ``None`` variants or benchmarks mean the paper's full grid
    (seven variants, eleven benchmarks).
    """

    sweep_instructions: int = 10_000
    sweep_variants: Optional[Tuple[str, ...]] = None
    sweep_benchmarks: Optional[Tuple[str, ...]] = None
    #: Cold CLI sweeps per run, each into a fresh store, and the warm
    #: CLI sweeps after each one, even when the window has closed.
    sweep_colds: int = 2
    sweep_warm_min: int = 5
    #: Fewest warm reruns after each cold pass of service, fleet and lattice.
    warm_reruns: int = 10
    #: Sub-seeds of the service and fleet passes: one request each.
    serve_seeds: int = 4
    #: Requests each service or fleet simulation serves, per sub-seed.
    service_requests: int = 100
    fleet_requests: int = 150
    daemon_instructions: int = 2_000
    daemon_variants: Optional[Tuple[str, ...]] = None
    daemon_benchmarks: Optional[Tuple[str, ...]] = None
    #: Requests replayed on each of the two daemons of a traced run.
    daemon_replay: int = 300
    #: Lattice points (bit i selects the i-th of FLUSH PART MISS ARB NONSPEC).
    lattice_masks: Tuple[int, ...] = tuple(range(32))


FULL = Sizes()


@dataclass
class Context:
    """What one benchmark run hands each workload.

    Attributes:
        seed: Workload seed; the same seed gives the same requests.
        sizes: Workload sizes.
        workdir: Per-run scratch directory inside the checkout.
        tally: Operations and checks of this run.
        report: Workload-specific metrics printed above the result
            line, as ``(name, value, unit, note)``.
        digests: Output digest of each workload this run produced.
        pinned: Digests pinned for the default seed at full size, or
            ``None`` when this run's outputs are not pinned.
    """

    seed: int
    sizes: Sizes
    workdir: Path
    tally: Tally = field(default_factory=Tally)
    report: List[Tuple[str, float, str, str]] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    pinned: Optional[Dict[str, str]] = None

    def tempdir(self, prefix: str) -> Path:
        """A fresh directory under the run's workdir."""
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))

    def note(self, name: str, value: float, unit: str, text: str = "") -> None:
        """Record a workload-specific metric for the printed report."""
        self.report.append((name, value, unit, text))

    def check_digest(self, name: str, value: str) -> None:
        """Record an output digest and compare it with the pinned one."""
        self.digests[name] = value
        if self.pinned is not None:
            expected = self.pinned.get(name)
            self.tally.check(
                value == expected,
                f"{name}: output digest {value} differs from pinned {expected}",
            )


# ----------------------------------------------------------------------
# Statistics and digests


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest of p99/p95/p90/p75/p50 with ten samples beyond it.

    Returns ``(percentile, value)``; ``(50, median)`` when even the
    median has fewer than ten samples above it.
    """
    ordered = sorted(values)
    count = len(ordered)
    for percentile in (99, 95, 90, 75):
        if count * (100 - percentile) / 100 >= 10:
            index = min(count - 1, int(round(percentile / 100 * (count - 1))))
            return float(percentile), ordered[index]
    return 50.0, statistics.median(ordered)


def sub_seeds(seed: int, count: int) -> List[int]:
    """``count`` seeds derived from ``seed``, distinct across seeds."""
    return [seed * count + index for index in range(count)]


def digest(document: Any) -> str:
    """Stable short hash of a JSON-compatible document."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory of the processes doing the work.

    That is this process, or with ``children`` the largest child it
    waited for (ru_maxrss is in KiB on Linux).
    """
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_pass(session: Any, requests: Sequence[Any], timers: "Timers", key: str) -> List[Any]:
    """Run ``requests`` on ``session`` one at a time; returns the results.

    Each request's CPU time is added to ``timers`` under ``key``, and the
    host's speed is probed between requests, so a pass seconds long is
    scaled by the speed it met at each point.
    """
    results = []
    for request in requests:
        started = cpu()
        results.append(session.run(request))
        timers.add(key, cpu() - started)
        timers.settle(every=PROBE_EVERY_S)
    return results


def cold_then_warm(
    seconds: float,
    cold: Callable[["Timers", str], None],
    warm: Callable[["Timers", str], None],
    min_warm: int,
) -> Tuple[List[float], List[float]]:
    """Cold passes, each followed by warm reruns, while the window lasts.

    ``cold`` and ``warm`` run one pass, adding its CPU time to the timers
    under the key they are given; returns each pass's scaled time.
    After each cold pass, warm reruns go on at least ``min_warm`` times
    and for at least :data:`WARM_SHARE` of the pass's time.  Another
    cold pass starts only if a typical one still fits in the window.
    """
    timers = Timers()
    colds: List[str] = []
    warms: List[str] = []
    cold_walls: List[float] = []
    started = now()
    while True:
        colds.append(f"cold-{len(colds)}")
        pass_started = now()
        cold(timers, colds[-1])
        cold_walls.append(now() - pass_started)
        timers.settle()
        rerun_until = now() + WARM_SHARE * cold_walls[-1]
        reruns = 0
        while reruns < min_warm or now() < rerun_until:
            warms.append(f"warm-{len(warms)}")
            warm(timers, warms[-1])
            # Warm reruns last milliseconds: probe around each one.
            timers.settle()
            reruns += 1
        if now() - started + median(cold_walls) > seconds:
            return [timers.total(key) for key in colds], [timers.total(key) for key in warms]


# ----------------------------------------------------------------------
# Subprocesses


def python_env() -> Dict[str, str]:
    """Environment for child interpreters: the package and the benchmark on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(BENCH)))
    return env


def run_python(args: Sequence[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion (it is always waited for)."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=python_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )


def import_seconds(modules: str, repeats: int = 5) -> float:
    """Median CPU time to import ``modules`` in a fresh interpreter."""
    code = (
        "import time; started = time.process_time(); "
        f"import {modules}; print(time.process_time() - started)"
    )
    samples = []
    for _ in range(repeats):
        completed = run_python(["-c", code], timeout=60)
        if completed.returncode != 0:
            raise RuntimeError(f"import {modules} failed:\n{completed.stderr}")
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return median(samples)


# ----------------------------------------------------------------------
# Layer timers (traced runs only)


def speed_probe(clock: Callable[[], float] = cpu) -> float:
    """CPU seconds of a fixed pure-Python loop that touches no simulator code."""
    started = clock()
    total = 0
    for index in range(PROBE_ITERATIONS):
        total += index * index % 7
    return clock() - started


#: A child interpreter's program that runs ``python -m repro`` with the
#: rest of its arguments under :func:`probed_main`.
PROBED_REPRO = "import sys, harness; sys.exit(harness.probed_main('repro', sys.argv[1:]))"


def probed_main(module: str, argv: List[str]) -> int:
    """Run ``python -m module argv`` here while a thread probes the host's speed.

    The probes run on the thread's own CPU clock, on the core the command
    runs on.  The last line of standard error is a JSON object with the
    mean probe and the probe thread's CPU seconds, to be taken off the
    process's CPU time.
    """
    probes: List[float] = []
    done = threading.Event()

    def probe_loop() -> None:
        while not done.is_set():
            probes.append(speed_probe(time.thread_time))
            done.wait(PROBE_EVERY_S)

    thread = threading.Thread(target=probe_loop, daemon=True)
    thread.start()
    sys.argv = [module, *argv]
    status: Any = 0
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        status = exit_.code
    finally:
        done.set()
        thread.join()
        sys.stdout.flush()
        print(
            json.dumps({"probe": statistics.fmean(probes), "probe_cpu": sum(probes)}),
            file=sys.stderr,
        )
    return status if isinstance(status, int) else 1


class Timers:
    """CPU seconds per key, scaled to the reference host's speed.

    Samples wait until :meth:`settle` probes the host's speed; each is
    then scaled by :data:`REFERENCE_PROBE_S` over the mean of the probes
    before and after it.  Call :meth:`settle` between operations, never
    inside a timed one: the probe costs about 50 ms.
    """

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = {}
        self._pending: List[Tuple[str, float]] = []
        self._probe = speed_probe()
        self._probed_at = now()

    def add(self, key: str, seconds: float, probe: Optional[float] = None) -> None:
        """Record a sample; with ``probe``, the speed measured while it
        ran (see :func:`probed_main`), it is scaled at once."""
        if probe is None:
            self._pending.append((key, seconds))
        else:
            self._samples.setdefault(key, []).append(seconds * REFERENCE_PROBE_S / probe)

    def settle(self, every: float = 0.0) -> None:
        """Scale the pending samples, unless ``every`` seconds have not passed."""
        if not self._pending or now() - self._probed_at < every:
            return
        probe = speed_probe()
        scale = REFERENCE_PROBE_S / ((self._probe + probe) / 2)
        for key, seconds in self._pending:
            self._samples.setdefault(key, []).append(seconds * scale)
        self._pending.clear()
        self._probe, self._probed_at = probe, now()

    def values(self, key: str) -> List[float]:
        self.settle()
        return self._samples.get(key, [])

    def total(self, key: str) -> float:
        return sum(self.values(key))

    def calls(self, key: str) -> int:
        return len(self.values(key))

    @contextmanager
    def wrap(
        self,
        owner: Any,
        attribute: str,
        key: Callable[..., str],
    ) -> Iterator[None]:
        """Time every call of ``owner.attribute`` while the block runs.

        ``key`` maps the call's arguments to the layer key it is charged
        to.  ``owner`` is a module, class or instance; the original
        attribute is restored on exit.
        """
        original = getattr(owner, attribute)

        def timed(*args: Any, **kwargs: Any) -> Any:
            started = cpu()
            try:
                return original(*args, **kwargs)
            finally:
                self.add(key(*args, **kwargs), cpu() - started)

        setattr(owner, attribute, timed)
        try:
            yield
        finally:
            if isinstance(owner, type) or not hasattr(type(owner), attribute):
                setattr(owner, attribute, original)
            else:
                # An instance attribute shadowing a method: drop it.
                delattr(owner, attribute)


class StoreProbe:
    """Reads and writes of the ``ResultStore`` instances a traced pass uses.

    Times the calls into each watched store, takes the deltas of its hit
    and miss counters, and sizes the entry files its ``store-read`` and
    ``store-write`` spans name.  A read counts its bytes only when the
    entry existed as the read began: the entry was seen in the directory
    when a store over it was watched, or a write span for it had ended.
    A store records a read span for a miss too, so reads before either
    time moved no bytes.  A memory-only store moves no bytes.
    """

    def __init__(self) -> None:
        self.timers = Timers()
        self.hits = 0
        self.misses = 0
        self._directories: List[Path] = []
        #: entry -> when it was first seen on disk, on the wall-span clock
        #: (``repro.obs.trace.wall_time`` is ``time.perf_counter``).
        self._seen: Dict[str, float] = {}

    @contextmanager
    def watch(self, store: Any) -> Iterator[None]:
        """Probe one store while the block runs."""
        if store.directory is not None:
            directory = Path(store.directory)
            self._directories.append(directory)
            if directory.is_dir():
                seen = now()
                for path in directory.iterdir():
                    self._seen.setdefault(path.name, seen)
        hits, misses = store.memory_hits + store.disk_hits, store.misses
        timers = self.timers
        try:
            with timers.wrap(store, "get", lambda *a: "store.get"), timers.wrap(
                store, "get_payload", lambda *a: "store.get"
            ), timers.wrap(store, "put", lambda *a: "store.put"), timers.wrap(
                store, "put_payload", lambda *a: "store.put"
            ):
                yield
        finally:
            self.hits += store.memory_hits + store.disk_hits - hits
            self.misses += store.misses - misses

    def _size(self, entry: str) -> int:
        for directory in self._directories:
            path = directory / entry
            if path.exists():
                return path.stat().st_size
        return 0

    def metrics(self, spans: Sequence[Any]) -> Dict[str, float]:
        # entry -> the first time it is known to exist on disk
        available = dict(self._seen)
        written = set()
        for span in spans:
            if span.name == "store-write":
                entry, end = dict(span.args)["entry"], span.start + span.duration
                written.add(entry)
                available[entry] = min(available.get(entry, end), end)
        read_bytes = sum(
            self._size(entry)
            for entry, start in (
                (dict(span.args)["entry"], span.start)
                for span in spans
                if span.name == "store-read"
            )
            if available.get(entry, float("inf")) <= start
        )
        timers = self.timers
        lookups = self.hits + self.misses
        return {
            "store.get_s": timers.total("store.get"),
            "store.gets": timers.calls("store.get"),
            "store.get_bytes": read_bytes,
            "store.put_s": timers.total("store.put"),
            "store.puts": timers.calls("store.put"),
            "store.put_bytes": sum(self._size(entry) for entry in written),
            "store.hit_ratio": self.hits / lookups if lookups else 0.0,
        }


def engine_layer(spans: Sequence[Any]) -> Dict[str, float]:
    """Engine metrics read from the spans the engine already emits."""
    totals = {"store-lookup": 0.0, "worker-dispatch": 0.0, "store-persist": 0.0}
    for span in spans:
        if span.track == "engine" and span.name in totals:
            totals[span.name] += span.duration
    return {
        "engine.lookup_s": totals["store-lookup"],
        "engine.dispatch_s": totals["worker-dispatch"],
        "engine.persist_s": totals["store-persist"],
    }
