"""``sweep``: the paper's evaluation as a user runs it.

Why it exists: Figure 13 is a sweep of the paper's 7 variants over the
11 benchmarks, and ``repro sweep`` is how a user reproduces it.  The
first sweep against an empty store is cold and simulates all 77 cells;
repeats in fresh processes are warm and read every cell from the store.
A run makes two cold sweeps, each into its own store, and five warm
ones after each: one cold sweep per run would leave its time to the
host's speed of the moment.

Layers loaded: the CLI (a fresh interpreter per sweep), the engine, the
on-disk store, and the whole kernel behind ``execute_request``: workload
generation, warm-up, machine assembly, the OoO core with its memory
hierarchy, and purge.  Layers bypassed: the serving loops, the fleet,
the daemon's HTTP and wire codec, the detailed LLC and the attacks.

``--jobs 1`` keeps the process pool's scheduling on a small shared box
out of the number, and puts the whole sweep in one child process, whose
CPU time is the sweep's time.  The child runs the CLI under
``harness.probed_main``, whose thread probes the host's speed on the
child's own core; its CPU time is taken off the sweep's.  The traced run splits each cell from outside
(assemble, install domain, warm-up, materialize the stream, run the
core) and requires the split to reproduce ``execute_request``'s cycles
and counters exactly, so the layer times measure the same program.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from harness import (
    PROBED_REPRO,
    PROBE_EVERY_S,
    Context,
    StoreProbe,
    Timers,
    children_cpu,
    cpu,
    digest,
    engine_layer,
    import_seconds,
    median,
    now,
    run_python,
)
from repro.analysis.engine import EvaluationSettings, RunRequest
from repro.analysis.store import ResultStore
from repro.api.requests import SweepRequest
from repro.api.session import Session
from repro.core.processor import MI6Processor, WorkloadRun
from repro.core.serialization import run_to_dict
from repro.obs.trace import tracing
from repro.workloads.characteristics import PAPER_REPORTED
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.spec_cint2006 import profile_for

#: Longest a single CLI sweep may take before the run is abandoned.
CLI_TIMEOUT_S = 150


class SweepBench:
    """Cold then warm ``repro sweep --json --jobs 1`` processes."""

    name = "sweep"
    #: The simulation runs in the CLI processes, not in the benchmark.
    work_in_children = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        sizes = ctx.sizes
        self.settings = EvaluationSettings(
            instructions=sizes.sweep_instructions, seed=ctx.seed
        )
        self.request = SweepRequest(
            variants=sizes.sweep_variants,
            benchmarks=sizes.sweep_benchmarks,
            seeds=(ctx.seed,),
            instructions=sizes.sweep_instructions,
        )

    def prepare(self) -> None:
        """Nothing to prepare: a user's first sweep meets an empty store."""

    def close(self) -> None:
        """No resources outlive a call."""

    # ------------------------------------------------------------------
    # Untraced run: the end-to-end metrics

    def _cli(self, store_dir: Path) -> Optional[Tuple[float, float, List[Dict[str, Any]]]]:
        """One ``repro sweep`` process.

        Returns its CPU seconds, the host's speed probed while it ran, and
        its cells.
        """
        sizes = self.ctx.sizes
        args = [
            "-c", PROBED_REPRO, "sweep", "--json", "--jobs", "1",
            "--instructions", str(sizes.sweep_instructions),
            "--seed", str(self.ctx.seed),
            "--cache-dir", str(store_dir),
        ]
        if sizes.sweep_variants:
            args += ["--variants", *sizes.sweep_variants]
        if sizes.sweep_benchmarks:
            args += ["--benchmarks", *sizes.sweep_benchmarks]
        started = children_cpu()
        completed = run_python(args, timeout=CLI_TIMEOUT_S)
        seconds = children_cpu() - started
        if completed.returncode != 0:
            self.ctx.tally.fail(
                f"sweep: repro sweep exited {completed.returncode}: "
                f"{completed.stderr.strip()[-300:]}"
            )
            return None
        try:
            probed = json.loads(completed.stderr.strip().splitlines()[-1])
            entries = json.loads(completed.stdout)["entries"]
        except (ValueError, KeyError, IndexError) as error:
            self.ctx.tally.fail(f"sweep: unreadable repro sweep output ({error})")
            return None
        self.ctx.tally.op()
        return seconds - probed["probe_cpu"], probed["probe"], entries

    def measure(self, seconds: float) -> Dict[str, float]:
        ctx = self.ctx
        tally = ctx.tally
        sizes = ctx.sizes
        timers = Timers()
        first: Optional[Tuple[List[Dict[str, Any]], Path]] = None
        started = now()
        while timers.calls("cold") < sizes.sweep_colds or now() - started < seconds:
            store_dir = ctx.tempdir("sweep-store-")
            cold = self._cli(store_dir)
            if cold is None:
                raise RuntimeError("a cold sweep failed: " + tally.failures[-1])
            timers.add("cold", cold[0], probe=cold[1])
            cells = cold[2]
            tally.check(
                all(cell["origin"] == "cold" for cell in cells),
                "sweep: the cold sweep served cells from an empty store",
            )
            if first is None:
                first = cells, store_dir
            expected = _without_origin(first[0])
            tally.check(
                _without_origin(cells) == expected,
                "sweep: a cold sweep's output differs from the first one's",
            )
            for _ in range(sizes.sweep_warm_min):
                warm = self._cli(store_dir)
                if warm is None:
                    continue
                timers.add("warm", warm[0], probe=warm[1])
                tally.check(
                    _without_origin(warm[2]) == expected,
                    "sweep: warm output differs from the cold output",
                )
                tally.check(
                    all(cell["origin"] == "warm" for cell in warm[2]),
                    "sweep: a warm sweep simulated a cell again",
                )
        if not timers.calls("warm"):
            raise RuntimeError("no warm sweep completed: " + tally.failures[-1])
        assert first is not None
        self._check_cells(first[0], ResultStore(first[1]))
        cold_s, warm_s = median(timers.values("cold")), median(timers.values("warm"))
        ctx.note("sweep_cold_s", cold_s, "s", f"median of {timers.calls('cold')} cold sweeps")
        ctx.note("sweep_warm_s", warm_s, "s", f"median of {timers.calls('warm')} warm sweeps")
        return {"cold_s": cold_s, "warm_ms": warm_s * 1000.0}

    def _check_cells(self, cells: Sequence[Dict[str, Any]], store: ResultStore) -> None:
        """Digest every cell's cycles and counters, read back from the store."""
        documents = []
        for cell in cells:
            run = store.get(cell["cache_key"])
            if not self.ctx.tally.check(
                run is not None and run.cycles == cell["cycles"],
                f"sweep: stored run of {cell['variant']}/{cell['benchmark']} "
                "does not match the printed cycles",
            ):
                continue
            documents.append(
                [cell["variant"], cell["benchmark"], cell["seed"], run_to_dict(run)]
            )
        self.ctx.check_digest(self.name, digest(documents))
        self._note_overhead_error(
            {(cell["variant"], cell["benchmark"]): cell["cycles"] for cell in cells}
        )

    def _note_overhead_error(self, cycles: Dict[Tuple[str, str], int]) -> None:
        """Model error against Figure 13 (held out from calibration)."""
        errors = []
        for benchmark, paper in PAPER_REPORTED.items():
            base = cycles.get(("BASE", benchmark))
            full = cycles.get(("F+P+M+A", benchmark))
            if base and full:
                measured = 100.0 * (full - base) / base
                errors.append(abs(measured - paper.overall_overhead_pct))
        if errors:
            self.ctx.note(
                "overhead_err_pp", sum(errors) / len(errors), "pp",
                f"mean |F+P+M+A over BASE - Fig. 13| over {len(errors)} benchmarks",
            )

    # ------------------------------------------------------------------
    # Traced run: the per-layer metrics

    def trace(self) -> Dict[str, float]:
        ctx = self.ctx
        tally = ctx.tally
        reference_store = ResultStore(ctx.tempdir("sweep-reference-"))
        started = cpu()
        reference = Session(reference_store, jobs=1, settings=self.settings).run(
            self.request
        )
        untraced_cpu = cpu() - started
        tally.op()
        expected = [_cell_document(entry) for entry in reference.entries]

        probe = StoreProbe()
        with tracing() as tracer:
            store = ResultStore(ctx.tempdir("sweep-traced-"))
            with probe.watch(store):
                started = cpu()
                traced = Session(store, jobs=1, settings=self.settings).run(self.request)
                traced_cpu = cpu() - started
            # A fresh store object over the same directory reads every
            # cell from disk, as a warm CLI process does.
            warm_store = ResultStore(store.directory)
            with probe.watch(warm_store):
                warm = Session(warm_store, jobs=1, settings=self.settings).run(
                    self.request
                )
            split, layers = self.split(self.request.resolve(self.settings).requests())
        # A second untraced pass after the traced one, so that drift in
        # the machine's speed lands on both sides of the overhead ratio.
        started = cpu()
        Session(ResultStore(ctx.tempdir("sweep-again-")), jobs=1, settings=self.settings).run(
            self.request
        )
        untraced_cpu = (untraced_cpu + cpu() - started) / 2
        tally.op()
        traced_documents = [_cell_document(entry) for entry in traced.entries]
        tally.check(
            traced_documents == expected,
            "sweep: traced outputs differ from untraced outputs",
        )
        tally.check(
            [_cell_document(entry) for entry in warm.entries] == expected,
            "sweep: warm outputs differ from cold outputs",
        )
        for document, cell in zip(split, expected):
            tally.check(
                document == cell[3],
                f"sweep: split run of {cell[0]}/{cell[1]} differs from execute_request",
            )
        tally.check(len(split) == len(expected), "sweep: split skipped cells")
        ctx.check_digest(self.name, digest(traced_documents))

        spans = tracer.spans
        layers.update(engine_layer(spans))
        layers.update(probe.metrics(spans))
        layers["cli.import_s"] = import_seconds("repro.cli")
        layers["trace.overhead_ratio"] = traced_cpu / untraced_cpu
        return layers

    def split(
        self, requests: Sequence[RunRequest]
    ) -> Tuple[List[Dict[str, Any]], Dict[str, float]]:
        """Run each cell layer by layer, as ``execute_request`` does inside.

        Returns each cell's run document and the per-layer metrics.
        """
        timers = Timers()
        counts = {"generated": 0, "committed": 0, "accesses": 0}
        counters = {
            name: 0
            for name in ("l1d.access", "llc.access", "llc.miss", "purge.executions",
                         "purge.stall_cycles")
        }
        documents = []
        for request in requests:
            started = cpu()
            processor = MI6Processor(request.config, seed=request.seed)
            timers.add("assemble", cpu() - started)
            started = cpu()
            workload = SyntheticWorkload(profile_for(request.benchmark), seed=request.seed)
            timers.add("gen", cpu() - started)
            started = cpu()
            processor.install_domain(processor.build_workload_domain(workload))
            timers.add("assemble", cpu() - started)
            if request.warm_up:
                counts["accesses"] += len(workload.warmup_addresses()) + len(
                    workload.warmup_code_addresses()
                )
                started = cpu()
                processor.warm_up(workload)
                timers.add("warmup", cpu() - started)
            started = cpu()
            stream = list(workload.instructions(request.instructions))
            timers.add("gen", cpu() - started)
            started = cpu()
            result = processor.core.run(iter(stream))
            timers.add("ooo", cpu() - started)
            counts["generated"] += len(stream)
            counts["committed"] += result.instructions
            for name in counters:
                counters[name] += result.stats.value(name)
            run = WorkloadRun(
                benchmark=workload.profile.name,
                config_name=request.config.name,
                instructions=result.instructions,
                result=result,
            )
            documents.append(run_to_dict(run))
            timers.settle(every=PROBE_EVERY_S)
        gen, warmup, ooo = timers.total("gen"), timers.total("warmup"), timers.total("ooo")
        layers = {
            "workloads.gen_s": gen,
            "workloads.instructions": counts["generated"],
            "workloads.ns_per_instr": 1e9 * gen / max(1, counts["generated"]),
            "warmup.s": warmup,
            "warmup.accesses": counts["accesses"],
            "warmup.ns_per_access": 1e9 * warmup / max(1, counts["accesses"]),
            "ooo.s": ooo,
            "ooo.ns_per_instr": 1e9 * ooo / max(1, counts["committed"]),
            "mem.l1d_accesses": counters["l1d.access"],
            "mem.llc_accesses": counters["llc.access"],
            "mem.llc_misses": counters["llc.miss"],
            "purge.executions": counters["purge.executions"],
            "purge.stall_cycles": counters["purge.stall_cycles"],
            "core.assemble_s": timers.total("assemble"),
        }
        return documents, layers


def _without_origin(cells: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [{key: value for key, value in cell.items() if key != "origin"} for cell in cells]


def _cell_document(entry: Any) -> List[Any]:
    variant, benchmark, seed = entry.key
    return [variant, benchmark, seed, run_to_dict(entry.value)]
