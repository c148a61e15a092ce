#!/usr/bin/env python3
"""Tests of the benchmark itself, at small sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

* BENCHMARK.json declares exactly the workloads and metrics the
  benchmark prints;
* every workload prints every metric by name with its unit, in both the
  untraced and the traced run, and passes its own output checks;
* the same seed gives identical output digests and work counts;
* a 15% slowdown injected into one layer (``MI6Processor.warm_up``)
  moves that layer's metric, and ``compare.py`` flags it under that
  layer's name, from saved outputs of traced ``run.py`` runs.

Timing-based, so kept out of the repository's unit-test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

import run
from compare import DEFINITIONS, flag, load_metrics, report
from harness import END_TO_END, PER_LAYER, ROOT, SRC, WORK_ROOT, Sizes, cpu, is_count

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

SMALL = Sizes(
    sweep_instructions=2_000,
    sweep_variants=("BASE", "F+P+M+A"),
    sweep_benchmarks=("gcc", "mcf"),
    sweep_warm_min=2,
    warm_reruns=2,
    serve_seeds=2,
    service_requests=20,
    fleet_requests=20,
    daemon_variants=("BASE", "F+P+M+A"),
    daemon_benchmarks=("gcc", "mcf"),
    daemon_replay=30,
    lattice_masks=(0, 15),
)

#: Sizes of the traced sweep runs behind the injected-slowdown test: all
#: seven variants, so that warm-up has enough calls to time.
SLOWDOWN_SIZES = replace(SMALL, sweep_variants=None, sweep_benchmarks=("gcc", "mcf", "hmmer"))
#: Runs on each side; ``compare.py`` compares the two sides' medians.
#: Warm-up's time repeats within about 3% from run to run, against a
#: 15% slowdown and a 10% allowance, so it takes five to be sure.
SLOWDOWN_RUNS = 5
#: The injected slowdown, as a share of the wrapped layer's own time.
SLOWDOWN = 0.15

#: Results of the small runs, keyed by (workload, trace), run once.
_RESULTS: Dict[Tuple[str, int], Tuple[Dict[str, Any], str]] = {}


def small_run(
    workload: str, trace: int, *, fresh: bool = False, sizes: Sizes = SMALL
) -> Tuple[Dict[str, Any], str]:
    """Run one workload at small size; returns (result, printed text)."""
    key = (workload, trace)
    if fresh or key not in _RESULTS:
        out = io.StringIO()
        argv = ["--workload", workload, "--seconds", "1", "--trace", str(trace)]
        with contextlib.redirect_stdout(out):
            status = run.main(argv, sizes=sizes)
        assert status == 0, out.getvalue()
        text = out.getvalue()
        result = (json.loads(text.strip().splitlines()[-1]), text)
        if fresh:
            return result
        _RESULTS[key] = result
    return _RESULTS[key]


class BenchmarkDefinition(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_printed(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [workload["name"] for workload in declared["workloads"]], list(run.WORKLOADS)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]],
            [tuple(metric) for metric in END_TO_END],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]],
            [tuple(metric) for metric in PER_LAYER],
        )


class EveryWorkload(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit_and_outputs_check(self):
        for workload in run.WORKLOADS:
            for trace, definitions in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result, text = small_run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], text)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = [definition[0] for definition in definitions]
                    self.assertEqual(list(result["metrics"]), names)
                    for name, unit in ((d[0], d[1]) for d in definitions):
                        self.assertEqual(result["metrics"][name]["unit"], unit)
                        printed = [line.split() for line in text.splitlines()]
                        self.assertIn(unit, next(p for p in printed if p[:1] == [name]))
                    if not trace:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_the_same_seed_gives_the_same_digests_and_counts(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first, first_text = small_run(workload, 1)
                again, again_text = small_run(workload, 1, fresh=True)
                self.assertEqual(_digest_lines(first_text), _digest_lines(again_text))
                self.assertTrue(_digest_lines(first_text))
                counts = [name for name, unit, _ in PER_LAYER if is_count(unit)]
                for name in counts:
                    self.assertEqual(
                        first["metrics"][name]["value"], again["metrics"][name]["value"], name
                    )


class InjectedSlowdown(unittest.TestCase):
    def test_a_slower_warm_up_is_flagged_and_named(self):
        from repro.core.processor import MI6Processor

        original = MI6Processor.warm_up

        def slowed(self, workload):
            started = cpu()
            original(self, workload)
            until = cpu() + SLOWDOWN * (cpu() - started)
            while cpu() < until:
                pass

        WORK_ROOT.mkdir(exist_ok=True)
        saved = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_ROOT))
        outputs: Dict[bool, List[Path]] = {False: [], True: []}
        try:
            # Alternate the two sides, and which of them goes first, so
            # drift in the machine's speed lands on both equally.
            for index in range(SLOWDOWN_RUNS):
                for slow in (index % 2 == 1, index % 2 == 0):
                    if slow:
                        MI6Processor.warm_up = slowed
                    try:
                        _, text = small_run("sweep", 1, fresh=True, sizes=SLOWDOWN_SIZES)
                    finally:
                        MI6Processor.warm_up = original
                    path = saved / f"{'after' if slow else 'before'}-{index}.txt"
                    path.write_text(text)
                    outputs[slow].append(path)
            before, after = load_metrics(outputs[False]), load_metrics(outputs[True])
        finally:
            shutil.rmtree(saved, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK_ROOT.rmdir()
        findings = flag(before, after)
        text = report(findings)
        self.assertIn("warmup.s", {finding.name for finding in findings}, text)
        self.assertIn("warmup", {finding.layer for finding in findings}, text)
        # Of the layer times flagged, warm-up's added the most.  The
        # engine's dispatch time is left out: it holds a sweep pass's
        # warm-up calls too, so it grows by as much.
        added = {
            finding.name: finding.after - finding.before
            for finding in findings
            if DEFINITIONS[finding.name][0] == "s" and finding.name != "engine.dispatch_s"
        }
        self.assertEqual(max(added, key=added.get), "warmup.s", text)


def _digest_lines(text: str):
    return [line.split() for line in text.splitlines() if line.strip().startswith("digest ")]


if __name__ == "__main__":
    unittest.main()
