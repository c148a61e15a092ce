#!/usr/bin/env python3
"""The repository benchmark: one workload per run, results as one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 2019 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that gives the per-layer
metrics and the tracing overhead.  The workload's sizes are fixed here;
``--seed`` only changes the generated inputs.  Workload-specific
metrics and output digests are printed first, one per line with their
units; the last line is the result object.  See README.md for why each
workload exists and what every metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from harness import (
    DEFAULT_SEED,
    END_TO_END,
    FULL,
    PER_LAYER,
    SRC,
    WORK_ROOT,
    Context,
    Sizes,
    Timers,
    cpu,
    import_seconds,
    peak_rss_mb,
)

#: Workload name -> (module, class).
WORKLOADS = {
    "sweep": ("sweep_bench", "SweepBench"),
    "service": ("serve_bench", "ServiceBench"),
    "fleet": ("serve_bench", "FleetBench"),
    "daemon": ("daemon_bench", "DaemonBench"),
    "attack-lattice": ("lattice_bench", "LatticeBench"),
}

#: What set-up imports in a fresh interpreter: the entry points the
#: benchmark drives in-process.
SETUP_IMPORTS = "repro.api, repro.daemon.server, repro.daemon.client"

#: Output digests pinned for the default seed at full size.
PINNED_PATH = Path(__file__).resolve().parent / "digests.json"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pinned_digests(seed: int, sizes: Sizes) -> Optional[Dict[str, str]]:
    """The pinned digests, when this run's seed and sizes are the pinned ones."""
    if seed != DEFAULT_SEED or sizes != FULL:
        return None
    return json.loads(PINNED_PATH.read_text())["digests"]


def run(args: argparse.Namespace, sizes: Sizes) -> Dict[str, Any]:
    """One benchmark run; returns the result object and prints the report."""
    module_name, class_name = WORKLOADS[args.workload]
    bench_type = getattr(importlib.import_module(module_name), class_name)
    WORK_ROOT.mkdir(exist_ok=True)
    ctx = Context(
        seed=args.seed,
        sizes=sizes,
        workdir=Path(tempfile.mkdtemp(dir=WORK_ROOT)),
        pinned=pinned_digests(args.seed, sizes),
    )
    bench = bench_type(ctx)
    try:
        setup = Timers()
        import_s = import_seconds(SETUP_IMPORTS)
        started = cpu()
        bench.prepare()
        setup.add("setup", import_s + cpu() - started)
        setup.settle()
        if args.trace:
            measured = bench.trace()
            unknown = sorted(set(measured) - {name for name, _, _ in PER_LAYER})
            if unknown:
                raise KeyError(f"undeclared per-layer metrics: {unknown}")
            metrics = {
                name: {"value": measured.get(name, 0), "unit": unit}
                for name, unit, _ in PER_LAYER
            }
        else:
            measured = bench.measure(args.seconds)
            measured["setup_s"] = setup.total("setup")
            measured["peak_rss_mb"] = peak_rss_mb(bench.work_in_children)
            metrics = {
                name: {"value": measured[name], "unit": unit}
                for name, unit, _, _ in END_TO_END
            }
    finally:
        bench.close()
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    _print_report(args, ctx, metrics)
    tally = ctx.tally
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _print_report(
    args: argparse.Namespace, ctx: Context, metrics: Dict[str, Dict[str, Any]]
) -> None:
    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    for name, value, unit, note in ctx.report:
        print(f"  {name:<26} {value:>14.4f} {unit:<6} {note}")
    for name, value in sorted(ctx.digests.items()):
        pinned = "" if ctx.pinned is None else " (pinned)"
        print(f"  digest {name:<19} {value}{pinned}")
    tally = ctx.tally
    print(f"  {'fail_ratio':<26} {tally.failed:>7d}/{tally.attempted:<6d}")
    for failure in tally.failures:
        print(f"  FAILED: {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}")


def main(argv: Optional[List[str]] = None, sizes: Sizes = FULL) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package source at {SRC}; run the benchmark from "
            "the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    print(json.dumps(run(args, sizes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
