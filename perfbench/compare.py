#!/usr/bin/env python3
"""Flag and name the metrics that got worse between two sets of runs.

Usage::

    python3 perfbench/compare.py --before A1.txt A2.txt --after B1.txt B2.txt

Each file holds the output of one ``run.py`` run of the same workload
(its last line is the result object).  Several files on a side are
reduced to their median.  A metric is flagged when it is worse than
before by more than its allowance:

* end-to-end metrics: their bound in BENCHMARK.json;
* per-layer times and ratios: :data:`PER_LAYER_ALLOWANCE` (10%);
* counts of simulated work (``count``, ``cycles``, ``bytes``): any
  change, since they repeat exactly for one seed.

Every flagged metric is printed with the layer it belongs to (the part
of its name before the first dot); the exit status is 1 when anything
was flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from harness import END_TO_END, PER_LAYER, is_count

#: How much worse a per-layer time or ratio may get before it is flagged.
PER_LAYER_ALLOWANCE = 0.10

#: name -> (unit, better, allowance).
DEFINITIONS = {
    **{name: (unit, better, bound) for name, unit, better, bound in END_TO_END},
    **{name: (unit, better, PER_LAYER_ALLOWANCE) for name, unit, better in PER_LAYER},
}


@dataclass(frozen=True)
class Finding:
    """One metric that got worse than its allowance."""

    name: str
    before: float
    after: float

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]

    @property
    def change(self) -> float:
        """Relative change, after over before, minus one."""
        return self.after / self.before - 1.0 if self.before else float("inf")


def flag(before: Dict[str, float], after: Dict[str, float]) -> List[Finding]:
    """Metrics of ``after`` worse than ``before`` beyond their allowance."""
    findings = []
    for name in sorted(set(before) & set(after)):
        unit, better, allowance = DEFINITIONS[name]
        old, new = before[name], after[name]
        if is_count(unit):
            worse = new != old
        elif better == "higher":
            worse = new < old * (1.0 - allowance)
        else:
            worse = new > old * (1.0 + allowance)
        if worse:
            findings.append(Finding(name, old, new))
    return findings


def load_metrics(paths: Sequence[Path]) -> Dict[str, float]:
    """Median of each metric over the result lines of some run outputs."""
    samples: Dict[str, List[float]] = {}
    for path in paths:
        result = json.loads(path.read_text().strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(values) for name, values in samples.items()}


def report(findings: Sequence[Finding]) -> str:
    """Human-readable findings, one line each, then the flagged layers."""
    lines = [
        f"WORSE {finding.name:<28} {finding.before:.6g} -> {finding.after:.6g} "
        f"({finding.change:+.1%}) layer={finding.layer}"
        for finding in findings
    ]
    layers = sorted({finding.layer for finding in findings})
    lines.append("flagged layers: " + (", ".join(layers) if layers else "none"))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", nargs="+", type=Path, required=True)
    parser.add_argument("--after", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    findings = flag(load_metrics(args.before), load_metrics(args.after))
    print(report(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
