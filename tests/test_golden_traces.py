"""Golden observation traces: every co-scheduled phase of the attack lattice.

The golden lattice (``test_golden_lattice.py``) pins each scenario's
outcome document, which is a summary: a change to the co-scheduled
executor or the detailed LLC that nets out in it (a different completion
order, an intermediate cycle, ``llc_detail.mshr_stall_cycles``) goes
unseen there, and code both kernels share is invisible to fast == slow.
This module pins what each phase observed instead.

:func:`observe_phases` wraps :meth:`CoScheduledExecutor.run_phase` and
records, for every phase run in its body:

* the completion records the phase appended to ``executor.completed``,
  in order, each as its nine fields by name (:data:`RECORD_FIELDS`);
* ``executor.cycle`` after the phase;
* ``machine.stats.counters()`` after the phase.

That list of phases is the observation trace; the relational
noninterference runner compares the same trace between two secrets.

The test runs the 128 lattice cells at the golden lattice's seeds
(``2019 * 32 + mask``, 2 cores) and compares each cell's trace with
``fixtures/golden_traces.json``: one sha256 per cell over the whole
trace, plus, to name where a changed trace first differs, a short digest
of each phase's cycle and counters and of each of its records.  The
``branch_residue`` cells run no co-scheduled phase, so their trace is
empty.

Regenerate the fixture only when an output change is intended::

    PYTHONPATH=src python tests/test_golden_traces.py > tests/fixtures/golden_traces.json
"""

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

from repro.attacks.coschedule import CoScheduledExecutor
from repro.attacks.scenarios import run_scenario, scenario_names
from repro.core.mitigations import config_for_spec

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_traces.json"

#: Bit i of a lattice mask selects the i-th mitigation.
MITIGATIONS = ("FLUSH", "PART", "MISS", "ARB", "NONSPEC")
MASKS = range(2 ** len(MITIGATIONS))
SEED = 2019
NUM_CORES = 2

#: The fields of a completion record, in the order the trace lists them.
RECORD_FIELDS = (
    "core_id",
    "index",
    "address",
    "issue_cycle",
    "complete_cycle",
    "l1_hit",
    "llc_hit",
    "blocked",
    "label",
)

#: Hex digits kept of each phase's and each record's locating digest.
SHORT = 6


def lattice_spec(mask):
    """The mitigation spec of one lattice point (``BASE`` for none)."""
    members = [name for bit, name in enumerate(MITIGATIONS) if mask & (1 << bit)]
    return "+".join(members) if members else "BASE"


def cell_id(scenario, mask):
    return f"{scenario}/{lattice_spec(mask)}"


def record_fields(record):
    """A completion record as its nine fields by name."""
    return {name: getattr(record, name) for name in RECORD_FIELDS}


@contextmanager
def observe_phases():
    """Record every :meth:`CoScheduledExecutor.run_phase` call of the body.

    Yields the list the phases are appended to, in the order they ran;
    each is a dict of ``records`` (the phase's completion records as
    :func:`record_fields` dicts), ``cycle`` and ``counters``.
    """
    phases = []
    run_phase = CoScheduledExecutor.run_phase

    def observed(executor, traces, **kwargs):
        start = len(executor.completed)
        results = run_phase(executor, traces, **kwargs)
        phases.append(
            {
                "records": [record_fields(record) for record in executor.completed[start:]],
                "cycle": executor.cycle,
                "counters": dict(executor.machine.stats.counters()),
            }
        )
        return results

    with mock.patch.object(CoScheduledExecutor, "run_phase", observed):
        yield phases


def run_traces():
    """``cell id -> observation trace`` over the whole lattice."""
    traces = {}
    for scenario in scenario_names():
        for mask in MASKS:
            with observe_phases() as phases:
                run_scenario(
                    scenario,
                    config_for_spec(lattice_spec(mask)),
                    SEED * len(MASKS) + mask,
                    num_cores=NUM_CORES,
                )
            traces[cell_id(scenario, mask)] = phases
    return traces


def digest(document):
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def locating_digests(phases):
    """Per phase: a short digest of its cycle and counters, then one per record."""
    return [
        {
            "state": digest([phase["cycle"], phase["counters"]])[:SHORT],
            "records": "".join(digest(record)[:SHORT] for record in phase["records"]),
        }
        for phase in phases
    ]


def golden_document(traces):
    """The golden document as the current code produces it."""
    return {
        "cells": {
            cell: {"sha256": digest(phases), "phases": locating_digests(phases)}
            for cell, phases in traces.items()
        }
    }


def first_difference(cell, phases, expected):
    """Where ``phases`` first departs from a cell's golden locating digests."""
    observed = locating_digests(phases)
    for number, (seen, pinned, phase) in enumerate(zip(observed, expected, phases)):
        if seen["records"] != pinned["records"]:
            for index, record in enumerate(phase["records"]):
                start = index * SHORT
                if seen["records"][start:start + SHORT] != pinned["records"][start:start + SHORT]:
                    return f"{cell}: phase {number}, record {index} differs: {record}"
            return (
                f"{cell}: phase {number} appended {len(phase['records'])} records, "
                f"the golden trace {len(pinned['records']) // SHORT}"
            )
        if seen["state"] != pinned["state"]:
            return (
                f"{cell}: phase {number}, same records but the cycle or counters differ: "
                f"cycle {phase['cycle']}, counters {phase['counters']}"
            )
    return f"{cell}: {len(phases)} phases ran, the golden trace has {len(expected)}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traces():
    return run_traces()


class TestGoldenTraces:
    def test_fixture_covers_the_lattice(self, golden):
        expected = sorted(cell_id(scenario, mask) for scenario in scenario_names() for mask in MASKS)
        assert sorted(golden["cells"]) == expected

    def test_every_phase_matches_its_golden_trace(self, golden, traces):
        mismatched = [
            first_difference(cell, phases, golden["cells"][cell]["phases"])
            for cell, phases in traces.items()
            if digest(phases) != golden["cells"][cell]["sha256"]
        ]
        assert not mismatched, f"{len(mismatched)} cells changed:\n" + "\n".join(mismatched[:5])

    def test_the_co_scheduled_scenarios_run_phases(self, traces):
        for cell, phases in traces.items():
            if not cell.startswith("branch_residue/"):
                assert phases and all(phase["records"] for phase in phases), cell


class TestFirstDifference:
    """The mismatch message names the cell, the phase and the record."""

    @staticmethod
    def trace():
        record = dict.fromkeys(RECORD_FIELDS, 0)
        return [
            {"records": [record], "cycle": 10, "counters": {"a": 1}},
            {"records": [record, {**record, "index": 1}], "cycle": 20, "counters": {"a": 2}},
        ]

    def test_a_changed_record_is_named(self):
        pinned = locating_digests(self.trace())
        changed = self.trace()
        changed[1]["records"][1]["complete_cycle"] = 7
        message = first_difference("cell", changed, pinned)
        assert message.startswith("cell: phase 1, record 1 differs:")
        assert "'complete_cycle': 7" in message

    def test_a_changed_counter_is_named(self):
        pinned = locating_digests(self.trace())
        changed = self.trace()
        changed[0]["counters"]["a"] = 5
        assert first_difference("cell", changed, pinned).startswith("cell: phase 0, same records")

    def test_a_missing_record_and_a_missing_phase_are_named(self):
        pinned = locating_digests(self.trace())
        changed = self.trace()
        changed[1]["records"].pop()
        assert "phase 1 appended 1 records, the golden trace 2" in first_difference(
            "cell", changed, pinned
        )
        assert "1 phases ran, the golden trace has 2" in first_difference(
            "cell", self.trace()[:1], pinned
        )


if __name__ == "__main__":
    json.dump(golden_document(run_traces()), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
