"""Golden attack lattice: pinned digests of every scenario outcome.

Each cell runs one security scenario on one point of the 2^5 mitigation
lattice (FLUSH, PART, MISS, ARB, NONSPEC) on a two-core machine, at the
seed perfbench's ``attack-lattice`` workload derives for that point
(``2019 * 32 + mask``), and compares the sha256 of its
``ScenarioOutcome.to_dict()`` document against
``fixtures/golden_lattice.json``.  Any change to the co-scheduled
executor, the detailed LLC's queues, MSHRs and arbiters, the address
scans the attacks build their streams from, or an outcome field shows
up as a digest mismatch that names the cell.

The same pass pins each scenario's exact closing predicate over all 32
points, which is the paper's security argument made checkable:

* ``branch_residue`` is closed iff FLUSH purges the predictor;
* ``prime_probe`` is closed iff PART partitions the LLC sets;
* ``contention`` is closed iff MISS and ARB are both on, because the
  detailed LLC builds the Figure 3 organisation only with both;
* ``spectre`` leaks only on BASE.  It closes under *any* single
  mitigation because ``MI6Config.has_protection_hardware`` turns the
  DRAM-region protection checker on with every switch, so the lattice
  cannot say which mechanism closes it.  Whether the checker should be
  a sixth lattice axis is still an open decision.

Regenerate the fixture only when an output change is intended::

    PYTHONPATH=src python tests/test_golden_lattice.py > tests/fixtures/golden_lattice.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.attacks.scenarios import run_scenario, scenario_names
from repro.core.mitigations import config_for_spec

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_lattice.json"

#: Bit i of a lattice mask selects the i-th mitigation.
MITIGATIONS = ("FLUSH", "PART", "MISS", "ARB", "NONSPEC")
FLUSH, PART, MISS, ARB, NONSPEC = (1 << bit for bit in range(len(MITIGATIONS)))
MASKS = range(2 ** len(MITIGATIONS))
SEED = 2019
NUM_CORES = 2

#: The exact lattice points on which each scenario leaks.
LEAKS_ON = {
    "branch_residue": lambda mask: not mask & FLUSH,
    "prime_probe": lambda mask: not mask & PART,
    "contention": lambda mask: not (mask & MISS and mask & ARB),
    "spectre": lambda mask: mask == 0,
}


def lattice_spec(mask):
    """The mitigation spec of one lattice point (``BASE`` for none)."""
    members = [name for bit, name in enumerate(MITIGATIONS) if mask & (1 << bit)]
    return "+".join(members) if members else "BASE"


def cell_id(scenario, mask):
    return f"{scenario}/{lattice_spec(mask)}"


def run_lattice():
    """``(scenario, mask) -> outcome`` over the whole lattice."""
    return {
        (scenario, mask): run_scenario(
            scenario,
            config_for_spec(lattice_spec(mask)),
            SEED * len(MASKS) + mask,
            num_cores=NUM_CORES,
        )
        for scenario in scenario_names()
        for mask in MASKS
    }


def digest(document):
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def current_digests(outcomes):
    """The golden document as the current code produces it."""
    return {
        "outcomes": {
            cell_id(scenario, mask): digest(outcome.to_dict())
            for (scenario, mask), outcome in outcomes.items()
        }
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def lattice():
    return run_lattice()


class TestGoldenLattice:
    def test_fixture_covers_the_lattice(self, golden):
        expected = sorted(cell_id(scenario, mask) for scenario in scenario_names() for mask in MASKS)
        assert sorted(golden["outcomes"]) == expected
        assert len(expected) == 4 * 32

    def test_outcome_documents_match_golden_digests(self, golden, lattice):
        observed = current_digests(lattice)["outcomes"]
        mismatched = [cell for cell, value in observed.items() if value != golden["outcomes"][cell]]
        assert not mismatched, f"{len(mismatched)} lattice outcomes changed: {mismatched[:5]}"


class TestClosingPredicates:
    @pytest.mark.parametrize("scenario", sorted(LEAKS_ON))
    def test_scenario_leaks_exactly_where_its_predicate_says(self, scenario, lattice):
        wrong = [
            lattice_spec(mask)
            for mask in MASKS
            if lattice[(scenario, mask)].leaked != LEAKS_ON[scenario](mask)
        ]
        assert not wrong, f"{scenario} leaks against its closing predicate on {wrong}"

    def test_every_registered_scenario_has_a_predicate(self):
        assert sorted(LEAKS_ON) == sorted(scenario_names())


if __name__ == "__main__":
    json.dump(current_digests(run_lattice()), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
