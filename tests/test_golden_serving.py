"""Golden serving outputs: pinned digests of every serving document.

Each case runs one serving simulation on a fixed synthetic benchmark ->
cycles table (no kernel runs) and compares the sha256 of its
``to_dict()`` document against ``fixtures/golden_serving.json``.  Any
change to the event loop, the monitor's purge and scrub accounting, the
admission or client plumbing, or an outcome field shows up as a digest
mismatch that names the case.  One churned closed-loop shard also pins
the digest of its simulated-cycle spans, so tracing stays stable too.

Regenerate the fixture only when an output change is intended::

    PYTHONPATH=src python tests/test_golden_serving.py > tests/fixtures/golden_serving.json
"""

import hashlib
import json
import sys
from functools import partial
from itertools import product
from pathlib import Path

import pytest

from repro.core.mitigations import config_for_spec
from repro.fleet import run_fleet_shard
from repro.obs import tracing
from repro.service import run_service, tenant_benchmarks

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_serving.json"

SERVICE_POLICIES = ("fifo", "affinity", "batch")
SERVICE_VARIANTS = ("BASE", "FLUSH", "F+P+M+A")
SERVICE_CHURN = (0, 7)
SERVICE_PROFILES = ("poisson", "bursty", "diurnal")
SERVICE_LOADS = (0.7, 1.3)

SHARD_POLICIES = ("fifo", "affinity")
SHARD_VARIANTS = ("BASE", "F+P+M+A")
SHARD_CHURN = (0, 5)
SHARD_CLIENTS = ("open_loop", "closed_loop")
SHARD_ADMISSIONS = ("drop_on_full", "deadline")
SHARD_WIPES = (0, 64)

#: The shard whose simulated-cycle spans are pinned.
TRACED_SHARD_CASE = "shard/affinity/F+P+M+A/churn5/closed_loop/deadline/wipe64"


def synthetic_cycles(num_tenants):
    """A deterministic benchmark -> cycles table (no kernel runs)."""
    table = {}
    for benchmark in tenant_benchmarks(num_tenants):
        table.setdefault(benchmark, 1_800 + 350 * len(table))
    return table


def digest(document):
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def service_cases():
    """``case id -> thunk`` over the run_service matrix."""
    return {
        f"service/{policy}/{spec}/churn{churn}/{profile}/load{load}": partial(
            run_service,
            config_for_spec(spec),
            policy,
            service_cycles=synthetic_cycles(4),
            seed=2019,
            load=load,
            load_profile=profile,
            num_cores=2,
            num_tenants=4,
            num_requests=40,
            instructions=2_000,
            churn_every=churn,
        )
        for policy, spec, churn, profile, load in product(
            SERVICE_POLICIES, SERVICE_VARIANTS, SERVICE_CHURN, SERVICE_PROFILES, SERVICE_LOADS
        )
    }


def shard_cases():
    """``case id -> thunk`` over the run_fleet_shard matrix."""
    return {
        f"shard/{policy}/{spec}/churn{churn}/{client}/{admission}/wipe{wipe}": partial(
            run_fleet_shard,
            config_for_spec(spec),
            policy,
            service_cycles=synthetic_cycles(5),
            seed=2019,
            shard_index=1,
            tenants=(0, 2, 3),
            num_tenants=5,
            load=1.2,
            load_profile="bursty",
            client=client,
            num_cores=2,
            num_requests=40,
            queue_depth=4,
            admission=admission,
            slo_cycles=7_000,
            think_factor=1.0,
            churn_every=churn,
            dram_wipe_bytes_per_cycle=wipe,
        )
        for policy, spec, churn, client, admission, wipe in product(
            SHARD_POLICIES, SHARD_VARIANTS, SHARD_CHURN, SHARD_CLIENTS, SHARD_ADMISSIONS, SHARD_WIPES
        )
    }


ALL_CASES = {**service_cases(), **shard_cases()}


def traced_shard_digest():
    with tracing() as tracer:
        ALL_CASES[TRACED_SHARD_CASE]()
    return digest([span.to_dict() for span in tracer.sim_spans()])


def current_digests():
    """The golden document as the current code produces it."""
    return {
        "outcomes": {case: digest(run().to_dict()) for case, run in ALL_CASES.items()},
        "sim_spans": {TRACED_SHARD_CASE: traced_shard_digest()},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestGoldenServing:
    def test_fixture_covers_the_matrices(self, golden):
        assert sorted(golden["outcomes"]) == sorted(ALL_CASES)
        assert len(golden["outcomes"]) == 108 + 64

    def test_outcome_documents_match_golden_digests(self, golden):
        outcomes = {case: run() for case, run in ALL_CASES.items()}
        mismatched = [
            case
            for case, outcome in outcomes.items()
            if digest(outcome.to_dict()) != golden["outcomes"][case]
        ]
        assert not mismatched, f"{len(mismatched)} serving outputs changed: {mismatched[:5]}"
        # The corpus must keep exercising every charged mechanism.
        shards = [outcome for case, outcome in outcomes.items() if case.startswith("shard/")]
        services = [o for case, o in outcomes.items() if case.startswith("service/")]
        assert any(shard.dropped_queue_full for shard in shards)
        assert any(shard.rejected_deadline for shard in shards)
        assert any(shard.charged_wipe_cycles for shard in shards)
        assert any(shard.charged_measurement_cycles for shard in shards)
        assert any(service.charged_flush_cycles for service in services)
        assert any(service.charged_purge_cycles for service in services)

    def test_traced_shard_sim_spans_match_golden_digest(self, golden):
        assert traced_shard_digest() == golden["sim_spans"][TRACED_SHARD_CASE]


if __name__ == "__main__":
    json.dump(current_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
