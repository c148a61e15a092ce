"""Golden engine jobs: pinned digests of every key, wire and store byte.

The engine executes five request kinds (run, scenario, service,
fleet-shard, fleet) through one store and one process pool.  This test
pins what that plumbing produces, so a change to how requests are keyed,
shipped to workers, persisted or answered shows up as a digest mismatch
that names the part that moved:

* ``keys`` — the cache keys of a fixed request matrix of every engine
  kind, including the kernel runs pricing the serving requests and the
  shard requests each fleet lowers to on a synthetic cycle table;
* ``wire`` — the ``to_wire()`` document of one request per API kind;
* ``sessions`` — one small cold-then-warm ``Session`` pass per API kind
  on a disk store: every ``result_to_wire`` envelope (without its wall
  time), the entry origins, the store's miss/disk-hit/memory-hit deltas,
  every store file's name and bytes, the simulated-cycle spans, and the
  shape of the engine and store wall spans (names and arguments, never
  times).

The passes run at ``jobs=1``; a second pass at ``jobs=2`` must reproduce
every digest except the wall-span shape (the dispatch span names its
worker count).

Regenerate the fixture only when a byte change is intended::

    PYTHONPATH=src python tests/test_golden_jobs.py > tests/fixtures/golden_jobs.json
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from repro.analysis.engine import (
    EvaluationSettings,
    FleetRunRequest,
    ScenarioRequest as EngineScenarioRequest,
    ServiceRunRequest,
    evaluation_config,
    request_for,
)
from repro.analysis.store import ResultStore
from repro.api import (
    FleetRequest,
    ScenarioRequest,
    ServiceRequest,
    Session,
    SweepRequest,
    WorkloadRequest,
    result_to_wire,
)
from repro.core.mitigations import config_for_spec
from repro.obs import tracing
from repro.obs.trace import WALL_CATEGORY
from repro.service import tenant_benchmarks

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_jobs.json"

#: Settings every session pass resolves against (never the environment).
SETTINGS = EvaluationSettings(instructions=2_000, seed=2019)


def digest(document):
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def synthetic_cycles(num_tenants):
    """A deterministic benchmark -> cycles table (no kernel runs)."""
    table = {}
    for benchmark in tenant_benchmarks(num_tenants):
        table.setdefault(benchmark, 1_700 + 410 * len(table))
    return table


# ----------------------------------------------------------------------
# Cache keys


def run_requests():
    return [
        replace(
            request_for(variant, benchmark, EvaluationSettings(instructions=3_000, seed=seed)),
            warm_up=warm_up,
        )
        for variant, benchmark, seed, warm_up in product(
            ("BASE", "FLUSH+MISS", "F+P+M+A"), ("gcc", "mcf"), (1, 2019), (True, False)
        )
    ]


def scenario_requests():
    return [
        EngineScenarioRequest(scenario, config_for_spec(variant), seed, num_cores=cores)
        for scenario, variant, seed, cores in product(
            ("prime_probe", "spectre", "contention", "branch_residue"),
            ("BASE", "PART", "F+P+M+A"),
            (3, 2019),
            (2, 4),
        )
    ]


def service_requests():
    # Load 1 stays an int: a key hashes the number as it was given.
    return [
        ServiceRunRequest(
            policy=policy,
            config=evaluation_config(variant, 3_000),
            seed=seed,
            load=load,
            load_profile=profile,
            num_cores=3,
            num_tenants=3,
            num_requests=50,
            instructions=3_000,
            churn_every=churn,
        )
        for policy, variant, load, seed, churn, profile in product(
            ("fifo", "affinity", "batch"),
            ("BASE", "F+P+M+A"),
            (0.7, 1),
            (1, 2019),
            (0, 7),
            ("poisson", "bursty"),
        )
    ]


def pricing_requests():
    """The distinct kernel runs pricing :func:`service_requests`."""
    unique = {}
    for request in service_requests():
        for workload in request.workload_requests():
            unique.setdefault(workload.cache_key(), workload)
    return list(unique.values())


def fleet_requests():
    return [
        FleetRunRequest(
            policy="affinity",
            config=evaluation_config(variant, 2_500),
            seed=2019,
            router=router,
            admission=admission,
            client=client,
            load=load,
            load_profile="bursty",
            num_shards=3,
            shard_cores=2,
            num_tenants=7,
            num_requests=90,
            queue_depth=6,
            slo_factor=3.5,
            think_factor=0.5,
            instructions=2_500,
            churn_every=churn,
            dram_wipe_bytes_per_cycle=wipe,
            measurement_cycles_per_page=12,
        )
        for variant, load, router, admission, client, (churn, wipe) in product(
            ("BASE", "F+P+M+A"),
            (0.6, 1.2),
            ("consistent_hash", "purge_cost_aware"),
            ("drop_on_full", "deadline"),
            ("open_loop", "closed_loop"),
            ((0, 0), (5, 64)),
        )
    ]


def fleet_shard_requests():
    """Every shard request the fleets lower to on a synthetic table."""
    cycles = synthetic_cycles(7)
    return [
        shard
        for fleet in fleet_requests()
        for shard in fleet.shard_plan(cycles).shard_requests
    ]


KEY_MATRICES = {
    "run": run_requests,
    "scenario": scenario_requests,
    "service": service_requests,
    "pricing": pricing_requests,
    "fleet": fleet_requests,
    "fleet-shard": fleet_shard_requests,
}


def key_digests():
    """``matrix -> {count, digest}`` over each matrix's ordered keys."""
    digests = {}
    for name, build in KEY_MATRICES.items():
        keys = [request.cache_key() for request in build()]
        digests[name] = {"count": len(keys), "digest": digest(keys)}
    return digests


# ----------------------------------------------------------------------
# Wire documents and session passes

#: One small request per API kind.  Serving and sweep requests repeat a
#: seed so the duplicate-key paths (one execution, shared results) are
#: pinned too.
SESSION_REQUESTS = {
    "workload": WorkloadRequest(variant="MISS+FLUSH", benchmark="mcf", instructions=2_000, seed=7),
    "sweep": SweepRequest(
        variants=("BASE", "ARB"), benchmarks=("hmmer",), seeds=(2019, 2019), instructions=2_000
    ),
    "scenario": ScenarioRequest(
        scenarios=("branch_residue",), variants=("BASE", "F+P+M+A"), seeds=(3,)
    ),
    "service": ServiceRequest(
        policies=("fifo",),
        variants=("F+P+M+A",),
        loads=(0.9,),
        seeds=(5, 5),
        num_cores=2,
        num_tenants=3,
        requests=20,
        instructions=2_000,
        churn_every=4,
    ),
    "fleet": FleetRequest(
        variants=("F+P+M+A",),
        loads=(0.8,),
        seeds=(11, 11),
        admission="deadline",
        num_shards=2,
        shard_cores=1,
        num_tenants=3,
        requests=30,
        instructions=2_000,
        churn_every=5,
    ),
}


def wire_digests():
    return {kind: digest(request.to_wire()) for kind, request in SESSION_REQUESTS.items()}


def _envelope(result):
    document = result_to_wire(result)
    del document["wall_time_seconds"]
    return document


def _counters(store):
    return [store.misses, store.disk_hits, store.memory_hits]


def _wall_shape(tracer):
    return [
        [span.track, span.name, sorted(span.args)]
        for span in tracer.spans
        if span.category == WALL_CATEGORY
    ]


def _step(session, request):
    """One traced run: its envelope, origins, counter deltas and spans."""
    before = _counters(session.store)
    with tracing() as tracer:
        result = session.run(request)
    after = _counters(session.store)
    return {
        "envelope": digest(_envelope(result)),
        "origins": [entry.provenance.origin for entry in result],
        "counters": [now - then for now, then in zip(after, before)],
        "sim_spans": digest([span.to_dict() for span in tracer.sim_spans()]),
        "wall_spans": digest(_wall_shape(tracer)),
    }


def session_pass(request, jobs):
    """Cold run, warm run from disk, then a rerun served from memory."""
    with tempfile.TemporaryDirectory() as directory:
        cold = Session(ResultStore(directory), jobs=jobs, settings=SETTINGS)
        warm = Session(ResultStore(directory), jobs=jobs, settings=SETTINGS)
        steps = {
            "cold": _step(cold, request),
            "warm": _step(warm, request),
            "memory": _step(warm, request),
        }
        files = sorted(Path(directory).iterdir())
        steps["files"] = {
            "count": len(files),
            "digest": digest(
                [[path.name, hashlib.sha256(path.read_bytes()).hexdigest()] for path in files]
            ),
        }
    return steps


def session_digests(jobs=1):
    return {kind: session_pass(request, jobs) for kind, request in SESSION_REQUESTS.items()}


def current_digests():
    """The golden document as the current code produces it."""
    return {"keys": key_digests(), "wire": wire_digests(), "sessions": session_digests()}


def without_wall_spans(passes):
    return {
        kind: {
            step: (
                {name: value for name, value in fields.items() if name != "wall_spans"}
                if step != "files"
                else fields
            )
            for step, fields in steps.items()
        }
        for kind, steps in passes.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestGoldenJobs:
    def test_cache_keys_match_golden_digests(self, golden):
        current = key_digests()
        assert sorted(current) == sorted(golden["keys"])
        moved = [name for name in current if current[name] != golden["keys"][name]]
        assert not moved, f"cache keys moved for: {moved}"
        assert sum(entry["count"] for entry in current.values()) >= 400

    def test_wire_documents_match_golden_digests(self, golden):
        assert wire_digests() == golden["wire"]

    @pytest.mark.parametrize("kind", sorted(SESSION_REQUESTS))
    def test_session_pass_matches_golden(self, golden, kind):
        observed = session_pass(SESSION_REQUESTS[kind], jobs=1)
        expected = golden["sessions"][kind]
        moved = [step for step in expected if observed[step] != expected[step]]
        assert not moved, f"{kind}: {moved} changed"
        assert set(observed["cold"]["origins"]) == {"cold"}
        assert set(observed["warm"]["origins"]) == {"warm"}

    def test_parallel_session_passes_match_golden(self, golden):
        observed = without_wall_spans(session_digests(jobs=2))
        assert observed == without_wall_spans(golden["sessions"])


if __name__ == "__main__":
    json.dump(current_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
