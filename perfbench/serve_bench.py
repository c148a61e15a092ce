"""``service`` and ``fleet``: the enclave-serving loops with the kernel priced.

Why they exist: serving simulations never run workload instructions;
each request's cost comes from a kernel run priced once.  The tenant
kernel prices are resolved during set-up and put into a fresh in-memory
store before each timed pass, so these workloads load every serving
layer and none of the kernel.

* ``service`` runs :class:`ServiceRequest`s: fifo and affinity
  scheduling, BASE against F+P+M+A, two loads, no tenant churn.  FIFO
  pays a monitor schedule and a purge on almost every request, so this
  workload is bound by purges and never scrubs the LLC.
* ``fleet`` runs :class:`FleetRequest`s: consistent-hash routing,
  deadline admission, closed-loop clients, BASE against F+P+M+A, loads
  0.6/1.0/1.4 and a tenant churn every 20 requests.  Churn makes it
  bound by LLC scrubs.

A pass sends one request per sub-seed derived from the workload seed.
How long a serving simulation runs depends on the arrivals and tenants
its seed draws (by a fifth between seeds), so one seed per pass would
make the pass's cost swing with ``--seed``; several average that out,
and the host's speed is probed between them.

Kept as two workloads so that a change to one loop shows on its own
metric while the other is the control: a faster scrub should move
``fleet`` and leave ``service`` flat.  Layers loaded: session, engine,
memory store, the service or fleet event loop, the router and the
security-monitor cost model.  Layers bypassed: the kernel, the CLI, the
on-disk store, HTTP and the wire codec, and the attacks.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

import repro.analysis.engine as engine
from harness import (
    Context,
    StoreProbe,
    TRACE_PAIRS,
    Timers,
    cold_then_warm,
    digest,
    engine_layer,
    median,
    sub_seeds,
    timed_pass,
)
from repro.analysis.engine import EvaluationSettings, FleetRunRequest, execute_request
from repro.analysis.store import ResultStore
from repro.api.requests import FleetRequest, ServiceRequest
from repro.api.results import Result
from repro.api.session import Session
from repro.obs.trace import tracing

#: The paper's insecure baseline against the full MI6 machine.
VARIANTS = ("BASE", "F+P+M+A")


class _ServeBench:
    """Shared shape: price once, then timed passes on fresh stores."""

    name = ""
    work_in_children = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.settings = EvaluationSettings(seed=ctx.seed)
        self.requests = [
            self._request(seed) for seed in sub_seeds(ctx.seed, ctx.sizes.serve_seeds)
        ]
        self.prices: Dict[str, Any] = {}
        self._expected: Optional[str] = None

    def _request(self, seed: int) -> Any:
        raise NotImplementedError

    def _outcomes(self, results: List[Result]) -> List[Any]:
        raise NotImplementedError

    def _layer_timers(self, timers: Timers) -> Any:
        raise NotImplementedError

    def _layers(self, timers: Timers, outcomes: List[Any]) -> Dict[str, float]:
        raise NotImplementedError

    def _note_throughput(self, outcomes: List[Any], seconds: float) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Price every tenant kernel the requests need, once."""
        for request in self.requests:
            for engine_request in request.resolve(self.settings).requests():
                for workload in engine_request.workload_requests():
                    key = workload.cache_key()
                    if key not in self.prices:
                        self.prices[key] = execute_request(workload)

    def close(self) -> None:
        """No resources outlive a call."""

    def _session(self) -> Session:
        store = ResultStore.in_memory()
        for key, run in self.prices.items():
            store.put(key, run)
        return Session(store, jobs=1, settings=self.settings)

    def _pass(self, session: Session, timers: Timers, key: str) -> List[Result]:
        results = timed_pass(session, self.requests, timers, key)
        self.ctx.tally.op()
        return results

    def _digest(self, results: List[Result]) -> str:
        return digest([outcome.to_dict() for outcome in self._outcomes(results)])

    def _check(self, results: List[Result], origin: str) -> None:
        """Every pass and rerun answers the first pass's outputs."""
        tally = self.ctx.tally
        observed = self._digest(results)
        if self._expected is None:
            self._expected = observed
            self.ctx.check_digest(self.name, observed)
        else:
            tally.check(observed == self._expected, f"{self.name}: a {origin} answer differs")
        tally.check(
            all(
                entry.provenance.origin == origin
                for result in results
                for entry in result.entries
            ),
            f"{self.name}: expected every entry to be {origin}",
        )

    def measure(self, seconds: float) -> Dict[str, float]:
        current: Dict[str, Any] = {}

        def cold(timers: Timers, key: str) -> None:
            current["session"] = self._session()
            current["results"] = self._pass(current["session"], timers, key)
            self._check(current["results"], "cold")

        def warm(timers: Timers, key: str) -> None:
            self._check(self._pass(current["session"], timers, key), "warm")

        colds, warms = cold_then_warm(seconds, cold, warm, self.ctx.sizes.warm_reruns)
        self._note_throughput(self._outcomes(current["results"]), median(colds))
        return {"cold_s": median(colds), "warm_ms": median(warms) * 1000.0}

    def trace(self) -> Dict[str, float]:
        tally = self.ctx.tally
        passes = Timers()
        # Untraced and traced passes alternate, so that drift in the
        # machine's speed lands on both sides of the overhead ratio.
        for index in range(TRACE_PAIRS - 1):
            self._pass(self._session(), passes, f"untraced-{index}")
            with tracing():
                self._pass(self._session(), passes, f"traced-{index}")
        reference = self._pass(self._session(), passes, f"untraced-{TRACE_PAIRS - 1}")
        expected = self._digest(reference)
        # The last traced pass is also the one the layer timers watch.
        timers = Timers()
        probe = StoreProbe()
        session = self._session()
        with tracing() as tracer, probe.watch(session.store), self._layer_timers(timers):
            results = self._pass(session, passes, f"traced-{TRACE_PAIRS - 1}")
        observed = self._digest(results)
        tally.check(observed == expected, f"{self.name}: traced outputs differ from untraced")
        self.ctx.check_digest(self.name, observed)
        spans = tracer.spans
        layers = self._layers(timers, self._outcomes(results))
        layers.update(engine_layer(spans))
        layers.update(probe.metrics(spans))
        layers["trace.overhead_ratio"] = median(
            [passes.total(f"traced-{index}") for index in range(TRACE_PAIRS)]
        ) / median([passes.total(f"untraced-{index}") for index in range(TRACE_PAIRS)])
        return layers


class ServiceBench(_ServeBench):
    """Service passes: one ServiceRequest per sub-seed (purge-bound, no churn)."""

    name = "service"

    def _request(self, seed: int) -> ServiceRequest:
        return ServiceRequest(
            policies=("fifo", "affinity"),
            variants=VARIANTS,
            loads=(0.7, 1.0),
            seeds=(seed,),
            requests=self.ctx.sizes.service_requests,
        )

    def _outcomes(self, results: List[Result]) -> List[Any]:
        return [outcome for result in results for outcome in result.service_outcomes]

    def _layer_timers(self, timers: Timers) -> Any:
        return timers.wrap(engine, "execute_service_request", lambda *a: "service.loop")

    def _layers(self, timers: Timers, outcomes: List[Any]) -> Dict[str, float]:
        requests = sum(outcome.requests for outcome in outcomes)
        loop = timers.total("service.loop")
        return {
            "service.loop_s": loop,
            "service.requests": requests,
            "service.purges": sum(outcome.purge_count for outcome in outcomes),
            "service.us_per_request": 1e6 * loop / max(1, requests),
        }

    def _note_throughput(self, outcomes: List[Any], seconds: float) -> None:
        served = sum(outcome.requests for outcome in outcomes)
        self.ctx.note(
            "service_req_per_s", served / seconds, "req/s",
            f"{served} simulated requests per pass",
        )


class FleetBench(_ServeBench):
    """Fleet passes: one churned FleetRequest per sub-seed (scrub-bound)."""

    name = "fleet"

    def _request(self, seed: int) -> FleetRequest:
        return FleetRequest(
            variants=VARIANTS,
            loads=(0.6, 1.0, 1.4),
            seeds=(seed,),
            router="consistent_hash",
            admission="deadline",
            client="closed_loop",
            churn_every=20,
            requests=self.ctx.sizes.fleet_requests,
        )

    def _outcomes(self, results: List[Result]) -> List[Any]:
        return [outcome for result in results for outcome in result.fleet_outcomes]

    @contextmanager
    def _layer_timers(self, timers: Timers) -> Iterator[None]:
        with timers.wrap(
            FleetRunRequest, "shard_plan", lambda *a: "fleet.route"
        ), timers.wrap(engine, "execute_fleet_shard_request", lambda *a: "fleet.shard"):
            yield

    def _layers(self, timers: Timers, outcomes: List[Any]) -> Dict[str, float]:
        offered = sum(outcome.offered for outcome in outcomes)
        route, shard = timers.total("fleet.route"), timers.total("fleet.shard")
        return {
            "fleet.route_s": route,
            "fleet.shard_s": shard,
            "fleet.offered": offered,
            "fleet.completed": sum(outcome.completed for outcome in outcomes),
            "fleet.dropped": sum(
                outcome.dropped_queue_full + outcome.rejected_deadline
                for outcome in outcomes
            ),
            "fleet.scrub_cycles": sum(
                row["charged_scrub_cycles"]
                for outcome in outcomes
                for row in outcome.per_shard
            ),
            "fleet.us_per_request": 1e6 * (route + shard) / max(1, offered),
        }

    def _note_throughput(self, outcomes: List[Any], seconds: float) -> None:
        offered = sum(outcome.offered for outcome in outcomes)
        self.ctx.note(
            "fleet_req_per_s", offered / seconds, "req/s",
            f"{offered} offered requests per pass",
        )
