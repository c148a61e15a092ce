"""``attack-lattice``: every security scenario over the full mitigation lattice.

Why it exists: it is the only workload that exercises the co-scheduled
multi-core machine (``attacks.coschedule``) and the detailed LLC
(``mem.llc_detail``: banked arbiters, MSHRs), and it is also the check
of the paper's security claims.  A pass runs all four scenarios on
every one of the 2^5 combinations of FLUSH, PART, MISS, ARB and
NONSPEC: 32 specs x 4 scenarios = 128 cells on 2 cores, with a
memory-only store.

Each spec runs at its own seed, derived from the workload seed, as one
``ScenarioRequest`` per spec.  A scenario's simulated length depends on
the secrets its seed draws (the contention channel's varies by half), so
a single seed for the whole lattice would make the pass's cost swing
with ``--seed``; 32 seeds average that out.  The host's speed is probed
between the requests of a pass.

Every run checks that the attacks leak on BASE and that no spec
containing FLUSH+PART+MISS+ARB leaks at all.

Layers loaded: session, engine, memory store, the scenario runners and
the detailed LLC.  Layers bypassed: the single-core kernel pipeline of
the sweep, the CLI, the on-disk store, HTTP and the wire codec, and the
serving loops.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

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
    timed_pass,
)
from repro.analysis.engine import EvaluationSettings
from repro.analysis.store import ResultStore
from repro.api.requests import ScenarioRequest
from repro.api.results import ResultEntry
from repro.api.session import Session
from repro.attacks.scenarios import scenario_names
from repro.core.mitigations import as_spec
from repro.obs.trace import tracing

#: Bit i of a lattice point selects the i-th mitigation.
MITIGATIONS = ("FLUSH", "PART", "MISS", "ARB", "NONSPEC")
#: The paper's full MI6 protection: any spec containing these must not leak.
FULL_MI6 = frozenset({"FLUSH", "PART", "MISS", "ARB"})


def lattice_spec(mask: int) -> str:
    """The mitigation spec of one lattice point (``BASE`` for none)."""
    members = [name for bit, name in enumerate(MITIGATIONS) if mask & (1 << bit)]
    return "+".join(members) if members else "BASE"


def spec_seed(seed: int, mask: int) -> int:
    """The scenario seed of one lattice point under workload seed ``seed``."""
    return seed * 2 ** len(MITIGATIONS) + mask


class LatticeBench:
    """Cold lattice passes on fresh memory stores, then warm reruns."""

    name = "attack-lattice"
    work_in_children = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.settings = EvaluationSettings(seed=ctx.seed)
        self.requests = [
            ScenarioRequest(
                scenarios=tuple(scenario_names()),
                variants=(lattice_spec(mask),),
                seeds=(spec_seed(ctx.seed, mask),),
                num_cores=2,
            )
            for mask in ctx.sizes.lattice_masks
        ]

    def prepare(self) -> None:
        """Nothing to prepare: scenarios need no priced kernel."""

    def close(self) -> None:
        """No resources outlive a call."""

    def _pass(self, session: Session, timers: Timers, key: str) -> List[ResultEntry]:
        """One pass over the lattice; returns its entries."""
        results = timed_pass(session, self.requests, timers, key)
        self.ctx.tally.op()
        return [entry for result in results for entry in result.entries]

    def _session(self) -> Session:
        return Session(ResultStore.in_memory(), jobs=1, settings=self.settings)

    def _check(self, entries: Sequence[ResultEntry]) -> str:
        """Check the security claims; returns the outcome digest."""
        tally = self.ctx.tally
        base = [entry for entry in entries if entry.key[1] == "BASE"]
        if base:
            tally.check(
                any(entry.value.leaked for entry in base),
                "attack-lattice: no scenario leaks on BASE",
            )
        for scenario, variant in _leaking_cells(entries):
            tally.check(
                not FULL_MI6 <= set(as_spec(variant).mitigations),
                f"attack-lattice: {scenario} leaks on {variant}",
            )
        return _digest(entries)

    def measure(self, seconds: float) -> Dict[str, float]:
        tally = self.ctx.tally
        current: Dict[str, Any] = {}

        def cold(timers: Timers, key: str) -> None:
            current["session"] = self._session()
            entries = self._pass(current["session"], timers, key)
            observed = self._check(entries)
            if "expected" not in current:
                current["expected"] = observed
                self.ctx.check_digest(self.name, observed)
            tally.check(observed == current["expected"], "attack-lattice: a pass changed outcomes")
            current["entries"] = entries

        def warm(timers: Timers, key: str) -> None:
            again = self._pass(current["session"], timers, key)
            tally.check(
                _digest(again) == current["expected"],
                "attack-lattice: the warm answer differs from the cold one",
            )

        colds, warms = cold_then_warm(seconds, cold, warm, self.ctx.sizes.warm_reruns)
        entries = current["entries"]
        self.ctx.note(
            "attack_cells_per_s", len(entries) / median(colds), "cells/s",
            f"{len(entries)} cells per pass, {len(_leaking_cells(entries))} leaking",
        )
        return {"cold_s": median(colds), "warm_ms": median(warms) * 1000.0}

    def trace(self) -> Dict[str, float]:
        tally = self.ctx.tally
        passes = Timers()
        # Untraced and traced passes alternate (a pass is seconds long);
        # the last traced pass is also the one the layer timers watch.
        for index in range(TRACE_PAIRS - 1):
            self._pass(self._session(), passes, f"untraced-{index}")
            with tracing():
                self._pass(self._session(), passes, f"traced-{index}")
        untraced = self._pass(self._session(), passes, f"untraced-{TRACE_PAIRS - 1}")
        expected = self._check(untraced)
        timers = Timers()
        probe = StoreProbe()
        session = self._session()
        with tracing() as tracer, probe.watch(session.store), timers.wrap(
            engine, "execute_scenario_request", lambda request: request.scenario
        ):
            entries = self._pass(session, passes, f"traced-{TRACE_PAIRS - 1}")
        observed = self._check(entries)
        tally.check(observed == expected, "attack-lattice: traced outcomes differ from untraced")
        self.ctx.check_digest(self.name, observed)
        spans = tracer.spans
        layers: Dict[str, Any] = {
            f"attacks.{scenario}_s": timers.total(scenario) for scenario in scenario_names()
        }
        layers["attacks.cells"] = len(entries)
        layers["attacks.leaks"] = len(_leaking_cells(entries))
        layers.update(engine_layer(spans))
        layers.update(probe.metrics(spans))
        layers["trace.overhead_ratio"] = median(
            [passes.total(f"traced-{index}") for index in range(TRACE_PAIRS)]
        ) / median([passes.total(f"untraced-{index}") for index in range(TRACE_PAIRS)])
        return layers


def _leaking_cells(entries: Sequence[ResultEntry]) -> List[Tuple[str, str]]:
    return [(entry.key[0], entry.key[1]) for entry in entries if entry.value.leaked]


def _digest(entries: Sequence[ResultEntry]) -> str:
    return digest([entry.value.to_dict() for entry in entries])
