"""Simulator: the one place a machine is assembled and a workload is run.

Before this facade existed, every consumer of the timing model — the
evaluation harness, the ablation benchmarks, the examples — repeated the
same two-step dance: build an :class:`~repro.core.processor.MI6Processor`
from a configuration, then call ``run_workload`` on it.  That duplication
made it easy for call sites to drift (different seeds, different warm-up
policy) and hard to change the assembly policy in one place.

:class:`Simulator` decouples machine assembly from workload execution:

* assembly — :meth:`Simulator.build_processor` constructs a fresh
  :class:`MI6Processor` from the held configuration and seed;
* execution — :meth:`Simulator.run` runs one benchmark and returns its
  :class:`~repro.core.processor.WorkloadRun`.

By default every :meth:`run` uses a *fresh* machine, so runs are
independent and reproducible regardless of the order in which they are
issued — the property the experiment engine's serial/parallel equivalence
guarantee rests on.  The engine keeps that property while sharing work:
each of its requests still gets a fresh machine, but in the fast kernel
a machine's warmed hierarchy may be copied from an earlier member of its
run group in the same warm class (:func:`repro.analysis.engine.warm_class`),
which is bit-identical to warming up itself.  Pass
``fresh_machine=False`` to reuse one machine across runs
(warm-hierarchy experiments).

Execution goes through the fast simulator kernel by default: warm-up is
fast-forwarded through the hierarchy's timing accessors (its latencies
are discarded anyway) and the measured interval runs the optimized stage
loop.  Setting ``REPRO_SLOW_PATH=1`` (:mod:`repro.common.fastpath`)
routes both through the original reference implementations instead;
results are bit-identical either way, which ``tests/test_fastpath.py``
enforces.

.. deprecated::
    New code should go through :class:`repro.api.Session`, which runs the
    same simulations through the result store (warm-start, provenance)
    and accepts arbitrary mitigation combinations.  ``Simulator`` remains
    as a thin assembly facade — the purge/property tests still build
    machines through it — but it caches nothing and knows nothing about
    the store.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.config import MI6Config
from repro.core.mitigations import config_for_spec
from repro.core.processor import MI6Processor, WorkloadRun
from repro.core.variants import Variant
from repro.workloads.profiles import WorkloadProfile

#: Seed used throughout the evaluation when none is given (the paper year).
DEFAULT_SEED = 2019


class Simulator:
    """Facade over machine assembly and workload execution."""

    def __init__(self, config: MI6Config, *, seed: int = DEFAULT_SEED) -> None:
        self.config = config
        self.seed = seed
        self._machine: Optional[MI6Processor] = None

    @classmethod
    def for_variant(
        cls,
        variant: Variant,
        base: Optional[MI6Config] = None,
        *,
        seed: int = DEFAULT_SEED,
    ) -> Simulator:
        """Simulator for one of the Section 7 evaluation variants."""
        return cls(config_for_spec(variant, base), seed=seed)

    # ------------------------------------------------------------------
    # Assembly

    def build_processor(self, *, seed: Optional[int] = None) -> MI6Processor:
        """Assemble a fresh machine from the held configuration."""
        return MI6Processor(self.config, seed=self.seed if seed is None else seed)

    # ------------------------------------------------------------------
    # Execution

    def run(
        self,
        benchmark: Union[str, WorkloadProfile],
        *,
        instructions: int = 50_000,
        seed: Optional[int] = None,
        warm_up: bool = True,
        fresh_machine: bool = True,
    ) -> WorkloadRun:
        """Run one benchmark and return its timing.

        Args:
            benchmark: Benchmark name or workload profile.
            instructions: Instructions to commit.
            seed: Per-run seed override (defaults to the simulator seed).
            warm_up: Prime caches/TLBs before the measured interval.
            fresh_machine: Assemble a new machine for this run (default).
                When False, one machine is built lazily and reused across
                runs, accumulating microarchitectural state.
        """
        if fresh_machine:
            processor = self.build_processor(seed=seed)
        else:
            if seed is not None and seed != self.seed:
                # The reused machine was assembled with the simulator
                # seed; honouring a different per-run seed only for the
                # workload generator (but not the machine RNGs) would
                # silently produce numbers from a seed mixture no other
                # path can reproduce.
                raise ValueError(
                    f"per-run seed {seed} conflicts with the reused machine's "
                    f"seed {self.seed}; use fresh_machine=True for per-run "
                    "seed overrides, or construct a Simulator with that seed"
                )
            if self._machine is None:
                self._machine = self.build_processor()
            processor = self._machine
        return processor.run_workload(
            benchmark, instructions=instructions, seed=seed, warm_up=warm_up
        )

    def describe(self) -> str:
        """Human-readable configuration summary (the Figure 4 table)."""
        return self.config.describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(config={self.config.name!r}, seed={self.seed})"
