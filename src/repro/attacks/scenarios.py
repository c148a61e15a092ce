"""First-class security scenarios on the shared multi-core machine.

Each scenario re-stages one of the attack experiments of Section 6 as a
*co-scheduled* experiment: attacker and victim protection domains run on
cores of one shared :class:`~repro.os_model.machine.Machine` (assigned by
a :class:`~repro.attacks.placement.Placement`), and every LLC-bound
access is timed cycle-by-cycle through the :mod:`repro.mem.llc_detail`
pipeline by the :class:`~repro.attacks.coschedule.CoScheduledExecutor`.
The attacker decodes exclusively from latencies it can measure itself;
the functional ground truth is only used to score how much actually
leaked.

Scenarios are pure functions of ``(machine configuration, seed,
num_cores, placement)``, so the experiment engine can treat them exactly
like benchmark runs: sweep them across variants × seeds × machine sizes
in parallel and persist their outcomes in the result store
(:mod:`repro.analysis.engine`).  The scenario seed reaches the machine's
shared LLC/hierarchy RNGs (not just the secret draws), and machines
larger than the classic attacker+victim pair host *bystander* domains on
the remaining cores — idle by default, but their queues still occupy
round-robin arbiter slots, and the parallel scenarios give them light
background traffic so the channel is measured on a loaded machine.

The registry maps scenario names to runners:

=================  ====================================================
``prime_probe``    LLC prime+probe across cores; closed by PART's
                   set-partitioned index function.
``spectre``        Cross-domain speculative read + cache transmit;
                   closed by the MI6 DRAM-region protection checker.
``contention``     MSHR/arbiter covert channel (sender floods, receiver
                   times its own requests); closed by the MISS + ARB
                   LLC organisation (Figure 3).
``branch_residue`` Branch-predictor residue across a context switch,
                   time-sliced on one core of the shared machine;
                   closed by FLUSH's purge on the transition.
=================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.core.config import MI6Config
from repro.core.serialization import OutcomeDocument
from repro.attacks.addressing import addresses_for_set, distinct_sets
from repro.attacks.coschedule import CoScheduledExecutor, MemOp, latencies_by_label
from repro.attacks.placement import (
    ATTACKER_REGIONS,
    VICTIM_REGIONS,
    Placement,
    default_placement,
)
from repro.os_model.machine import Machine

#: PC of the branch whose direction the branch-residue victim leaks.
RESIDUE_PC = 0x0040_1234


@dataclass(frozen=True)
class ScenarioOutcome(OutcomeDocument):
    """Result of one scenario run (JSON-serialisable for the store).

    Attributes:
        scenario: Registry name of the scenario.
        variant: Machine configuration name the scenario ran on.
        seed: Seed that drew the secrets and seeded the machine RNGs.
        leaked_bits: Secret bits the attacker recovered correctly.
        total_bits: Secret bits the victim put at stake.
        cycles: Cycles consumed by the shared timing pipeline.
        num_cores: Cores of the co-scheduled machine (2 = the classic
            attacker+victim pair; more adds bystander domains).
        details: Scenario-specific diagnostic values (JSON scalars).
    """

    scenario: str
    variant: str
    seed: int
    leaked_bits: int
    total_bits: int
    cycles: int
    num_cores: int = 2
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def leaked(self) -> bool:
        """True if the attacker learned anything at all."""
        return self.leaked_bits > 0


# ----------------------------------------------------------------------
# Machine assembly shared by the scenarios


def build_scenario_machine(
    config: MI6Config,
    *,
    seed: Optional[int] = None,
    num_cores: int = 2,
    placement: Optional[Placement] = None,
) -> Machine:
    """Shared machine with attacker, victim, and bystander domains installed.

    On an MI6 build each core's DRAM-region bitvector enforces its
    domain's regions (so cross-domain accesses are suppressed); on the
    insecure baseline the bitvectors exist but are not wired into the
    access path — exactly the hardware difference under evaluation.

    Args:
        config: Machine configuration (any mitigation combination).
        seed: Machine RNG seed (shared LLC replacement, per-core
            hierarchy streams).  ``None`` keeps the historical default.
        num_cores: Machine size; cores beyond the attacker/victim pair
            become bystander domains per the placement policy.  Secure
            (MISS+ARB) machines are bounded by the Section 5.2 MSHR
            sizing rule: at most ``config.dram.max_outstanding // 2``
            cores (12 for the default configuration) — beyond that the
            detailed timing model raises ``ConfigurationError``.
        placement: Explicit role→core assignment; defaults to
            :func:`~repro.attacks.placement.default_placement`.
    """
    placement = placement or default_placement(num_cores)
    machine = (
        Machine(config=config, num_cores=placement.num_cores, seed=seed)
        if seed is not None
        else Machine(config=config, num_cores=placement.num_cores)
    )
    enforce = config.has_protection_hardware
    assignments = [
        (placement.attacker_core, ATTACKER_REGIONS),
        (placement.victim_core, VICTIM_REGIONS),
    ]
    num_regions = config.address_map.num_regions
    assignments += [
        (core_id, placement.bystander_regions(core_id, num_regions))
        for core_id in placement.bystander_cores
    ]
    for core_id, regions in assignments:
        complex_ = machine.core(core_id)
        complex_.region_bitvector.set_regions(set(regions))
        allowed = complex_.region_bitvector.is_allowed if enforce else None
        complex_.hierarchy.install_context(None, allowed, core_id)
    return machine


def _hit_threshold(machine: Machine) -> int:
    """Latency above which a timed probe is decoded as an LLC miss."""
    return max(8, machine.config.dram.latency_cycles // 2)


def _bystander_ops(
    machine: Machine, placement: Placement, *, count: int = 8, issue_gap: int = 50
) -> Dict[int, List[MemOp]]:
    """Light background streams for every bystander core.

    Each bystander walks ``count`` lines of its own region at a relaxed
    pace — enough to keep its queues live in the arbiter rotation without
    turning the background load into a second flooding sender.
    """
    num_regions = machine.config.address_map.num_regions
    streams: Dict[int, List[MemOp]] = {}
    # Offset into the region so that, under the *baseline* index
    # function (where every region base aliases to set 0), bystander
    # lines land well away from the low sets the attacker monitors.
    offset = 128 * 64
    for core_id in placement.bystander_cores:
        region = min(placement.bystander_regions(core_id, num_regions))
        base = machine.address_map.region_base(region) + offset
        streams[core_id] = [
            MemOp(base + index * 64, issue_gap=issue_gap, label="bystander")
            for index in range(count)
        ]
    return streams


# ----------------------------------------------------------------------
# prime_probe


def run_prime_probe(
    config: MI6Config,
    seed: int,
    *,
    trials: int = 3,
    num_cores: int = 2,
    placement: Optional[Placement] = None,
) -> ScenarioOutcome:
    """Cross-core prime+probe through the shared LLC.

    Per trial: the attacker primes a handful of monitored sets with its
    own lines (flush+access idiom, so the probe measures LLC state), the
    victim makes secret-dependent accesses on the other core, and the
    attacker times one pass over its primed lines — a slow probe means
    the victim evicted that set.
    """
    placement = placement or default_placement(num_cores)
    attacker_core, victim_core = placement.attacker_core, placement.victim_core
    rng = DeterministicRng(seed).fork("prime_probe")
    leaked = 0
    cycles = 0
    last_observed: List[int] = []
    monitored_count = 4
    for _trial in range(trials):
        machine = build_scenario_machine(config, seed=seed, placement=placement)
        executor = CoScheduledExecutor(machine)
        llc = machine.llc
        ways = llc.config.geometry.ways
        attacker_base = machine.address_map.region_base(min(ATTACKER_REGIONS))
        victim_base = machine.address_map.region_base(min(VICTIM_REGIONS))
        monitored = distinct_sets(llc, attacker_base, monitored_count, required=True)
        secret = rng.integer(0, monitored_count - 1)
        target_set = monitored[secret]

        prime_ops = [
            MemOp(address, l1_bypass=True, label=f"prime:{set_index}")
            for set_index in monitored
            for address in addresses_for_set(llc, attacker_base, set_index, ways)
        ]
        executor.run_phase({attacker_core: prime_ops})

        victim_ops = [
            MemOp(address, label="victim")
            for address in addresses_for_set(llc, victim_base, target_set, ways + 2)
        ]
        if not victim_ops:
            # Set partitioning confines the victim to its own sets; it
            # still executes, touching its private working set.
            victim_ops = [
                MemOp(victim_base + index * 64, label="victim") for index in range(ways + 2)
            ]
        executor.run_phase({victim_core: victim_ops, **_bystander_ops(machine, placement)})

        # The timed pass is serialised (a real attacker fences between
        # probes): back-to-back probes queue behind each other in the
        # LLC pipeline, and on large machines that queueing alone pushes
        # late hits past the miss threshold.
        probe_gap = 4 * placement.num_cores + 8
        probe_ops = [
            MemOp(address, issue_gap=probe_gap, l1_bypass=True, label=f"probe:{set_index}")
            for set_index in monitored
            for address in addresses_for_set(llc, attacker_base, set_index, 2)
        ]
        probe = executor.run_phase({attacker_core: probe_ops})

        threshold = _hit_threshold(machine)
        observed = []
        for label, latencies in latencies_by_label(probe[attacker_core]).items():
            set_index = int(label.split(":", 1)[1])
            if max(latencies) > threshold:
                observed.append(set_index)
        if target_set in observed:
            leaked += 1
        cycles += executor.cycle
        last_observed = sorted(observed)
    return ScenarioOutcome(
        scenario="prime_probe",
        variant=config.name,
        seed=seed,
        leaked_bits=leaked,
        total_bits=trials,
        cycles=cycles,
        num_cores=placement.num_cores,
        details={"monitored_sets": monitored_count, "observed_last_trial": last_observed},
    )


# ----------------------------------------------------------------------
# spectre


def run_spectre(
    config: MI6Config,
    seed: int,
    *,
    trials: int = 2,
    num_cores: int = 2,
    placement: Optional[Placement] = None,
) -> ScenarioOutcome:
    """Cross-domain speculative read + LLC transmit, co-resident victim.

    The attacker's wrong-path gadget dereferences an enclave address
    while the enclave runs on the other core; on the baseline the access
    is emitted and the secret-dependent transmit line lands in the
    shared LLC, where a timed probe recovers the nibble.  On MI6 the
    region bitvector suppresses the speculative access (Section 5.3),
    so the probe finds nothing.
    """
    placement = placement or default_placement(num_cores)
    attacker_core, victim_core = placement.attacker_core, placement.victim_core
    rng = DeterministicRng(seed).fork("spectre")
    probe_stride = 4096
    leaked = 0
    cycles = 0
    emitted_last = False
    recovered_last: int | None = None
    for _trial in range(trials):
        machine = build_scenario_machine(config, seed=seed, placement=placement)
        executor = CoScheduledExecutor(machine)
        secret = rng.integer(0, 15)
        enclave_base = machine.address_map.region_base(10)
        probe_base = machine.address_map.region_base(40)
        enclave_secret_address = enclave_base + 0x40

        # The enclave victim runs its own working set co-resident with
        # the gadget; its traffic shares the timing pipeline but not the
        # attacker's sets (1 line per set — no eviction pressure).
        victim_ops = [MemOp(enclave_base + index * 64, label="victim") for index in range(16)]

        gadget = executor.run_phase(
            {
                attacker_core: [MemOp(enclave_secret_address, label="gadget")],
                victim_core: victim_ops,
                **_bystander_ops(machine, placement),
            }
        )
        emitted = not gadget[attacker_core][0].blocked
        if emitted:
            transmit = MemOp(probe_base + secret * probe_stride, label="transmit")
            executor.run_phase({attacker_core: [transmit]})

        probe_ops = [
            MemOp(probe_base + candidate * probe_stride, l1_bypass=True, label=f"cand:{candidate}")
            for candidate in range(16)
        ]
        probe = executor.run_phase({attacker_core: probe_ops})
        threshold = _hit_threshold(machine)
        recovered = None
        for access in sorted(probe[attacker_core], key=lambda record: record.index):
            if access.latency <= threshold:
                recovered = int(access.label.split(":", 1)[1])
                break
        if recovered == secret:
            leaked += 4
        cycles += executor.cycle
        emitted_last = emitted
        recovered_last = recovered
    return ScenarioOutcome(
        scenario="spectre",
        variant=config.name,
        seed=seed,
        leaked_bits=leaked,
        total_bits=4 * trials,
        cycles=cycles,
        num_cores=placement.num_cores,
        details={
            "speculative_access_emitted": emitted_last,
            "recovered_last_trial": recovered_last,
        },
    )


# ----------------------------------------------------------------------
# contention


def run_contention(
    config: MI6Config,
    seed: int,
    *,
    bits: int = 6,
    slot_cycles: int = 600,
    num_cores: int = 2,
    placement: Optional[Placement] = None,
) -> ScenarioOutcome:
    """MSHR/arbiter covert channel between co-resident cores.

    The sender (victim core) modulates its miss traffic — flood during a
    ``1`` slot, idle during a ``0`` — and the receiver (attacker core)
    polls a small warm line set with L1-bypassing loads, timing each
    poll.  On the baseline LLC the shared MSHR pool and the
    fixed-priority entry mux couple the two cores, so the receiver's
    per-slot mean latency decodes the message; the MI6 organisation
    (per-core MSHR partitions + round-robin arbiter + per-core response
    queues) makes the receiver's timing sender-independent.
    """
    placement = placement or default_placement(num_cores)
    attacker_core, victim_core = placement.attacker_core, placement.victim_core
    rng = DeterministicRng(seed).fork("contention")
    message = [1 if rng.chance(0.5) else 0 for _ in range(bits)]
    if not any(message):
        message[rng.integer(0, bits - 1)] = 1
    if all(message):
        # The decoder needs at least one quiet data slot for a latency
        # baseline; an all-ones draw would read as a flat (silent)
        # channel even on the insecure machine.
        message[rng.integer(0, bits - 1)] = 0

    machine = build_scenario_machine(config, seed=seed, placement=placement)
    executor = CoScheduledExecutor(
        machine, max_outstanding={attacker_core: 4, victim_core: 24}
    )
    attacker_base = machine.address_map.region_base(min(ATTACKER_REGIONS))
    victim_base = machine.address_map.region_base(min(VICTIM_REGIONS))

    receiver_period = 40
    polls_per_slot = slot_cycles // receiver_period
    # Leading quiet slots warm the receiver's line set.  On machines
    # with small per-core MSHR partitions the eight cold misses
    # serialise, so the warm-up must scale with the worst-case chain of
    # DRAM round-trips rather than assume one slot is enough.
    warm_cycles = 8 * (machine.config.dram.latency_cycles + 2 * receiver_period)
    warm_slots = 1 + warm_cycles // slot_cycles
    padded = [0] * warm_slots + message
    receiver_ops = [
        MemOp(
            attacker_base + (poll % 8) * 64,
            issue_gap=receiver_period,
            l1_bypass=True,
            label="poll",
        )
        for poll in range(polls_per_slot * len(padded))
    ]

    sender_gap = 10
    sender_ops: List[MemOp] = []
    fresh_line = 0
    gap_debt = 0  # cycles of idle slots to charge to the next op
    for slot, bit in enumerate(padded):
        if not bit:
            gap_debt += slot_cycles
            continue
        for burst in range(slot_cycles // sender_gap):
            fresh_line += 1
            sender_ops.append(
                MemOp(
                    victim_base + fresh_line * 64,
                    is_write=True,
                    issue_gap=(sender_gap + gap_debt) if burst == 0 else sender_gap,
                    label=f"send:{slot}",
                )
            )
            gap_debt = 0

    results = executor.run_phase(
        {
            attacker_core: receiver_ops,
            victim_core: sender_ops,
            **_bystander_ops(machine, placement, issue_gap=receiver_period * 4),
        },
        max_cycles=slot_cycles * (len(padded) + 4) + 100_000,
    )
    # The receiver timestamps its own polls: each sample is attributed to
    # the bit slot it actually issued in, so cap-induced slips do not
    # smear the decode onto neighbouring slots.
    by_slot: Dict[int, List[int]] = {}
    for access in results[attacker_core]:
        by_slot.setdefault(access.issue_cycle // slot_cycles, []).append(access.latency)
    means: List[Optional[float]] = []
    for slot in range(len(padded)):
        latencies = by_slot.get(slot, [])
        means.append(sum(latencies) / len(latencies) if latencies else None)
    measured = means[warm_slots:]  # drop the warm-up slots
    observed = [mean for mean in measured if mean is not None]
    quiet = min(observed) if observed else 0.0
    peak = max(observed) if observed else 0.0
    # A slot with no completed polls at all means the flood starved the
    # receiver outright — the strongest contention signal there is — so
    # ``None`` decodes as a 1.  Only a channel where every slot completed
    # with near-identical means (within the arbiter's jitter band) reads
    # as silence.
    starved = any(mean is None for mean in measured)
    if not starved and peak - quiet <= 2.0:
        received = [0] * len(measured)
    else:
        threshold = (quiet + peak) / 2.0
        received = [
            1 if (mean is None or mean > threshold) else 0 for mean in measured
        ]
    leaked = sum(1 for sent, got in zip(message, received) if sent == got == 1)
    return ScenarioOutcome(
        scenario="contention",
        variant=config.name,
        seed=seed,
        leaked_bits=leaked,
        total_bits=sum(message),
        cycles=executor.cycle,
        num_cores=placement.num_cores,
        details={
            "sent_bits": "".join(map(str, message)),
            "received_bits": "".join(map(str, received)),
            "mean_latency_per_bit": [
                round(mean, 2) if mean is not None else None for mean in measured
            ],
        },
    )


# ----------------------------------------------------------------------
# branch_residue


def run_branch_residue(
    config: MI6Config,
    seed: int,
    *,
    trials: int = 2,
    num_cores: int = 2,
    placement: Optional[Placement] = None,
) -> ScenarioOutcome:
    """Branch-predictor residue across a context switch on a shared core.

    Unlike the other scenarios this one is time-sliced rather than
    parallel: victim and attacker share one core of the machine across a
    context switch, which is exactly where the residue lives.  The leak
    metric is distinguishability — the attacker's observed prediction
    for the victim's branch PC differs between the two secret values.
    With FLUSH the context switch purges the predictor through the
    core's :class:`~repro.core.purge.PurgeUnit`, so both secrets yield
    the identical public reset state.
    """
    placement = placement or default_placement(num_cores)
    rng = DeterministicRng(seed).fork("branch_residue")
    training_iterations = 64
    leaked = 0
    purge_stalls = 0
    for _trial in range(trials):
        observations = {}
        for secret_bit in (False, True):
            machine = build_scenario_machine(config, seed=seed, placement=placement)
            shared_core = machine.core(placement.attacker_core)
            predictor = shared_core.core.frontend.predictor
            # Victim time-slice: the secret selects the branch direction.
            for _ in range(training_iterations + rng.integer(0, 3)):
                predictor.update(RESIDUE_PC, secret_bit)
            # Context switch back to the attacker's domain.
            if machine.config.flush_on_context_switch:
                purge_stalls += shared_core.purge()
            # Attacker time-slice: observe the prediction for the PC.
            observations[secret_bit] = predictor.predict(RESIDUE_PC)
        if observations[False] != observations[True]:
            leaked += 1
    return ScenarioOutcome(
        scenario="branch_residue",
        variant=config.name,
        seed=seed,
        leaked_bits=leaked,
        total_bits=trials,
        cycles=purge_stalls,
        num_cores=placement.num_cores,
        details={"training_iterations": training_iterations},
    )


# ----------------------------------------------------------------------
# Registry

ScenarioRunner = Callable[..., ScenarioOutcome]

_SCENARIOS: Dict[str, ScenarioRunner] = {
    "prime_probe": run_prime_probe,
    "spectre": run_spectre,
    "contention": run_contention,
    "branch_residue": run_branch_residue,
}

_SCENARIO_DESCRIPTIONS: Dict[str, str] = {
    "prime_probe": "cross-core LLC prime+probe (closed by PART)",
    "spectre": "speculative cross-domain read + LLC transmit (closed by the protection checker)",
    "contention": "MSHR/arbiter covert channel (closed by MISS+ARB)",
    "branch_residue": "branch-predictor residue across a context switch (closed by FLUSH)",
}


def scenario_names() -> List[str]:
    """All registered scenario names, in presentation order."""
    return list(_SCENARIOS)


def scenario_description(name: str) -> str:
    """One-line description of a scenario."""
    return _SCENARIO_DESCRIPTIONS[name]


def register_scenario(
    name: str, runner: ScenarioRunner, description: str
) -> None:
    """Register a new scenario runner under ``name``.

    The runner must be a pure function of ``(config, seed)`` plus the
    keyword-only ``num_cores``/``placement`` policy arguments, returning
    a :class:`ScenarioOutcome` — the contract the engine's cache keys and
    the parallel runner rely on.
    """
    key = name.strip()
    if not key:
        raise ConfigurationError("scenario name must be non-empty")
    if key in _SCENARIOS:
        raise ConfigurationError(f"scenario {name!r} already registered")
    _SCENARIOS[key] = runner
    _SCENARIO_DESCRIPTIONS[key] = description


def run_scenario(
    name: str,
    config: MI6Config,
    seed: int,
    *,
    num_cores: int = 2,
    placement: Optional[Placement] = None,
) -> ScenarioOutcome:
    """Run one registered scenario on one machine configuration."""
    try:
        runner = _SCENARIOS[name]
    except KeyError:
        valid = ", ".join(scenario_names())
        raise ConfigurationError(f"unknown scenario {name!r} (expected one of: {valid})") from None
    return runner(config, seed, num_cores=num_cores, placement=placement)
