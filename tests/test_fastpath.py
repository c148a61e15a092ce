"""Fast-path == slow-path equivalence suite.

The simulator ships two kernels: the optimized fast path (default) and
the original reference implementation behind ``REPRO_SLOW_PATH=1`` (see
:mod:`repro.common.fastpath`).  These tests are the contract that the
optimization work never changes results: for every paper variant and for
composed mitigation specs, the two paths must produce bit-identical
stats (cycles, instructions, every counter and histogram) and identical
content-hash cache keys.
"""

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import replace

import pytest
from helpers import alu, cache_lines, idle, syscall

from repro.analysis.engine import (
    PAPER_VARIANTS,
    EvaluationSettings,
    FleetShardRequest,
    ServiceRunRequest,
    evaluation_config,
    execute_fleet_shard_request,
    execute_request,
    execute_service_request,
    request_for,
)
from repro.attacks.coschedule import CoScheduledExecutor, MemOp
from repro.attacks.placement import (
    ATTACKER_CORE,
    ATTACKER_REGIONS,
    VICTIM_CORE,
    VICTIM_REGIONS,
    bystander_cores,
    bystander_regions,
)
from repro.attacks.scenarios import build_scenario_machine, run_scenario, scenario_names
from repro.common.fastpath import SLOW_PATH_ENV_VAR, slow_path_enabled
from repro.core.mitigations import config_for_spec, parse_spec
from repro.core.processor import MI6Processor
from repro.core.serialization import run_cache_key, run_to_dict
from repro.isa.instructions import Instruction, InstructionKind, TrapCause
from repro.workloads.generator import PreparedWorkload, SyntheticWorkload
from repro.workloads.spec_cint2006 import profile_for

SETTINGS = EvaluationSettings(instructions=2_000, seed=2019)

#: Every paper variant (F+P+M+A in its underscore spelling) plus two
#: composed mitigation specs.
EQUIVALENCE_SPECS = [
    "BASE", "FLUSH", "PART", "MISS", "ARB", "NONSPEC", "F_P_M_A", "FLUSH+MISS", "PART+ARB"
]

#: The five composable mitigations; bit i of a lattice point selects
#: ``_LATTICE_MITIGATIONS[i]``, so masks 0..31 span the full 2^5 lattice.
_LATTICE_MITIGATIONS = ("FLUSH", "PART", "MISS", "ARB", "NONSPEC")

#: Seed of the lattice sample below.  Fixed so every run (and the CI
#: slow-path spot-check leg) exercises the same points; bump it to
#: rotate the sample.
LATTICE_SAMPLE_SEED = 2019

#: How many of the 32 lattice points the equivalence sweep runs.
LATTICE_SAMPLE_SIZE = 10


def _lattice_spec(mask: int) -> str:
    members = [
        name for bit, name in enumerate(_LATTICE_MITIGATIONS) if mask & (1 << bit)
    ]
    return "+".join(members) if members else "BASE"


#: Deterministic sample of the full mitigation lattice (ISSUE: second
#: fast-path wave widened equivalence coverage beyond the paper points).
LATTICE_SPECS = sorted(
    _lattice_spec(mask)
    for mask in random.Random(LATTICE_SAMPLE_SEED).sample(range(32), LATTICE_SAMPLE_SIZE)
)


@contextmanager
def _kernel(monkeypatch, *, slow):
    """Select the reference (``slow``) or the fast kernel for the body."""
    if slow:
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
    else:
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
    try:
        yield
    finally:
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)


def _execute(request, monkeypatch, *, slow):
    with _kernel(monkeypatch, slow=slow):
        return request.cache_key(), run_to_dict(execute_request(request))


class TestSlowPathSwitch:
    def test_defaults_to_fast_path(self, monkeypatch):
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        assert not slow_path_enabled()

    def test_zero_and_empty_mean_fast(self, monkeypatch):
        for value in ("", "0"):
            monkeypatch.setenv(SLOW_PATH_ENV_VAR, value)
            assert not slow_path_enabled()

    def test_one_means_slow(self, monkeypatch):
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        assert slow_path_enabled()


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("spec", EQUIVALENCE_SPECS)
    def test_fast_equals_slow(self, spec, monkeypatch):
        request = request_for(parse_spec(spec), "hmmer", SETTINGS)
        fast_key, fast_run = _execute(request, monkeypatch, slow=False)
        slow_key, slow_run = _execute(request, monkeypatch, slow=True)
        # Cache keys hash configuration + workload parameters; the path
        # switch must not perturb them.
        assert fast_key == slow_key
        # Stats are compared field-for-field through the serialised form:
        # cycles, instructions, every counter, every histogram bucket.
        assert fast_run == slow_run

    def test_cache_key_ignores_path_switch(self, monkeypatch):
        config = config_for_spec("F+P+M+A")
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast_key = run_cache_key(config, "gcc", 2000, 2019)
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        assert run_cache_key(config, "gcc", 2000, 2019) == fast_key

    def test_multiple_benchmarks_one_variant(self, monkeypatch):
        for benchmark in ("libquantum", "mcf"):
            request = request_for("BASE", benchmark, SETTINGS)
            fast_key, fast_run = _execute(request, monkeypatch, slow=False)
            slow_key, slow_run = _execute(request, monkeypatch, slow=True)
            assert fast_key == slow_key
            assert fast_run == slow_run


class TestLatticeEquivalence:
    """Fast == slow over a seeded sample of the full 2^5 lattice.

    The paper points above pin the variants the figures use; this sweep
    guards the *composition space* — any subset of the five mitigations
    must survive the fast path bit-identically, not just the published
    combinations.
    """

    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_lattice_point_fast_equals_slow(self, spec, monkeypatch):
        request = request_for(parse_spec(spec), "hmmer", SETTINGS)
        fast_key, fast_run = _execute(request, monkeypatch, slow=False)
        slow_key, slow_run = _execute(request, monkeypatch, slow=True)
        assert fast_key == slow_key
        assert fast_run == slow_run

    def test_sample_is_stable(self):
        # The sample doubles as the CI slow-path spot-check's workload;
        # collection must be deterministic across processes and runs.
        assert len(LATTICE_SPECS) == LATTICE_SAMPLE_SIZE
        assert LATTICE_SPECS == sorted(
            _lattice_spec(mask)
            for mask in random.Random(LATTICE_SAMPLE_SEED).sample(
                range(32), LATTICE_SAMPLE_SIZE
            )
        )


#: Timer-trap interval of the mid-run purge cases: 4 traps in a
#: 2,000-instruction run, so 8 purges on a FLUSH variant.  Evaluation
#: runs that short see none (their interval floors at 5,000).
MID_RUN_TRAP_INTERVAL = 500


#: sha256 of each mid-run case's run document (``run_to_dict``).  Fast
#: == slow cannot see a defect in code both kernels share (the
#: predictor, the purge unit, the monitor); these digests can.  Change
#: one only with an intended output change: a mismatch prints the
#: digest the code produces.
MID_RUN_DIGESTS = {
    "FLUSH/hmmer": "69844360214e981a8748b5f20ad64bccd71eab3493a2f6843a6fd2ff68e8caad",
    "FLUSH/mcf": "3e790172c0d9fcdf597f95a4e9df9b0586987676fc78332a0f3c1ae280b4fdfc",
    "FLUSH/libquantum": "9931a5aad8062e89dd46b699ca75e145f9728b313212df17f1819592a5bcfde4",
    "F+P+M+A/hmmer": "e1b3f364984c0e5f62f9c221a349bc0f2879411155ccb56afc12c66b2b15632e",
    "F+P+M+A/mcf": "ee204e36570db73588ce6e316710637ce8bc88e308275d84f87abff94e595b58",
    "F+P+M+A/libquantum": "90790ba973299fd6e56c5753d005bf59eb479e843fe485f50acd0e3b4bf33dd3",
    "context-switch/BASE": "9d26fd8f23f5f30bd75a4fbe1e9fb1166d87f75bfeed017a57cb3e7fbaed0279",
    "context-switch/FLUSH": "209b68205c808646b2b48f253f3a6591b9f2a44f96a0adf5451424cab5feabb1",
}


def _with_config(request, **changes):
    return replace(request, config=replace(request.config, **changes))


def _run_digest(run):
    encoded = json.dumps(run, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class TestMidRunPurgeEquivalence:
    """Fast == slow when purges and context switches happen inside a run.

    The fast loop holds the page table, region check, L1 tag slabs and
    BTB lists in locals.  A purge replaces the slabs and the
    BTB lists, and a trap hook may install a new context, so the loop
    must read them again after every trap; these runs differ if it
    keeps the old ones.
    """

    @pytest.mark.parametrize("profile", ["hmmer", "mcf", "libquantum"])
    @pytest.mark.parametrize("spec", ["FLUSH", "F+P+M+A"])
    def test_purging_run_fast_equals_slow(self, spec, profile, monkeypatch):
        request = _with_config(
            request_for(parse_spec(spec), profile, SETTINGS),
            trap_interval_instructions=MID_RUN_TRAP_INTERVAL,
        )
        fast_key, fast_run = _execute(request, monkeypatch, slow=False)
        slow_key, slow_run = _execute(request, monkeypatch, slow=True)
        assert fast_run["result"]["counters"]["purge.executions"] == 8
        assert fast_key == slow_key
        assert fast_run == slow_run
        assert _run_digest(fast_run) == MID_RUN_DIGESTS[f"{spec}/{profile}"]

    @staticmethod
    def context_switching_run(spec, monkeypatch, *, slow):
        """A run whose trap hook changes the domain's context at every trap.

        Each of the 3 traps installs a new context.  The first also
        purges (as the monitor does on an enclave exit, even without
        FLUSH) and revokes the region holding the workload's pages and
        its page table.  The second grants it back and installs a page
        table mapping every page 4,096 pages higher.  The third revokes
        the region again but installs no region check, so lines filled
        under the second context hit under the third.  The run ends 300
        instructions after the last trap.  Returns the run document, the
        L1 and LLC contents and the BTB, which carry the lines, dirty
        bits and targets that no counter shows.
        """
        with _kernel(monkeypatch, slow=slow):
            config = replace(
                config_for_spec(spec), trap_interval_instructions=MID_RUN_TRAP_INTERVAL
            )
            processor = MI6Processor(config, seed=2019)
            workload = PreparedWorkload(SyntheticWorkload(profile_for("gcc"), seed=2019), 1_800)
            processor.load_workload(workload)
            hierarchy = processor.hierarchy
            bitvector = processor.region_bitvector
            region = min(bitvector.allowed_regions())
            traps = []

            def switch_context(cause):
                traps.append(cause)
                page_table, region_allowed = hierarchy.page_table, hierarchy.region_allowed
                if len(traps) == 2:
                    bitvector.grant(region)
                    page_table = replace(
                        page_table,
                        mappings={page: frame + 4096 for page, frame in page_table.mappings.items()},
                    )
                else:
                    bitvector.set_regions(bitvector.allowed_regions() - {region})
                    if len(traps) == 1:
                        processor.purge_unit.execute()
                    else:
                        region_allowed = None
                hierarchy.install_context(page_table, region_allowed)

            processor.core.trap_hooks.append(switch_context)
            run = run_to_dict(processor.run_loaded(workload, 1_800))
            btb = processor.core.frontend.btb
            return (
                run,
                [cache_lines(hierarchy.l1i.cache), cache_lines(hierarchy.l1d.cache)],
                cache_lines(processor.llc.cache),
                (btb._tags, btb._targets),
            )

    @pytest.mark.parametrize("spec", ["BASE", "FLUSH"])
    def test_context_switching_run_fast_equals_slow(self, spec, monkeypatch):
        fast = self.context_switching_run(spec, monkeypatch, slow=False)
        slow = self.context_switching_run(spec, monkeypatch, slow=True)
        counters = fast[0]["result"]["counters"]
        assert counters["core.traps"] == 3
        assert counters["protection.blocked_accesses"] > 0
        assert counters["protection.blocked_fetches"] > 0
        assert fast == slow
        assert _run_digest(fast[0]) == MID_RUN_DIGESTS[f"context-switch/{spec}"]

    @staticmethod
    def region_toggling_run(monkeypatch, *, slow):
        """A BASE run whose trap hook revokes the workload's region, then grants it.

        Nothing purges, so the L1s still hold the region's lines while
        it is revoked, and every access to them must be blocked.
        """
        with _kernel(monkeypatch, slow=slow):
            config = replace(
                config_for_spec("BASE"), trap_interval_instructions=MID_RUN_TRAP_INTERVAL
            )
            processor = MI6Processor(config, seed=2019)
            workload = PreparedWorkload(SyntheticWorkload(profile_for("gcc"), seed=2019), 1_800)
            processor.load_workload(workload)
            bitvector = processor.region_bitvector
            region = min(bitvector.allowed_regions())
            traps = []

            def toggle_region(cause):
                traps.append(cause)
                if len(traps) % 2:
                    bitvector.set_regions(bitvector.allowed_regions() - {region})
                else:
                    bitvector.grant(region)

            processor.core.trap_hooks.append(toggle_region)
            return run_to_dict(processor.run_loaded(workload, 1_800))

    def test_region_revoked_without_purge_fast_equals_slow(self, monkeypatch):
        # The fast loop memoizes allowing region verdicts per page; a
        # memo kept across the trap would let the revoked lines hit.
        fast = self.region_toggling_run(monkeypatch, slow=False)
        slow = self.region_toggling_run(monkeypatch, slow=True)
        counters = fast["result"]["counters"]
        assert counters["core.traps"] == 3
        assert counters["protection.blocked_accesses"] > 0
        assert counters["protection.blocked_fetches"] > 0
        assert fast == slow


#: Core widths off the 2/1/1 default: the fast loop picks the issue
#: slot without a loop for one or two pipelines of a unit type.  Commit
#: widths and ROB sizes off 2/80 move the commit-width window, which the
#: fast loop reads from the ROB's ring of commit cycles, up to the whole
#: ring.
CORE_WIDTHS = [
    {"alu_units": 1},
    {"alu_units": 3},
    {"mem_units": 2},
    {"fp_units": 2},
    {"commit_width": 1},
    {"commit_width": 3},
    {"rob_entries": 4},
    {"rob_entries": 8},
    {"commit_width": 4, "rob_entries": 4},
]


class TestCoreWidthEquivalence:
    @pytest.mark.parametrize(
        "widths", CORE_WIDTHS, ids=lambda widths: ",".join(f"{k}={v}" for k, v in widths.items())
    )
    @pytest.mark.parametrize("spec", ["BASE", "F+P+M+A"])
    def test_width_fast_equals_slow(self, spec, widths, monkeypatch):
        request = request_for(parse_spec(spec), "hmmer", SETTINGS)
        request = _with_config(request, core=replace(request.config.core, **widths))
        fast_key, fast_run = _execute(request, monkeypatch, slow=False)
        slow_key, slow_run = _execute(request, monkeypatch, slow=True)
        assert fast_key == slow_key
        assert fast_run == slow_run


class TestTrapCounterSnapshots:
    """A trap hook sees the counters the reference kernel shows it.

    The fast loop tallies per-instruction counts in locals and adds them
    before each trap callback, and its timer trap is a countdown that
    every trap restarts.  Snapshots of every counter taken by a trap
    hook pin where the tallies are added and where the countdown
    restarts.
    """

    @staticmethod
    def trap_snapshots(request, monkeypatch, *, slow, syscalls_at=()):
        """``(cause, counters)`` at each trap, the cycles and the final counters.

        The instructions at ``syscalls_at`` become SYSCALLs, which trap.
        """
        with _kernel(monkeypatch, slow=slow):
            processor = MI6Processor(request.config, seed=request.seed)
            workload = PreparedWorkload(
                SyntheticWorkload(profile_for(request.benchmark), seed=request.seed),
                request.instructions,
            )
            processor.load_workload(workload)
            stream = list(workload.instructions(request.instructions))
            for index in syscalls_at:
                stream[index] = syscall(pc=stream[index].pc)
            snapshots = []
            processor.core.trap_hooks.append(
                lambda cause: snapshots.append((cause, processor.stats.counters()))
            )
            result = processor.core.run(stream)
            return snapshots, result.cycles, processor.stats.counters()

    @pytest.mark.parametrize("spec", PAPER_VARIANTS)
    def test_paper_variant_trap_snapshots(self, spec, monkeypatch):
        request = _with_config(
            request_for(parse_spec(spec), "hmmer", SETTINGS),
            trap_interval_instructions=MID_RUN_TRAP_INTERVAL,
        )
        fast = self.trap_snapshots(request, monkeypatch, slow=False)
        slow = self.trap_snapshots(request, monkeypatch, slow=True)
        assert len(fast[0]) == request.instructions // MID_RUN_TRAP_INTERVAL
        assert fast == slow

    def test_syscall_traps_restart_the_timer_countdown(self, monkeypatch):
        request = _with_config(
            request_for(parse_spec("F+P+M+A"), "hmmer", EvaluationSettings(2_200, 2019)),
            trap_interval_instructions=MID_RUN_TRAP_INTERVAL,
        )
        # The third SYSCALL falls where the countdown would raise a timer
        # trap, and the fourth right behind it.
        syscalls_at = (230, 480, 980, 981, 1600)
        fast = self.trap_snapshots(request, monkeypatch, slow=False, syscalls_at=syscalls_at)
        slow = self.trap_snapshots(request, monkeypatch, slow=True, syscalls_at=syscalls_at)
        assert [(cause, counters["core.instructions"]) for cause, counters in fast[0]] == [
            (TrapCause.SYSCALL, 231),
            (TrapCause.SYSCALL, 481),
            (TrapCause.SYSCALL, 981),
            (TrapCause.SYSCALL, 982),
            (TrapCause.TIMER_INTERRUPT, 1482),
            (TrapCause.SYSCALL, 1601),
            (TrapCause.TIMER_INTERRUPT, 2101),
        ]
        assert fast == slow


def control_and_serialising_stream():
    """Calls nested deeper than the RAS, then every serialising kind and NOPs.

    The workload generator emits none of JUMP, RETURN, CSR, FENCE, PURGE
    or NOP, so no run sends them through a kernel.  Each round calls 12
    levels deep (the RAS holds 8, so the 4 outermost returns underflow),
    returns, then issues each serialising kind; the SYSCALL traps, so a
    FLUSH machine purges.  Four rounds let the BTB learn the targets,
    and three calls left open end the run with a non-empty RAS.
    """
    kinds = InstructionKind

    def call(pc, branch_id):
        return Instruction(kinds.JUMP, pc=pc, branch_id=branch_id, target=pc + 0x100)

    stream = []
    for round_index in range(4):
        returns = []
        for level in range(12):
            call_pc = 0x10_000 + level * 0x100
            stream.append(call(call_pc, level))
            stream.append(alu(dst=level % 8 + 1, srcs=(level % 8,), pc=call_pc + 0x100))
            returns.append(call_pc + 4)
        for level, return_address in enumerate(reversed(returns)):
            stream.append(Instruction(kinds.RETURN, pc=0x20_000 + level * 0x40, target=return_address))
            stream.append(Instruction(kinds.NOP, pc=return_address))
        base = 0x30_000 + round_index * 0x40
        stream.append(Instruction(kinds.CSR, pc=base, dst=9))
        stream.append(Instruction(kinds.FENCE, pc=base + 4))
        stream.append(Instruction(kinds.PURGE, pc=base + 8))
        stream.append(syscall(pc=base + 12))
        stream.extend(Instruction(kinds.NOP, pc=base + 16 + 4 * index) for index in range(4))
    # Three calls left open, so the run ends with return addresses on the RAS.
    stream.extend(call(0x40_000 + level * 0x100, 20 + level) for level in range(3))
    return stream


class TestControlAndSerialisingKinds:
    """Both kernels run the instruction kinds no workload emits to the same numbers.

    Pinned per spec (cycles, the RAS left behind and the sha256 of every
    counter), so the fast and the reference kernel must each reach them.
    """

    OPEN_CALLS = [0x40_004, 0x40_104, 0x40_204]
    EXPECTED = {
        "BASE": (6_739, OPEN_CALLS, "7b08ae4daa5d0020ca5af8ef9069a14b3fc5f8509732b84c0d2bf01c22b11601"),
        "F+P+M+A": (12_987, OPEN_CALLS, "a8cf2d530417431744e111118789803333166facd43cde4243a3fedee507241f"),
    }

    @pytest.mark.parametrize("spec", ["BASE", "F+P+M+A"])
    def test_kinds_no_workload_emits(self, spec, kernel):
        processor = MI6Processor(config_for_spec(spec))
        result = processor.core.run(control_and_serialising_stream())
        counters = result.stats.counters()
        assert counters["ras.underflows"] == 4 * 4
        digest = hashlib.sha256(json.dumps(counters, sort_keys=True).encode()).hexdigest()
        assert (result.cycles, processor.core.frontend.ras._stack, digest) == self.EXPECTED[spec]


class TestScenarioEquivalence:
    def test_prime_probe_outcome_identical(self, monkeypatch):
        config = config_for_spec("BASE")
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast = run_scenario("prime_probe", config, 2019, num_cores=2).to_dict()
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow = run_scenario("prime_probe", config, 2019, num_cores=2).to_dict()
        assert fast == slow

    @pytest.mark.parametrize("name", scenario_names())
    def test_detailed_llc_scenarios_identical(self, name, monkeypatch):
        # The co-scheduled scenarios drive the detailed LLC arbiter,
        # whose event-batched loop skips quiescent cycles on the fast
        # path; outcomes (leakage, cycles, details) must not notice.
        config = config_for_spec("F+P+M+A")
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast = run_scenario(name, config, 2019).to_dict()
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow = run_scenario(name, config, 2019).to_dict()
        assert fast == slow


class TestCoScheduledCounterEquivalence:
    """The detailed LLC's own counters, which no outcome document carries."""

    @staticmethod
    def flooding_phase(spec):
        """A sender flooding writes past its MSHRs while a receiver polls."""
        machine = build_scenario_machine(config_for_spec(spec), seed=2019)
        receiver, sender = ATTACKER_CORE, VICTIM_CORE
        executor = CoScheduledExecutor(machine, max_outstanding={receiver: 4, sender: 24})
        receiver_base = machine.address_map.region_base(min(ATTACKER_REGIONS))
        sender_base = machine.address_map.region_base(min(VICTIM_REGIONS))
        executor.run_phase(
            {
                receiver: [
                    MemOp(receiver_base + (poll % 8) * 64, issue_gap=23, l1_bypass=True)
                    for poll in range(60)
                ],
                sender: [
                    MemOp(sender_base + line * 64, is_write=True, issue_gap=line % 3)
                    for line in range(150)
                ],
            }
        )
        idle(executor, 333)
        return machine.stats.counters(), executor.cycle, executor.completed

    @pytest.mark.parametrize("spec", ["BASE", "MISS", "ARB", "F+P+M+A"])
    def test_flooding_phase_counters_identical(self, spec, monkeypatch):
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast = self.flooding_phase(spec)
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow = self.flooding_phase(spec)
        counters, _cycle, completed = fast
        assert counters.get("llc_detail.mshr_stall_cycles", 0) > 0
        assert len(completed) == 60 + 150
        assert fast == slow


class TestCoScheduledCompletionEquivalence:
    """Three parties' completion records, record for record and in order.

    Each core is collected on the fast path only when the detailed LLC
    answered a request in the step or the core's earliest local
    completion is due; a local completion (an L1 hit or a suppressed
    access) collected one cycle late would free its in-flight slot late
    and reorder :attr:`CoScheduledExecutor.completed`.
    """

    @staticmethod
    def three_party_phase(spec):
        machine = build_scenario_machine(config_for_spec(spec), seed=2019, num_cores=3)
        attacker, victim = ATTACKER_CORE, VICTIM_CORE
        (bystander,) = bystander_cores(3)
        region_base = machine.address_map.region_base
        num_regions = machine.config.address_map.num_regions
        attacker_base = region_base(min(ATTACKER_REGIONS))
        victim_base = region_base(min(VICTIM_REGIONS))
        bystander_base = region_base(min(bystander_regions(bystander, 3, num_regions)))
        executor = CoScheduledExecutor(
            machine, max_outstanding={attacker: 3, victim: 6, bystander: 2}
        )
        executor.run_phase(
            {
                # Four lines over and over (an LLC miss each, then L1
                # hits), and every fifth op reaches into the victim's
                # region, which the region check suppresses on MI6.
                attacker: [
                    MemOp(
                        victim_base + step * 64
                        if step % 5 == 4
                        else attacker_base + (step % 4) * 64,
                        issue_gap=step % 3,
                    )
                    for step in range(40)
                ],
                victim: [
                    MemOp(victim_base + (line % 12) * 64, is_write=line % 3 == 0, issue_gap=5)
                    for line in range(30)
                ],
                bystander: [
                    MemOp(bystander_base + (line % 6) * 64, issue_gap=11) for line in range(24)
                ],
            }
        )
        idle(executor, 200)
        return executor.completed, executor.cycle, machine.stats.counters()

    @pytest.mark.parametrize("spec", ["BASE", "F+P+M+A"])
    def test_three_party_records_identical(self, spec, monkeypatch):
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast = self.three_party_phase(spec)
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow = self.three_party_phase(spec)
        completed = fast[0]
        assert len(completed) == 40 + 30 + 24
        assert {record.core_id for record in completed} == {0, 1, 2}
        assert any(record.l1_hit for record in completed)
        assert any(
            not (record.l1_hit or record.llc_hit or record.blocked) for record in completed
        )
        assert any(record.blocked for record in completed) == (spec == "F+P+M+A")
        assert fast == slow


class TestServeEquivalence:
    def test_service_outcome_identical(self, monkeypatch):
        # Field-for-field through ServiceOutcome.to_dict(): latencies,
        # per-tenant stats, purge counts, and the embedded kernel cycle
        # resolution all ride on the fast path.
        request = ServiceRunRequest(
            policy="fifo",
            config=evaluation_config(parse_spec("F+P+M+A"), 1_000),
            seed=2019,
            num_cores=2,
            num_tenants=4,
            num_requests=40,
            instructions=1_000,
        )
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast_key = request.cache_key()
        fast = execute_service_request(request).to_dict()
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow_key = request.cache_key()
        slow = execute_service_request(request).to_dict()
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        assert fast_key == slow_key
        assert fast == slow

    def test_churned_fleet_shard_outcome_identical(self, monkeypatch):
        # Churn destroys and relaunches tenant enclaves, so the monitor
        # scrubs their regions' LLC sets: the slab scrub lane and its
        # reference walk both run under the fleet loop here.
        request = FleetShardRequest(
            policy="affinity",
            config=evaluation_config(parse_spec("F+P+M+A"), 1_000),
            seed=2019,
            shard_index=0,
            tenants=(0, 1, 2),
            num_tenants=3,
            admission="deadline",
            client="closed_loop",
            load=1.0,
            load_profile="poisson",
            num_cores=2,
            num_requests=60,
            queue_depth=8,
            slo_cycles=50_000,
            think_factor=2.0,
            instructions=1_000,
            churn_every=5,
        )
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast_key = request.cache_key()
        fast = execute_fleet_shard_request(request).to_dict()
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow_key = request.cache_key()
        slow = execute_fleet_shard_request(request).to_dict()
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        assert fast["charged_scrub_cycles"] > 0
        assert fast_key == slow_key
        assert fast == slow
