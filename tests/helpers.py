"""Hand-built instructions and test oracles the test modules share.

The workload generator builds ``Instruction`` tuples itself, so the
builders here exist for tests only.  The oracles read simulator state
that no user reads: a tag array's lines in either storage layout, the
predictor's tables, the LLC sets a group of DRAM regions maps to.
``idle`` drains a co-scheduled executor between phases, which no
scenario does.
(``benchmarks/conftest.py`` also exists, so shared helpers cannot live
in ``tests/conftest.py`` and be imported by name.)
"""

from dataclasses import astuple
from typing import NamedTuple

from repro.common.fastpath import slow_path_enabled
from repro.isa.instructions import NO_REGISTER, Instruction, InstructionKind, TrapCause
from repro.mem.address import AddressMap, CacheGeometry, LlcIndexer


# ----------------------------------------------------------------------
# Hand-built instructions


def _sources(srcs):
    return tuple(register for register in srcs or () if register != NO_REGISTER)


def alu(dst, srcs=(), *, pc=0, sequence=0):
    """A single-cycle integer ALU instruction."""
    return Instruction(kind=InstructionKind.ALU, dst=dst, srcs=_sources(srcs), pc=pc, sequence=sequence)


def load(dst, vaddr, srcs=(), *, size=8, pc=0, sequence=0):
    """A load from ``vaddr``."""
    return Instruction(
        kind=InstructionKind.LOAD,
        dst=dst,
        srcs=_sources(srcs),
        vaddr=vaddr,
        size=size,
        pc=pc,
        sequence=sequence,
    )


def store(vaddr, srcs=(), *, size=8, pc=0, sequence=0):
    """A store to ``vaddr``."""
    return Instruction(
        kind=InstructionKind.STORE, srcs=_sources(srcs), vaddr=vaddr, size=size, pc=pc, sequence=sequence
    )


def branch(branch_id, taken, *, target=None, srcs=(), pc=0, sequence=0):
    """A conditional branch with a known outcome."""
    return Instruction(
        kind=InstructionKind.BRANCH,
        srcs=_sources(srcs),
        branch_id=branch_id,
        taken=taken,
        target=target,
        pc=pc,
        sequence=sequence,
    )


def syscall(*, pc=0, sequence=0):
    """An environment call that traps to the OS at commit."""
    return Instruction(kind=InstructionKind.SYSCALL, trap=TrapCause.SYSCALL, pc=pc, sequence=sequence)


# ----------------------------------------------------------------------
# Oracles that read simulator state no user reads


class Line(NamedTuple):
    """One line slot of a tag array; an invalid slot reads ``(False, 0, False)``."""

    valid: bool
    tag: int
    dirty: bool


def cache_lines(cache):
    """Every line slot of a tag array, set by set, as :class:`Line` tuples.

    Reads either storage layout, so a fast == slow check can compare
    caches whichever kernel built them.
    """
    if cache._sets is not None:
        return [[Line(*astuple(line)) for line in lines] for lines in cache._sets]
    ways = cache._ways
    slots = [
        Line(tag is not None, 0 if tag is None else tag, dirty)
        for tag, dirty in zip(cache._slab_tags, cache._slab_dirty)
    ]
    return [slots[base : base + ways] for base in range(0, len(slots), ways)]


def holds(cache, physical_address):
    """True if the tag array holds the line of ``physical_address``."""
    tag = physical_address >> cache.geometry.offset_bits
    lines = cache_lines(cache)[cache._index_for(physical_address)]
    return any(line.valid and line.tag == tag for line in lines)


def valid_lines(cache):
    """Number of valid lines a tag array holds."""
    return sum(line.valid for lines in cache_lines(cache) for line in lines)


def tlb_entries(tlb):
    """Number of translations a TLB holds."""
    return sum(map(len, tlb._sets))


def llc_sets_disjoint(regions_a, regions_b, *, index_function, region_index_bits=6, samples_per_region=64):
    """True if two groups of DRAM regions use disjoint sets of a 1 MB, 16-way LLC.

    With ``region_index_bits`` equal to the full region-ID width, the MI6
    index function keeps any two disjoint region groups apart; the
    baseline index function does not.
    """
    address_map = AddressMap()
    geometry = CacheGeometry(size_bytes=1024 * 1024, ways=16, line_bytes=64)
    indexer = LlcIndexer(geometry, address_map, index_function, region_index_bits)
    step = max(geometry.line_bytes, address_map.region_bytes // samples_per_region)

    def sets_of(regions):
        return {
            indexer.set_index(address_map.region_base(region) + offset)
            for region in regions
            for offset in range(0, address_map.region_bytes, step)
        }

    return not (sets_of(regions_a) & sets_of(regions_b))


def predictor_state(predictor):
    """Every table and history register of a tournament predictor."""
    return (
        tuple(predictor._local_history),
        tuple(predictor._local_counters),
        tuple(predictor._global_counters),
        tuple(predictor._choice_counters),
        predictor._global_history,
    )


def purge_observable_state(processor):
    """Software-observable projection of every structure the purge scrubs.

    The prediction structures are compared whole; a cache or TLB only by
    how many lines or entries it holds, since the purge need not
    canonicalise what software cannot distinguish (such as the L1
    replacement RNG's position).
    """
    frontend = processor.core.frontend
    hierarchy = processor.hierarchy
    return {
        "predictor": predictor_state(frontend.predictor),
        "btb": (tuple(frontend.btb._tags), tuple(frontend.btb._targets)),
        "ras": tuple(frontend.ras._stack),
        "l1i_valid_lines": valid_lines(hierarchy.l1i.cache),
        "l1d_valid_lines": valid_lines(hierarchy.l1d.cache),
        "itlb_entries": tlb_entries(hierarchy.itlb),
        "dtlb_entries": tlb_entries(hierarchy.dtlb),
        "l2tlb_entries": tlb_entries(hierarchy.l2tlb),
    }


def verify_purged_state(processor, pristine):
    """Names of the structures whose projection differs from ``pristine``'s.

    An empty list means the purge achieved indistinguishability
    (Section 6.1).
    """
    current = purge_observable_state(processor)
    return [name for name, reference in pristine.items() if current.get(name) != reference]


# ----------------------------------------------------------------------
# A driver only the fast == slow checks use


def idle(executor, cycles):
    """Let a co-scheduled executor's detailed LLC drain for ``cycles`` with no new traffic.

    The fast kernel jumps between the LLC's events; the reference one
    steps every cycle.  No scenario idles between its phases; the
    fast == slow checks do, to reach states a scenario does not.
    """
    detailed = executor.detailed
    target = detailed.cycle + cycles
    if slow_path_enabled():
        while detailed.cycle < target:
            detailed.step()
        return
    while detailed.cycle < target:
        event = detailed.next_event_cycle()
        if event is None or event >= target:
            detailed.advance_to(target)
            return
        if event > detailed.cycle:
            detailed.advance_to(event)
        detailed.step()
