"""The fused warm-up prime lanes against the per-address accessors.

``MemoryHierarchy.prime_data_timing`` and ``prime_fetch_timing`` promise
the state and statistics of calling ``data_access_timing`` /
``fetch_access_timing`` on every address.  Each test primes one
fast-layout machine through the lanes and its twin through the
accessors, then compares, right after priming (before ``warm_up`` would
reset the counters):

* ``capture_warm_state()`` of every structure warm-up changes: the L1
  and LLC tags, dirty bits, owners, tag maps, valid counts and LRU
  stacks, the L1 replacement-RNG positions, the TLB sets and ASIDs, and
  the translation cache;
* every counter value (``stats.counters()``);
* the counter and histogram names, in registration order
  (``stats.registered()``).

The run documents of the equivalence suite would miss a warm-up defect
that the measured run happens not to expose; these compare the warmed
hierarchy itself.
"""

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.common.fastpath import SLOW_PATH_ENV_VAR
from repro.core.mitigations import config_for_spec
from repro.core.processor import MI6Processor
from repro.core.protection import ProtectionDomain
from repro.mem.address import CacheGeometry
from repro.mem.page_table import PageTable
from repro.workloads.generator import DATA_BASE, PreparedWorkload, SyntheticWorkload
from repro.workloads.spec_cint2006 import benchmark_names, profile_for

#: The two warm classes of the paper's variants, and a composed spec
#: of the second one with every other mitigation.
WARM_SPECS = ("BASE", "PART", "F+P+M+A")

SEED = 2019
PAGE_BYTES = 4096
LINE_BYTES = 64
LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES

#: Mapped pages of the hand-built domain: more than the 32 entries of
#: an L1 TLB, so a list can make it evict mid-list.
MAPPED_PAGES = 48
#: A page mapped into a DRAM region the domain does not own.
FOREIGN_PAGE = MAPPED_PAGES
#: A page the table does not map.
UNMAPPED_PAGE = MAPPED_PAGES + 1
#: The domain's DRAM regions and the region the foreign page lies in.
DOMAIN_REGIONS = range(1, 5)
FOREIGN_REGION = 9


@pytest.fixture(autouse=True, scope="module")
def fast_kernel():
    """The lanes exist in the fast layout only, whatever the environment selects."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        yield


@lru_cache(maxsize=None)
def _workload(benchmark):
    return PreparedWorkload(SyntheticWorkload(profile_for(benchmark), seed=SEED), 6_000)


def _workload_machine(spec, benchmark):
    """A fast-layout machine with ``benchmark``'s domain installed, not warmed."""
    processor = MI6Processor(config_for_spec(spec), seed=SEED)
    processor.install_domain(processor.build_workload_domain(_workload(benchmark)))
    assert processor.hierarchy.l1d.cache._uses_slabs
    return processor


def _small_llc(config):
    """The spec's configuration with a 16 KB, 4-way LLC: 64 sets, 16 per region under PART."""
    return replace(config, llc=replace(config.llc, geometry=CacheGeometry(16 * 1024, ways=4)))


def _page_machine(spec):
    """A fast-layout machine whose domain maps ``MAPPED_PAGES`` data pages.

    The pages are consecutive from the domain's first region, as a
    workload's are; ``FOREIGN_PAGE`` is mapped outside the domain and
    ``UNMAPPED_PAGE`` is not mapped.  The LLC is small enough that short
    lists fill its sets.
    """
    config = _small_llc(config_for_spec(spec))
    processor = MI6Processor(config, seed=SEED)
    address_map = config.address_map
    table = PageTable(asid=1)
    first = address_map.region_base(DOMAIN_REGIONS[0]) // PAGE_BYTES + 8
    for page in range(MAPPED_PAGES):
        table.mappings[_vpn(page)] = first + page
    table.mappings[_vpn(FOREIGN_PAGE)] = address_map.region_base(FOREIGN_REGION) // PAGE_BYTES
    table.root_physical_address = address_map.region_base(DOMAIN_REGIONS[0])
    domain = ProtectionDomain(
        domain_id=1, name="lanes", regions=set(DOMAIN_REGIONS), cores={0},
        page_table=table, is_enclave=True,
    )
    processor.install_domain(domain)
    assert processor.hierarchy.l1d.cache._uses_slabs
    return processor


def _vpn(page):
    return DATA_BASE // PAGE_BYTES + page


def _address(page, line):
    return DATA_BASE + page * PAGE_BYTES + line * LINE_BYTES


def _observed(processor):
    """What the lanes must leave as the accessors do."""
    return (
        processor.hierarchy.capture_warm_state(),
        processor.stats.counters(),
        processor.stats.registered(),
    )


def _prime(processor, data, code, *, lanes):
    hierarchy = processor.hierarchy
    if lanes:
        hierarchy.prime_data_timing(data)
        hierarchy.prime_fetch_timing(code)
    else:
        for virtual_address in data:
            hierarchy.data_access_timing(virtual_address)
        for virtual_address in code:
            hierarchy.fetch_access_timing(virtual_address)
    return _observed(processor)


def _assert_same(lanes, reference):
    """Compare structure by structure, so a failure names what differs."""
    names = ("l1i", "l1d", "llc", "itlb", "dtlb", "l2tlb", "tcache")
    for name, got, expected in zip(names, lanes[0], reference[0]):
        assert got == expected, f"warmed {name} differs"
    assert lanes[1] == reference[1], "counter values differ"
    assert lanes[2] == reference[2], "registered counter names differ"


def _check(build, data, code=(), history=()):
    """Prime twins built by ``build()``, after the same ``history`` of stores.

    Returns the reference twin's counters before and after priming.
    """
    twins = []
    for lanes in (True, False):
        processor = build()
        for virtual_address in history:
            processor.hierarchy.data_access_timing(virtual_address, is_write=True)
        before = processor.stats.counters()
        twins.append((before, _prime(processor, data, code, lanes=lanes)))
    (_, got), (before, expected) = twins
    _assert_same(got, expected)
    return before, expected[1]


class TestBenchmarkWarmUps:
    """Every benchmark's warm-up lists, on both warm classes and the composed spec."""

    @pytest.mark.parametrize("spec", WARM_SPECS)
    @pytest.mark.parametrize("name", benchmark_names())
    def test_prime_lanes_equal_accessors(self, name, spec):
        workload = _workload(name)
        _check(
            lambda: _workload_machine(spec, name),
            workload.warmup_addresses(),
            workload.warmup_code_addresses(),
        )


class TestDirtyHistory:
    """Priming a machine that already ran a store-heavy workload evicts dirty lines."""

    @pytest.mark.parametrize("instructions", [600, 6_000])
    def test_evictions_count_writebacks(self, instructions):
        workload = _workload("omnetpp")  # the largest store share of the suite

        def build():
            processor = MI6Processor(config_for_spec("PART"), seed=SEED)
            processor.load_workload(workload, warm_up=False)
            processor.run_loaded(workload, instructions)
            return processor

        before, after = _check(
            build, workload.warmup_addresses(), workload.warmup_code_addresses()
        )
        for name in ("l1d.writeback", "llc.writeback", "llc.replacement_writeback"):
            assert after[name] > before.get(name, 0), name

    def test_writeback_counters_registered_mid_list(self):
        """Dirty victims met after the first evictions but before any writeback.

        The stores leave four dirty lines in one L1D set and fill one
        4-way LLC set with them.  The first pass touches every page on
        another line, so the TLB holds them and clean evictions register
        the eviction counters; the second pass then evicts the dirty
        lines from the lanes themselves, which meet the writeback
        counters unregistered.
        """
        pages = range(12)
        before, after = _check(
            lambda: _page_machine("PART"),
            [_address(page, 5) for page in pages] + [_address(page, 40) for page in pages],
            history=[_address(page, 40) for page in pages[:4]],
        )
        for name in ("l1d.writeback", "llc.writeback", "llc.replacement_writeback"):
            assert name not in before and after[name] > 0, name


class TestAddressLists:
    """Lists that leave the front page in every way the lanes handle."""

    @pytest.mark.parametrize("spec", WARM_SPECS)
    def test_unmapped_repeated_and_tlb_evicting_lists(self, spec):
        columns = [_address(page, 3) for page in range(MAPPED_PAGES)]  # 48 pages: D-TLB evicts
        data = (
            [_address(0, line) for line in range(8)]
            + [_address(UNMAPPED_PAGE, 5)] * 3
            + [_address(1, 7)] * 4
            + columns
            + [_address(0, line) for line in range(8, 16)]
            + columns[::-1]
        )
        code = [_address(page, line) for page in (2, UNMAPPED_PAGE, 2, 40) for line in range(4)]
        _, after = _check(lambda: _page_machine(spec), data, code)
        assert after["mem.page_faults"] == 3
        assert after["mem.instruction_page_faults"] == 4
        assert after["dtlb.miss"] > MAPPED_PAGES

    @pytest.mark.parametrize("spec", WARM_SPECS)
    def test_denied_page_counted_once_per_access(self, spec):
        foreign = [_address(FOREIGN_PAGE, line) for line in range(6)]
        data = [_address(0, 1), *foreign, _address(0, 2), *foreign[:3], _address(1, 0)]
        code = [_address(FOREIGN_PAGE, 9)] * 2 + [_address(3, 0)]
        _, after = _check(lambda: _page_machine(spec), data, code)
        assert after["protection.denied"] == len(foreign) + 3 + 2
        assert after["protection.blocked_accesses"] == len(foreign) + 3
        assert after["protection.blocked_fetches"] == 2

    def test_address_outside_dram_raises_as_the_accessor_does(self):
        """Under set partitioning the LLC index of an address outside DRAM raises.

        Without a region check such an address reaches the LLC.  Page 1
        is remapped past DRAM while its TLB entry stays resident, so the
        lanes meet it after a TLB hit; they must raise the accessors'
        error and leave what the accessors leave.
        """
        def build():
            processor = _page_machine("PART")
            hierarchy = processor.hierarchy
            hierarchy.install_context(hierarchy.page_table, None, hierarchy.owner)
            hierarchy.data_access_timing(_address(1, 0))
            dram_pages = processor.config.address_map.dram_bytes // PAGE_BYTES
            hierarchy.page_table.mappings[_vpn(1)] = dram_pages
            return processor

        data = [_address(0, line) for line in range(4)] + [_address(1, 2), _address(0, 9)]
        twins = []
        for lanes in (True, False):
            processor = build()
            with pytest.raises(ConfigurationError, match="outside DRAM"):
                _prime(processor, data, (), lanes=lanes)
            twins.append(_observed(processor))
        _assert_same(*twins)

    @pytest.mark.parametrize("spec", WARM_SPECS)
    def test_bare_physical_mode(self, spec):
        def build():
            processor = _page_machine(spec)
            hierarchy = processor.hierarchy
            hierarchy.install_context(None, hierarchy.region_allowed, hierarchy.owner)
            return processor

        region_base = config_for_spec(spec).address_map.region_base(DOMAIN_REGIONS[0])
        data = [region_base + line * LINE_BYTES for line in range(0, 600, 3)]
        _check(build, data, data[::-1][:40])


# Address-list blocks: runs along one page (the front-page reuse),
# columns down one line offset of consecutive pages (L1 and LLC set
# conflicts, and TLB evictions past 32 pages), and repeats of one line
# (L1 hits).  Pages include the foreign and the unmapped one.
_PAGES = st.integers(min_value=0, max_value=UNMAPPED_PAGE)
_LINES = st.integers(min_value=0, max_value=LINES_PER_PAGE - 1)
_RUNS = st.tuples(_PAGES, _LINES, st.integers(1, LINES_PER_PAGE)).map(
    lambda block: [
        _address(block[0], (block[1] + step) % LINES_PER_PAGE) for step in range(block[2])
    ]
)
_COLUMNS = st.tuples(_PAGES, _LINES, st.integers(1, 40)).map(
    lambda block: [
        _address((block[0] + step) % (UNMAPPED_PAGE + 1), block[1]) for step in range(block[2])
    ]
)
_REPEATS = st.tuples(_PAGES, _LINES, st.integers(2, 4)).map(
    lambda block: [_address(block[0], block[1])] * block[2]
)
ADDRESS_LISTS = st.lists(st.one_of(_RUNS, _COLUMNS, _REPEATS), max_size=10).map(
    lambda blocks: [address for block in blocks for address in block]
)


class TestGeneratedLists:
    """Generated lists, after a generated history of stores, against the oracle."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        spec=st.sampled_from(WARM_SPECS),
        history=ADDRESS_LISTS,
        data=ADDRESS_LISTS,
        code=ADDRESS_LISTS,
    )
    def test_prime_lanes_equal_accessors(self, spec, history, data, code):
        _check(lambda: _page_machine(spec), data, code, history)
