"""Memory-hierarchy substrate of the MI6 reproduction.

This package models every memory-system structure the paper's evaluation
depends on:

* the physical address map and its division into DRAM regions
  (:mod:`repro.mem.address`), including the baseline and MI6
  set-partitioned LLC index functions;
* set-associative caches with pluggable replacement
  (:mod:`repro.mem.cache`, :mod:`repro.mem.replacement`);
* L1 instruction/data caches and the L1/L2 TLBs plus translation cache
  (:mod:`repro.mem.l1`, :mod:`repro.mem.tlb`);
* per-domain page tables (:mod:`repro.mem.page_table`), walked by the
  memory hierarchy (:mod:`repro.mem.hierarchy`);
* the shared last-level cache and its MSHR organisation
  (:mod:`repro.mem.llc`, :mod:`repro.mem.mshr`) and the constant-latency
  DRAM controller (:mod:`repro.mem.dram`);
* the *detailed* message-level LLC model of the paper's Figures 2 and 3
  (:mod:`repro.mem.llc_detail`, :mod:`repro.mem.arbiter`,
  :mod:`repro.mem.coherence`) used to demonstrate strong timing
  independence.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "repro.mem.address": ("AddressMap", "CacheGeometry", "IndexFunction"),
        "repro.mem.cache": ("SetAssociativeCache",),
        "repro.mem.dram": ("DramController",),
        "repro.mem.hierarchy": ("MemoryHierarchy",),
        "repro.mem.l1": ("L1Cache",),
        "repro.mem.llc": ("LastLevelCache",),
        "repro.mem.page_table": ("PageTable",),
        "repro.mem.replacement": ("LruPolicy", "PseudoRandomPolicy", "ReplacementPolicy"),
        "repro.mem.tlb": ("TranslationCache", "Tlb"),
    },
)
