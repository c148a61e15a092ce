"""Untrusted (and optionally malicious) operating system model.

The OS owns scheduling and physical-resource allocation policy but none of
the security: every enclave-affecting operation goes through the security
monitor, which may refuse it.  :class:`UntrustedOS` models a well-behaved
kernel that claims its own DRAM regions and launches enclaves through the
monitor; :class:`MaliciousOS` adds the hostile behaviours the threat
model (Section 2.3) allows — attempting to grab enclave memory, to map
another domain's regions, to schedule over a running enclave, or to spy on
mailbox traffic — which the tests use to show the monitor holds the line.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.common.errors import SecurityMonitorError
from repro.monitor.enclave import Enclave
from repro.monitor.security_monitor import OS_DOMAIN_ID, SecurityMonitor
from repro.os_model.machine import Machine


class UntrustedOS:
    """A minimal untrusted kernel running in supervisor mode."""

    def __init__(self, machine: Machine, monitor: SecurityMonitor, *, os_regions: Optional[Set[int]] = None) -> None:
        self.machine = machine
        self.monitor = monitor
        address_map = machine.address_map
        if os_regions is None:
            # By default the OS claims the second half of DRAM, leaving the
            # low regions (minus the monitor's PAR) available for enclaves.
            os_regions = set(range(address_map.num_regions // 2, address_map.num_regions))
        self.domain = monitor.create_os_domain(os_regions)
        # The OS starts out running on core 0 under its own protection
        # domain (its DRAM-region bitvector does not include enclave or
        # monitor regions).
        machine.core(0).install_domain(self.domain)
        self.enclaves: Dict[int, Enclave] = {}

    # ------------------------------------------------------------------
    # Enclave management (always via the monitor)

    def launch_enclave(
        self,
        regions: Set[int],
        pages: Dict[int, bytes],
        *,
        core_id: int = 1,
        entry_point: int = 0x1000,
    ) -> Enclave:
        """Create, load, measure and schedule an enclave."""
        enclave = self.monitor.create_enclave(regions, entry_point=entry_point)
        for virtual_address, contents in sorted(pages.items()):
            self.monitor.load_enclave_page(enclave, virtual_address, contents)
        self.monitor.finalize_measurement(enclave)
        self.monitor.setup_memcopy_buffers(enclave)
        self.monitor.schedule_enclave(enclave, core_id)
        self.enclaves[enclave.enclave_id] = enclave
        return enclave

    def os_domain_id(self) -> int:
        """Domain id of the OS (for mailbox addressing)."""
        return OS_DOMAIN_ID


class MaliciousOS(UntrustedOS):
    """An OS that actively tries to break enclave isolation.

    Every method returns the exception the monitor raised (or None when,
    alarmingly, the attack succeeded); the security test suite asserts
    that none of them return None.
    """

    def try_grab_enclave_regions(self, enclave: Enclave) -> Optional[SecurityMonitorError]:
        """Try to create a new domain over a live enclave's regions."""
        try:
            self.monitor.create_enclave(set(enclave.domain.regions))
        except SecurityMonitorError as error:
            return error
        return None

    def try_grab_monitor_region(self) -> Optional[SecurityMonitorError]:
        """Try to allocate the monitor's protected address region."""
        try:
            self.monitor.create_enclave(set(self.monitor.monitor_domain.regions))
        except SecurityMonitorError as error:
            return error
        return None

    def try_schedule_over_enclave(self, enclave: Enclave, other: Enclave) -> Optional[SecurityMonitorError]:
        """Try to schedule a second enclave on a core the first occupies."""
        occupied_core = next(iter(enclave.domain.cores))
        try:
            self.monitor.schedule_enclave(other, occupied_core)
        except SecurityMonitorError as error:
            return error
        return None

    def try_load_page_after_measurement(self, enclave: Enclave) -> Optional[SecurityMonitorError]:
        """Try to inject a page into an already-measured enclave."""
        try:
            self.monitor.load_enclave_page(enclave, 0xDEAD_0000, b"evil")
        except SecurityMonitorError as error:
            return error
        return None

    def try_oversized_memcopy(self, enclave: Enclave) -> Optional[SecurityMonitorError]:
        """Try to overflow the pre-agreed memcopy buffer."""
        try:
            self.monitor.os_write_buffer(enclave.enclave_id, b"x" * (1 << 20))
        except SecurityMonitorError as error:
            return error
        return None

    def probe_enclave_memory(self, enclave: Enclave, core_id: int = 0) -> bool:
        """Probe enclave physical memory from an OS-controlled core.

        The OS owns its own page tables, so it first maps the enclave's
        frame into them — nothing stops that write.  What must stop the
        *access* that follows is the per-core DRAM-region bitvector
        checker (Section 5.3): present on every MI6 build, absent on the
        insecure baseline.  Returns True if the access was emitted to
        the memory system, i.e. the secret's cache/DRAM footprint became
        observable.
        """
        core = self.machine.core(core_id)
        target = self.machine.address_map.region_base(min(enclave.domain.regions))
        self.domain.page_table.map_page(target, target)
        blocked_before = self.machine.stats.value("protection.blocked_accesses")
        access = core.hierarchy.data_access(target)
        blocked_after = self.machine.stats.value("protection.blocked_accesses")
        emitted = access.physical_address is not None and not access.blocked_by_protection
        return emitted and blocked_after == blocked_before
