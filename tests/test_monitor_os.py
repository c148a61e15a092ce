"""Tests for the security monitor, enclave lifecycle, and the untrusted OS."""

import pytest

from repro.common.errors import SecurityMonitorError
from repro.core.mitigations import config_for_spec
from repro.monitor.enclave import EnclaveState
from repro.monitor.measurement import attest, measure_pages
from repro.monitor.security_monitor import SecurityMonitor
from repro.os_model.kernel import MaliciousOS, UntrustedOS
from repro.os_model.machine import Machine
from repro.service.simulation import _TenantMachine


@pytest.fixture()
def platform():
    machine = Machine(config_for_spec("F+P+M+A"), num_cores=2)
    monitor = SecurityMonitor(machine)
    operating_system = UntrustedOS(machine, monitor)
    return machine, monitor, operating_system


class TestEnclaveLifecycle:
    def test_full_lifecycle(self, platform):
        machine, monitor, operating_system = platform
        enclave = operating_system.launch_enclave({2, 3}, {0x1000: b"code", 0x2000: b"data"}, core_id=1)
        assert enclave.state is EnclaveState.RUNNING
        assert enclave.measurement is not None
        assert machine.core(1).current_domain.domain_id == enclave.enclave_id
        monitor.deschedule_enclave(enclave, 1)
        assert enclave.state is EnclaveState.SUSPENDED
        monitor.destroy_enclave(enclave)
        assert enclave.state is EnclaveState.DESTROYED
        assert enclave.enclave_id not in monitor.live_domains()

    def test_scheduling_purges_the_core(self, platform):
        machine, monitor, operating_system = platform
        enclave = operating_system.launch_enclave({2, 3}, {0x1000: b"code"}, core_id=1)
        assert machine.core(1).purge_count >= 1
        result = monitor.deschedule_enclave(enclave, 1)
        assert result.purge_stall_cycles == 512
        assert machine.core(1).purge_count >= 2

    def test_enclave_core_gets_enclave_bitvector(self, platform):
        machine, _monitor, operating_system = platform
        enclave = operating_system.launch_enclave({2, 3}, {0x1000: b"code"}, core_id=1)
        allowed = machine.core(1).region_bitvector.allowed_regions()
        assert allowed == {2, 3}
        assert not allowed & operating_system.domain.regions

    def test_measurement_is_deterministic_and_content_sensitive(self):
        pages = {0x1000 // 4096: b"alpha", 0x2000 // 4096: b"beta"}
        assert measure_pages(pages) == measure_pages(dict(reversed(list(pages.items()))))
        assert measure_pages(pages) != measure_pages({0x1000 // 4096: b"alphb"})

    def test_attestation_verifies_against_trusted_platform(self, platform):
        _machine, monitor, operating_system = platform
        enclave = operating_system.launch_enclave({2, 3}, {0x1000: b"code"}, core_id=1)
        attestation = monitor.attest_enclave(enclave)
        assert attestation.verify(enclave.measurement, {"mi6-platform"})
        assert not attestation.verify(enclave.measurement, {"other-platform"})
        assert not attest("mi6-platform", "forged").verify(enclave.measurement, {"mi6-platform"})

    def test_tlb_shootdown_on_domain_changes(self, platform):
        _machine, monitor, operating_system = platform
        before = monitor.tlb_shootdowns
        enclave = operating_system.launch_enclave({4, 5}, {0x1000: b"x"}, core_id=1)
        monitor.destroy_enclave(enclave)
        assert monitor.tlb_shootdowns >= before + 2


class TestCommunicationPrimitives:
    def test_mailbox_send_receive(self, platform):
        _machine, monitor, operating_system = platform
        enclave = operating_system.launch_enclave({2, 3}, {0x1000: b"code"}, core_id=1)
        monitor.mailbox_send(enclave, operating_system.os_domain_id(), b"hello world")
        message = monitor.mailbox_receive(operating_system.os_domain_id())
        assert message.payload == b"hello world"
        assert message.sender_measurement == enclave.measurement

    def test_mailbox_rejects_oversized_messages(self, platform):
        _machine, monitor, operating_system = platform
        enclave = operating_system.launch_enclave({2, 3}, {0x1000: b"code"}, core_id=1)
        with pytest.raises(SecurityMonitorError):
            monitor.mailbox_send(enclave, operating_system.os_domain_id(), b"x" * 65)

    def test_memcopy_roundtrip_through_monitor(self, platform):
        _machine, monitor, operating_system = platform
        enclave = operating_system.launch_enclave({2, 3}, {0x1000: b"code"}, core_id=1)
        monitor.os_write_buffer(enclave.enclave_id, b"request")
        assert monitor.enclave_read_os_buffer(enclave) == b"request"
        monitor.enclave_write_os_buffer(enclave, b"response")
        assert monitor.os_read_buffer(enclave.enclave_id) == b"response"


class TestMaliciousOs:
    @pytest.fixture()
    def hostile_platform(self):
        machine = Machine(config_for_spec("F+P+M+A"), num_cores=3)
        monitor = SecurityMonitor(machine)
        operating_system = MaliciousOS(machine, monitor)
        victim = operating_system.launch_enclave({2, 3}, {0x1000: b"secret"}, core_id=1)
        return machine, monitor, operating_system, victim

    def test_cannot_grab_enclave_regions(self, hostile_platform):
        _machine, _monitor, operating_system, victim = hostile_platform
        assert operating_system.try_grab_enclave_regions(victim) is not None

    def test_cannot_grab_monitor_par(self, hostile_platform):
        _machine, _monitor, operating_system, _victim = hostile_platform
        assert operating_system.try_grab_monitor_region() is not None

    def test_cannot_schedule_over_running_enclave(self, hostile_platform):
        _machine, monitor, operating_system, victim = hostile_platform
        other = monitor.create_enclave({6, 7})
        monitor.finalize_measurement(other)
        assert operating_system.try_schedule_over_enclave(victim, other) is not None

    def test_cannot_inject_pages_after_measurement(self, hostile_platform):
        _machine, _monitor, operating_system, victim = hostile_platform
        assert operating_system.try_load_page_after_measurement(victim) is not None

    def test_cannot_overflow_memcopy_buffer(self, hostile_platform):
        _machine, _monitor, operating_system, victim = hostile_platform
        assert operating_system.try_oversized_memcopy(victim) is not None

    def test_cannot_probe_enclave_memory_from_os_core(self, hostile_platform):
        _machine, _monitor, operating_system, victim = hostile_platform
        assert operating_system.probe_enclave_memory(victim, core_id=0) is False

    def test_overlapping_enclaves_rejected(self, hostile_platform):
        _machine, monitor, _operating_system, _victim = hostile_platform
        first = monitor.create_enclave({10, 11})
        assert first is not None
        with pytest.raises(SecurityMonitorError):
            monitor.create_enclave({11, 12})


def _hostile_platform_for(spec: str):
    machine = Machine(config_for_spec(spec), num_cores=2)
    monitor = SecurityMonitor(machine)
    operating_system = MaliciousOS(machine, monitor)
    victim = operating_system.launch_enclave({2, 3}, {0x1000: b"secret"}, core_id=1)
    return machine, operating_system, victim


class TestProbeAcrossMitigationLattice:
    """probe_enclave_memory across the 2^5 mitigation lattice.

    The DRAM-region protection checker ships on every MI6 build (any
    mitigation switch) and is absent on the insecure baseline, so the
    probe leaks exactly on BASE-like machines regardless of which other
    knobs are composed.
    """

    @pytest.mark.parametrize("spec", ["BASE"])
    def test_base_machine_leaks_enclave_memory(self, spec):
        _machine, operating_system, victim = _hostile_platform_for(spec)
        assert operating_system.probe_enclave_memory(victim, core_id=0) is True

    @pytest.mark.parametrize(
        "spec",
        ["F+P+M+A", "FLUSH", "PART", "MISS", "ARB", "NONSPEC", "FLUSH+MISS", "PART+ARB+NONSPEC"],
    )
    def test_any_mi6_build_blocks_enclave_memory(self, spec):
        _machine, operating_system, victim = _hostile_platform_for(spec)
        assert operating_system.probe_enclave_memory(victim, core_id=0) is False

    def test_protection_hardware_flag_matches_lattice(self):
        assert config_for_spec("BASE").has_protection_hardware is False
        assert config_for_spec("ARB").has_protection_hardware is True
        assert config_for_spec("F+P+M+A").has_protection_hardware is True


class TestPurgeAccounting:
    """Per-core purge counts and stall cycles across schedule cycles."""

    def test_repeated_schedule_deschedule_accumulates(self, platform):
        machine, monitor, operating_system = platform
        enclave = operating_system.launch_enclave({2, 3}, {0x1000: b"code"}, core_id=1)
        core = machine.core(1)
        count_after_launch = core.purge_count
        stall_after_launch = core.purge_stall_cycles
        assert count_after_launch == 1
        assert stall_after_launch == 512
        cycles = 5
        for _ in range(cycles):
            result = monitor.deschedule_enclave(enclave, 1)
            assert result.core_id == 1
            assert result.purge_stall_cycles == 512
            result = monitor.schedule_enclave(enclave, 1)
            assert result.core_id == 1
            assert result.purge_count == core.purge_count
        assert core.purge_count == count_after_launch + 2 * cycles
        assert core.purge_stall_cycles == stall_after_launch + 2 * cycles * 512

    def test_machine_purge_audit_matches_cores(self, platform):
        machine, monitor, operating_system = platform
        enclave = operating_system.launch_enclave({2, 3}, {0x1000: b"code"}, core_id=1)
        monitor.deschedule_enclave(enclave, 1)
        audit = machine.purge_audit()
        assert set(audit) == {0, 1}
        assert audit[1] == {"purge_count": 2, "purge_stall_cycles": 1024}
        assert audit[0] == {"purge_count": 0, "purge_stall_cycles": 0}


def _eager_identity_mappings(regions, address_map):
    """The OS identity table as an eager build inserts it: region by region, page by page."""
    mappings = {}
    page_bytes = address_map.page_bytes
    for region in sorted(regions):
        first_page = address_map.region_base(region) // page_bytes
        for page in range(first_page, first_page + address_map.pages_per_region):
            mappings[page] = page
    return mappings


class TestLazyIdentityTable:
    """The OS table builds its dict on first read, and nothing can tell."""

    @pytest.fixture(params=[{63}, {40, 60}, None], ids=["one-region", "two-regions", "default"])
    def os_platform(self, request):
        machine = Machine(config_for_spec("F+P+M+A"), num_cores=2)
        operating_system = UntrustedOS(machine, SecurityMonitor(machine), os_regions=request.param)
        table = operating_system.domain.page_table
        eager = _eager_identity_mappings(operating_system.domain.regions, machine.address_map)
        return machine, table, eager

    def test_first_read_equals_the_eager_build(self, os_platform):
        _, table, eager = os_platform
        assert list(table.mappings.items()) == list(eager.items())
        assert table.mappings is table.mappings

    def test_translate_before_the_first_read_sees_identity_pages(self, os_platform):
        machine, table, eager = os_platform
        last_page = next(reversed(eager))
        address = last_page * table.page_bytes + 123
        assert table.translate(address) == address
        assert table.translate(machine.address_map.region_base(1)) is None
        assert list(table.mappings.items()) == list(eager.items())

    def test_unmap_before_the_first_read_removes_an_identity_page(self, os_platform):
        _, table, eager = os_platform
        page = list(eager)[len(eager) // 2]
        table.unmap_page(page * table.page_bytes)
        del eager[page]
        assert table.translate(page * table.page_bytes) is None
        assert list(table.mappings.items()) == list(eager.items())

    def test_map_before_the_first_read_keeps_the_eager_order(self, os_platform):
        machine, table, eager = os_platform
        remapped = next(iter(eager))
        outside = machine.address_map.region_base(1) // table.page_bytes
        table.map_page(remapped * table.page_bytes, outside * table.page_bytes)
        table.map_page(outside * table.page_bytes, outside * table.page_bytes)
        eager[remapped] = outside
        eager[outside] = outside
        assert list(table.mappings.items()) == list(eager.items())

    def test_a_probe_leaves_another_machines_table_unchanged(self):
        platforms = []
        for _ in range(2):
            machine = Machine(config_for_spec("F+P+M+A"), num_cores=2)
            operating_system = MaliciousOS(machine, SecurityMonitor(machine))
            victim = operating_system.launch_enclave({2, 3}, {0x1000: b"secret"}, core_id=1)
            platforms.append((machine, operating_system, victim))
        (_, prober, victim), (machine, bystander, _) = platforms
        assert prober.probe_enclave_memory(victim) is False
        target_page = machine.address_map.region_base(2) // 4096
        assert prober.domain.page_table.mappings[target_page] == target_page
        eager = _eager_identity_mappings(bystander.domain.regions, machine.address_map)
        assert target_page not in eager
        assert list(bystander.domain.page_table.mappings.items()) == list(eager.items())

    def test_serving_machine_build_leaves_the_os_table_unbuilt(self):
        host = _TenantMachine(config_for_spec("F+P+M+A"), 2, 4, 7)
        assert "mappings" not in vars(host.os.domain.page_table)
