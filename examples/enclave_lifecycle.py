#!/usr/bin/env python3
"""Enclave lifecycle on the MI6 platform.

Walks the full life of an enclave exactly as Section 6.2 describes it:
the untrusted OS asks the security monitor to create an enclave over two
DRAM regions, loads and measures its pages, schedules it on a core (which
purges the core first), exchanges data with it through the monitor's
mailbox and privileged-memcopy primitives, and finally destroys it — at
which point the monitor scrubs the regions and the LLC sets they map to.

Along the way the script shows the monitor refusing the hostile requests
a malicious OS might make.
"""

from repro import MaliciousOS, Machine, SecurityMonitor, config_for_spec


def main() -> None:
    # Mitigation specs are the composable vocabulary: any +-combination
    # of FLUSH/PART/MISS/ARB/NONSPEC builds a machine (F+P+M+A is the
    # paper's full MI6 stack).
    machine = Machine(config_for_spec("F+P+M+A"), num_cores=2)
    monitor = SecurityMonitor(machine)
    operating_system = MaliciousOS(machine, monitor)

    print("== enclave creation, measurement, scheduling ==")
    enclave = operating_system.launch_enclave(
        regions={2, 3},
        pages={0x1000: b"enclave code", 0x2000: b"enclave data"},
        core_id=1,
    )
    print(f"enclave id          : {enclave.enclave_id}")
    print(f"measurement         : {enclave.measurement[:32]}...")
    print(f"state               : {enclave.state.name}")
    print(f"core 1 purges so far: {machine.core(1).purge_count}"
          f" ({machine.core(1).purge_stall_cycles} stall cycles)")
    print(f"core 1 regions      : {sorted(machine.core(1).region_bitvector.allowed_regions())}")
    attestation = monitor.attest_enclave(enclave, report_data=b"session-key-hash")
    print(f"attestation verifies: {attestation.verify(enclave.measurement, {'mi6-platform'})}")

    print()
    print("== communication through the monitor ==")
    monitor.os_write_buffer(enclave.enclave_id, b"untrusted request")
    print(f"enclave reads OS buf: {monitor.enclave_read_os_buffer(enclave)!r}")
    monitor.enclave_write_os_buffer(enclave, b"sealed response")
    print(f"OS reads result     : {monitor.os_read_buffer(enclave.enclave_id)!r}")
    monitor.mailbox_send(enclave, operating_system.os_domain_id(), b"64-byte authenticated message")
    message = monitor.mailbox_receive(operating_system.os_domain_id())
    print(f"mailbox delivered   : {message.payload!r} (sender measured as {message.sender_measurement[:12]}...)")

    print()
    print("== hostile OS requests are refused ==")
    print(f"grab enclave regions -> {type(operating_system.try_grab_enclave_regions(enclave)).__name__}")
    print(f"grab monitor PAR     -> {type(operating_system.try_grab_monitor_region()).__name__}")
    print(f"inject page post-measurement -> {type(operating_system.try_load_page_after_measurement(enclave)).__name__}")
    print(f"overflow memcopy buffer -> {type(operating_system.try_oversized_memcopy(enclave)).__name__}")
    other = monitor.create_enclave({6, 7})
    monitor.finalize_measurement(other)
    print(f"schedule over a running enclave -> {type(operating_system.try_schedule_over_enclave(enclave, other)).__name__}")
    monitor.destroy_enclave(other)
    print(f"probe enclave memory from OS core emitted an access: {operating_system.probe_enclave_memory(enclave)}")

    print()
    print("== teardown ==")
    monitor.destroy_enclave(enclave)
    print(f"state               : {enclave.state.name}")
    print(f"TLB shootdowns      : {monitor.tlb_shootdowns}")
    print(f"live domains        : {sorted(monitor.live_domains())}")


if __name__ == "__main__":
    main()
