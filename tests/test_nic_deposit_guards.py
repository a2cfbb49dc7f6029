"""Guards on the incoming deposit path: malformed packets never write."""

from repro.machine import ShrimpSystem, mapping
from repro.memsys.address import PAGE_SIZE
from repro.mesh.packet import Packet
from repro.nic.nipt import MappingMode
from repro.sim import Process

SRC, DST = 0x10000, 0x20000


def make_system():
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
    return system, a, b


def deliver_raw(system, b, packet):
    """Slip a packet straight into b's incoming FIFO (hardware-fault model)."""

    def inject():
        yield 10
        b.nic.incoming_fifo.put_functional(packet)

    Process(system.sim, inject(), "inject").start()
    system.run()


def test_deposit_outside_dram_dropped():
    system, a, b = make_system()
    bogus = Packet(a.nic.coords, b.nic.coords,
                   b.address_map.dram_bytes + 0x1000, [1])
    deliver_raw(system, b, bogus)
    assert b.nic.unmapped_drops.value == 1
    assert b.nic.packets_delivered.value == 0


def test_deposit_into_command_space_dropped():
    """A packet aimed at the command region must never reach the command
    device -- remote nodes cannot forge NIC commands."""
    system, a, b = make_system()
    bogus = Packet(a.nic.coords, b.nic.coords,
                   b.address_map.command_addr_for(DST), [0x12345])
    dma_before = b.nic.dma_engine.transfers.value
    deliver_raw(system, b, bogus)
    assert b.nic.unmapped_drops.value == 1
    assert b.nic.dma_engine.transfers.value == dma_before


def test_cross_page_payload_dropped():
    """A payload spanning two destination pages (impossible from a healthy
    sender) is rejected even when the first page is mapped in."""
    system, a, b = make_system()
    addr = DST + PAGE_SIZE - 8  # 2 words fit; 4 words cross the boundary
    bogus = Packet(a.nic.coords, b.nic.coords, addr, [1, 2, 3, 4])
    deliver_raw(system, b, bogus)
    assert b.nic.unmapped_drops.value == 1
    assert b.memory.read_word(addr) == 0


def test_negative_space_never_reached():
    system, a, b = make_system()
    # Highest DRAM word, mapped in: delivered fine (control case).
    b.nic.nipt.map_in(b.address_map.dram_pages - 1)
    ok = Packet(a.nic.coords, b.nic.coords,
                b.address_map.dram_bytes - 4, [0x55])
    deliver_raw(system, b, ok)
    assert b.nic.packets_delivered.value == 1
    assert b.memory.read_word(b.address_map.dram_bytes - 4) == 0x55
