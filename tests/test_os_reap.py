"""Tests for process teardown (kernel.reap)."""

from repro.cpu import Asm, Mem, R1
from repro.machine.cluster import Cluster
from repro.memsys.address import PAGE_SIZE
from repro.os.syscalls import MapArgs, Syscall
from repro.sim import Process

VARGS = 0x0020_0000
VSEND = 0x0030_0000
VRECV = 0x0040_0000


def exit_program():
    asm = Asm("exit")
    asm.syscall(Syscall.EXIT)
    return asm.build()


def boot_with_mapping():
    cluster = Cluster(2, 1)
    kernel0, kernel1 = cluster.kernel(0), cluster.kernel(1)
    receiver = cluster.spawn(1, "recv", exit_program())
    kernel1.alloc_region(receiver, VRECV, PAGE_SIZE)
    asm = Asm("send")
    asm.mov(R1, VARGS)
    asm.syscall(Syscall.MAP)
    asm.mov(Mem(disp=VSEND), 1)
    asm.syscall(Syscall.EXIT)
    sender = cluster.spawn(0, "send", asm.build())
    kernel0.alloc_region(sender, VSEND, PAGE_SIZE)
    kernel0.alloc_region(sender, VARGS, PAGE_SIZE)
    kernel0.write_user_words(
        sender, VARGS,
        MapArgs(VSEND, PAGE_SIZE, 1, receiver.pid, VRECV, 0).to_words(),
    )
    cluster.start()
    cluster.run()
    return cluster, sender, receiver


def test_reap_releases_mappings_and_pages():
    cluster, sender, receiver = boot_with_mapping()
    kernel0 = cluster.kernel(0)
    free_before = len(kernel0._free_pages)
    Process(cluster.sim, kernel0.reap(sender), "reap").start()
    cluster.run()
    assert not kernel0.mappings
    assert sender.pid not in kernel0.processes
    assert len(kernel0._free_pages) > free_before
    assert kernel0.node.nic.nipt.mapped_out_pages() == []


def test_reap_notifies_destination_kernel():
    cluster, sender, receiver = boot_with_mapping()
    kernel0, kernel1 = cluster.kernel(0), cluster.kernel(1)
    Process(cluster.sim, kernel0.reap(sender), "reap").start()
    cluster.run()
    assert not kernel1.imports
    assert kernel1.node.nic.nipt.mapped_in_pages() == []
    # The receiver's page is unpinned again.
    pte = receiver.page_table.entry(VRECV // PAGE_SIZE)
    assert not pte.pinned


def test_stray_packets_after_reap_are_dropped():
    cluster, sender, receiver = boot_with_mapping()
    kernel0 = cluster.kernel(0)
    node0, node1 = cluster.nodes
    Process(cluster.sim, kernel0.reap(sender), "reap").start()
    cluster.run()
    # Hand-inject a packet aimed at the receiver's (now unmapped) page.
    from repro.mesh.packet import Packet

    old_frame = receiver.page_table.entry(VRECV // PAGE_SIZE).ppage

    def rogue():
        packet = Packet(
            node0.nic.coords,
            node1.nic.coords,
            old_frame * PAGE_SIZE,
            [0xBAD],
        )
        yield from node0.nic.outgoing_fifo.put(packet)

    Process(cluster.sim, rogue(), "rogue").start()
    cluster.run()
    assert node1.nic.unmapped_drops.value == 1
    got = cluster.read_process_words(1, receiver, VRECV, 1)
    assert got == [1]  # old contents intact, rogue write rejected


def test_reap_process_without_mappings():
    cluster = Cluster(2, 1)
    kernel = cluster.kernel(0)
    process = cluster.spawn(0, "p", exit_program())
    kernel.alloc_region(process, VSEND, PAGE_SIZE)
    cluster.start()
    cluster.run()
    Process(cluster.sim, kernel.reap(process), "reap").start()
    cluster.run()
    assert process.pid not in kernel.processes
