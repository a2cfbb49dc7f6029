"""The §4.4 invalidation protocol with MULTIPLE importers of one page.

Two senders on different nodes map into the same destination page (their
halves land in different halves of it).  Evicting that page must
invalidate BOTH remote mappings and collect both acknowledgements before
replacement -- "sending messages to the remote kernels, which invalidate
their NIPT entries and then respond with an acknowledgement.  When all
acknowledgements are received, the page can be replaced."
"""

from repro.cpu import Asm, Mem, R1
from repro.machine.cluster import Cluster
from repro.memsys.address import PAGE_SIZE
from repro.os.params import OsParams
from repro.os.syscalls import MapArgs, Syscall
from repro.sim import Process

VARGS = 0x0020_0000
VSEND = 0x0030_0000
VRECV = 0x0040_0000


def exit_program():
    asm = Asm("exit")
    asm.syscall(Syscall.EXIT)
    return asm.build()


def spawn_half_sender(cluster, node_id, receiver, dest_offset, value):
    """A sender mapping HALF of the receiver's page (2048 bytes)."""
    asm = Asm("sender%d" % node_id)
    asm.mov(R1, VARGS)
    asm.syscall(Syscall.MAP)
    asm.mov(Mem(disp=VSEND), value)
    asm.syscall(Syscall.EXIT)
    kernel = cluster.kernel(node_id)
    sender = cluster.spawn(node_id, "sender%d" % node_id, asm.build())
    kernel.alloc_region(sender, VSEND, PAGE_SIZE)
    kernel.alloc_region(sender, VARGS, PAGE_SIZE)
    kernel.write_user_words(
        sender, VARGS,
        MapArgs(VSEND, PAGE_SIZE // 2, 2, receiver.pid,
                VRECV + dest_offset, 0).to_words(),
    )
    return sender


def test_eviction_invalidates_every_importer():
    cluster = Cluster(3, 1, os_params=OsParams(consistency_policy="invalidate"))
    kernel2 = cluster.kernel(2)
    receiver = cluster.spawn(2, "receiver", exit_program())
    kernel2.alloc_region(receiver, VRECV, PAGE_SIZE)
    sender_a = spawn_half_sender(cluster, 0, receiver, 0, 0xAAA)
    sender_b = spawn_half_sender(cluster, 1, receiver, PAGE_SIZE // 2, 0xBBB)
    cluster.start()
    cluster.run()
    assert cluster.read_process_words(2, receiver, VRECV, 1) == [0xAAA]
    assert cluster.read_process_words(
        2, receiver, VRECV + PAGE_SIZE // 2, 1
    ) == [0xBBB]

    # Evict the shared destination page.
    def evict():
        yield from kernel2.evict_page(receiver, VRECV // PAGE_SIZE)

    Process(cluster.sim, evict(), "evict").start()
    cluster.run()

    # BOTH source kernels invalidated their mappings and write-protected
    # their source pages.
    for node_id, sender in ((0, sender_a), (1, sender_b)):
        kernel = cluster.kernel(node_id)
        record = next(iter(kernel.mappings.values()))
        assert record.status == "invalid"
        assert not sender.page_table.entry(VSEND // PAGE_SIZE).writable
    assert not receiver.page_table.entry(VRECV // PAGE_SIZE).present

    # Sender A writes again: fault -> re-establish -> data in the NEW
    # frame, with the old contents (including B's half) restored.
    asm = Asm("resend")
    asm.mov(Mem(disp=VSEND + 4), 0xA2)
    asm.syscall(Syscall.EXIT)
    kernel0 = cluster.kernel(0)
    resend = kernel0.create_process("resend", asm.build())
    resend.page_table = sender_a.page_table
    kernel0.processes[resend.pid] = resend
    record = next(iter(kernel0.mappings.values()))
    record.pid = resend.pid
    scheduler = cluster.scheduler(0)
    scheduler.add(resend)
    scheduler.start()
    cluster.run()

    assert record.status == "active"
    got = cluster.read_process_words(2, receiver, VRECV, 2)
    assert got == [0xAAA, 0xA2]
    got_b = cluster.read_process_words(2, receiver,
                                       VRECV + PAGE_SIZE // 2, 1)
    assert got_b == [0xBBB]  # restored from swap
    # B's mapping stays invalid until B itself writes.
    assert next(iter(cluster.kernel(1).mappings.values())).status == "invalid"
