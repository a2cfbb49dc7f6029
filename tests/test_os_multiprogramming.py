"""Multiprogramming tests.

The paper's figure 3 point: two processes' mappings coexist because the
NIPT maps *physical* pages, so "a context switch between them does not
require any action on the part of the network interface".  We run two
independent communicating process pairs through a preemptive round-robin
scheduler and check full isolation, plus delivery into the memory of a
process that is currently descheduled.
"""

from repro.cpu import Asm, Mem, R1
from repro.machine.cluster import Cluster
from repro.memsys.address import PAGE_SIZE
from repro.os.syscalls import MapArgs, Syscall
from repro.os.params import OsParams

VARGS = 0x0020_0000
VSEND = 0x0030_0000
VRECV = 0x0040_0000


def exit_program():
    asm = Asm("exit")
    asm.syscall(Syscall.EXIT)
    return asm.build()


def setup_pair(cluster, dest_pid, values, nbytes=PAGE_SIZE):
    asm = Asm("sender")
    asm.mov(R1, VARGS)
    asm.syscall(Syscall.MAP)
    for i, value in enumerate(values):
        asm.mov(Mem(disp=VSEND + 4 * i), value)
    asm.syscall(Syscall.EXIT)
    kernel0 = cluster.kernel(0)
    sender = cluster.spawn(0, "sender%d" % dest_pid, asm.build())
    kernel0.alloc_region(sender, VSEND, nbytes)
    kernel0.alloc_region(sender, VARGS, PAGE_SIZE)
    kernel0.write_user_words(
        sender,
        VARGS,
        MapArgs(VSEND, nbytes, 1, dest_pid, VRECV, 0).to_words(),
    )
    return sender


def test_two_process_pairs_are_isolated():
    """Two senders on node 0 talk to two distinct receivers on node 1;
    each receiver sees exactly its own sender's data."""
    cluster = Cluster(2, 1)
    kernel1 = cluster.kernel(1)
    recv_a = cluster.spawn(1, "recv_a", exit_program())
    recv_b = cluster.spawn(1, "recv_b", exit_program())
    kernel1.alloc_region(recv_a, VRECV, PAGE_SIZE)
    kernel1.alloc_region(recv_b, VRECV, PAGE_SIZE)
    setup_pair(cluster, recv_a.pid, [111, 112])
    setup_pair(cluster, recv_b.pid, [221, 222])
    cluster.start()
    cluster.run()
    assert cluster.read_process_words(1, recv_a, VRECV, 2) == [111, 112]
    assert cluster.read_process_words(1, recv_b, VRECV, 2) == [221, 222]
    # Same virtual address, different physical pages: true isolation.
    assert (
        recv_a.page_table.entry(VRECV // PAGE_SIZE).ppage
        != recv_b.page_table.entry(VRECV // PAGE_SIZE).ppage
    )


def test_preemption_interleaves_processes():
    """A tiny timeslice forces context switches mid-program; both finish
    and the scheduler actually preempted."""
    os_params = OsParams(timeslice_ns=2_000)
    cluster = Cluster(2, 1, os_params=os_params)

    def spin_program(iterations):
        asm = Asm("spinner")
        asm.mov(R1, iterations)
        asm.label("loop")
        asm.dec(R1)
        asm.jnz("loop")
        asm.syscall(Syscall.EXIT)
        return asm.build()

    p1 = cluster.spawn(0, "p1", spin_program(400))
    p2 = cluster.spawn(0, "p2", spin_program(400))
    cluster.start()
    cluster.run()
    scheduler = cluster.scheduler(0)
    assert p1.state == "finished" and p2.state == "finished"
    assert scheduler.context_switches > 2  # real interleaving


def test_delivery_into_descheduled_process_memory():
    """Data arrives for a process that is not currently running -- the NIC
    deposits into its physical pages regardless (figure 3)."""
    os_params = OsParams(timeslice_ns=5_000)
    cluster = Cluster(2, 1, os_params=os_params)
    kernel1 = cluster.kernel(1)

    # The receiver exits immediately; a hog then occupies node 1's CPU.
    receiver = cluster.spawn(1, "receiver", exit_program())
    kernel1.alloc_region(receiver, VRECV, PAGE_SIZE)

    def hog():
        asm = Asm("hog")
        asm.mov(R1, 3000)
        asm.label("loop")
        asm.dec(R1)
        asm.jnz("loop")
        asm.syscall(Syscall.EXIT)
        return asm.build()

    cluster.spawn(1, "hog", hog())
    sender = setup_pair(cluster, receiver.pid, [42])
    cluster.start()
    cluster.run()
    assert cluster.read_process_words(1, receiver, VRECV, 1) == [42]


def test_yield_syscall_rotates():
    os_params = OsParams(timeslice_ns=10_000_000)  # huge: only YIELD rotates
    cluster = Cluster(2, 1, os_params=os_params)
    order = []

    def marker_program(tag, mem_addr):
        asm = Asm("marker%d" % tag)
        asm.mov(Mem(disp=mem_addr), tag)
        asm.syscall(Syscall.YIELD)
        asm.mov(Mem(disp=mem_addr + 4), tag * 10)
        asm.syscall(Syscall.EXIT)
        return asm.build()

    kernel0 = cluster.kernel(0)
    a = cluster.spawn(0, "a", marker_program(1, VSEND))
    b = cluster.spawn(0, "b", marker_program(2, VSEND))
    kernel0.alloc_region(a, VSEND, PAGE_SIZE)
    kernel0.alloc_region(b, VSEND, PAGE_SIZE)
    cluster.start()
    cluster.run()
    assert a.state == "finished" and b.state == "finished"
    assert cluster.scheduler(0).context_switches >= 4  # a, b, a, b
