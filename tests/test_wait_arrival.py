"""Tests for interrupt-driven receive (WAIT_ARRIVAL, section 4.2)."""

from repro.cpu import Asm, Mem, R1
from repro.machine.cluster import Cluster
from repro.memsys.address import PAGE_SIZE
from repro.os.syscalls import Errno, MapArgs, Syscall

VARGS = 0x0020_0000
VSEND = 0x0030_0000
VRECV = 0x0040_0000


def boot(sender_store_delay_iters=0):
    cluster = Cluster(2, 1)
    kernel0, kernel1 = cluster.kernel(0), cluster.kernel(1)

    recv_asm = Asm("waiter")
    recv_asm.mov(R1, VRECV)
    recv_asm.syscall(Syscall.WAIT_ARRIVAL)
    # After waking: read the received word into a register (checkable in
    # the exit context without cache flushing).
    recv_asm.mov(R1, Mem(disp=VRECV))
    recv_asm.syscall(Syscall.EXIT)
    receiver = cluster.spawn(1, "waiter", recv_asm.build())
    kernel1.alloc_region(receiver, VRECV, PAGE_SIZE)

    send_asm = Asm("sender")
    send_asm.mov(R1, VARGS)
    send_asm.syscall(Syscall.MAP)
    if sender_store_delay_iters:
        send_asm.mov(R1, sender_store_delay_iters)
        send_asm.label("delay")
        send_asm.dec(R1)
        send_asm.jnz("delay")
    send_asm.mov(Mem(disp=VSEND), 0x77)
    send_asm.syscall(Syscall.EXIT)
    sender = cluster.spawn(0, "sender", send_asm.build())
    kernel0.alloc_region(sender, VSEND, PAGE_SIZE)
    kernel0.alloc_region(sender, VARGS, PAGE_SIZE)
    kernel0.write_user_words(
        sender, VARGS,
        MapArgs(VSEND, PAGE_SIZE, 1, receiver.pid, VRECV, 0).to_words(),
    )
    return cluster, sender, receiver


def test_wait_arrival_wakes_on_data():
    cluster, sender, receiver = boot(sender_store_delay_iters=2000)
    cluster.start()
    cluster.run()
    assert receiver.state == "finished"
    assert receiver.exit_context.registers["r0"] == Errno.OK
    assert receiver.exit_context.registers["r1"] == 0x77


def test_waiting_burns_no_user_instructions():
    """The event-driven receiver retires a constant handful of user
    instructions no matter how long the data takes -- unlike a spin loop,
    whose count grows with the wait."""
    counts = []
    for delay in (500, 5000):
        cluster, _s, receiver = boot(sender_store_delay_iters=delay)
        cluster.start()
        cluster.run()
        counts.append(cluster.nodes[1].cpu.counts.total)
    assert counts[0] == counts[1]


def test_wait_placed_before_mapping_exists_still_wakes():
    """A receiver may park before the peer's map call completes: the wait
    covers the whole mapping-then-data sequence."""
    cluster, _sender, receiver = boot(sender_store_delay_iters=0)
    cluster.start()
    cluster.run()
    assert receiver.state == "finished"
    assert receiver.exit_context.registers["r0"] == Errno.OK


def test_wait_on_bad_address_faults():
    cluster = Cluster(2, 1)
    asm = Asm("bad2")
    asm.mov(R1, 0x0666_0000)
    asm.syscall(Syscall.WAIT_ARRIVAL)
    asm.syscall(Syscall.EXIT)
    process = cluster.spawn(0, "bad2", asm.build())
    cluster.start()
    cluster.run()
    assert process.exit_context.registers["r0"] == Errno.EFAULT & 0xFFFFFFFF
