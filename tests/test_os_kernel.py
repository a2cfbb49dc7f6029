"""End-to-end OS tests: the map syscall, command-page granting, unmap.

These run real user programs (assembly) on the simulated cluster: the
program builds a MAP argument block, traps into the kernel, and then
communicates entirely at user level -- the paper's central structure
(figure 1: map outside the loop, send at user level inside it).
"""

from repro.cpu import Asm, Mem, R0, R1
from repro.machine.cluster import Cluster
from repro.memsys.address import PAGE_SIZE
from repro.os.syscalls import Errno, MapArgs, Syscall

VARGS = 0x0020_0000
VSEND = 0x0030_0000
VRECV = 0x0040_0000
VCMD = 0x0050_0000


def spin_forever_program():
    asm = Asm("spin")
    asm.syscall(Syscall.EXIT)
    return asm.build()


def make_cluster(os_params=None, width=2, height=1):
    return Cluster(width, height, os_params=os_params)


def setup_receiver(cluster, node_id):
    """A destination process with a receive buffer; it just exits."""
    kernel = cluster.kernel(node_id)
    receiver = cluster.spawn(node_id, "receiver", spin_forever_program())
    kernel.alloc_region(receiver, VRECV, 2 * PAGE_SIZE)
    return receiver


def map_args(dest_pid, nbytes=PAGE_SIZE, mode_code=0, command_vaddr=0,
             src_vaddr=VSEND, dest_vaddr=VRECV, dest_node=1):
    return MapArgs(src_vaddr, nbytes, dest_node, dest_pid, dest_vaddr,
                   mode_code, command_vaddr)


def sender_program(store_values, syscall_map=True):
    """MAP (args prepared at VARGS by the test), then store values."""
    asm = Asm("sender")
    if syscall_map:
        asm.mov(R1, VARGS)
        asm.syscall(Syscall.MAP)
    for i, value in enumerate(store_values):
        asm.mov(Mem(disp=VSEND + 4 * i), value)
    asm.syscall(Syscall.EXIT)
    return asm


class TestMapSyscall:
    def test_map_then_user_level_stores_reach_remote_process(self):
        cluster = make_cluster()
        receiver = setup_receiver(cluster, 1)
        kernel0 = cluster.kernel(0)
        sender = cluster.spawn(0, "sender", sender_program([10, 20, 30]).build())
        kernel0.alloc_region(sender, VSEND, PAGE_SIZE)
        kernel0.alloc_region(sender, VARGS, PAGE_SIZE)
        kernel0.write_user_words(
            sender, VARGS, map_args(receiver.pid).to_words()
        )
        cluster.start()
        cluster.run()
        got = cluster.read_process_words(1, receiver, VRECV, 3)
        assert got == [10, 20, 30]
        # r0 carries the mapping id (a positive handle).
        assert sender.exit_context.registers["r0"] > 0
        assert kernel0.mappings  # record retained

    def test_map_to_unknown_process_fails(self):
        cluster = make_cluster()
        setup_receiver(cluster, 1)
        kernel0 = cluster.kernel(0)
        sender = cluster.spawn(0, "sender", sender_program([], True).build())
        kernel0.alloc_region(sender, VSEND, PAGE_SIZE)
        kernel0.alloc_region(sender, VARGS, PAGE_SIZE)
        kernel0.write_user_words(
            sender, VARGS, map_args(dest_pid=999).to_words()
        )
        cluster.start()
        cluster.run()
        result = sender.exit_context.registers["r0"]
        assert result == Errno.ENODEST & 0xFFFFFFFF

    def test_map_with_unmapped_source_fails(self):
        cluster = make_cluster()
        receiver = setup_receiver(cluster, 1)
        kernel0 = cluster.kernel(0)
        sender = cluster.spawn(0, "sender", sender_program([], True).build())
        kernel0.alloc_region(sender, VARGS, PAGE_SIZE)  # no VSEND region
        kernel0.write_user_words(
            sender, VARGS, map_args(receiver.pid).to_words()
        )
        cluster.start()
        cluster.run()
        assert sender.exit_context.registers["r0"] == Errno.EFAULT & 0xFFFFFFFF

    def test_map_with_bad_mode_fails(self):
        cluster = make_cluster()
        receiver = setup_receiver(cluster, 1)
        kernel0 = cluster.kernel(0)
        sender = cluster.spawn(0, "sender", sender_program([], True).build())
        kernel0.alloc_region(sender, VSEND, PAGE_SIZE)
        kernel0.alloc_region(sender, VARGS, PAGE_SIZE)
        kernel0.write_user_words(
            sender, VARGS, map_args(receiver.pid, mode_code=9).to_words()
        )
        cluster.start()
        cluster.run()
        assert sender.exit_context.registers["r0"] == Errno.EINVAL & 0xFFFFFFFF

    def test_mapping_spans_pages(self):
        cluster = make_cluster()
        receiver = setup_receiver(cluster, 1)
        kernel0 = cluster.kernel(0)
        values = [1, 2, 3]
        asm = sender_program(values)
        # also store into the second page
        asm_prog = Asm("sender2")
        asm_prog.mov(R1, VARGS)
        asm_prog.syscall(Syscall.MAP)
        asm_prog.mov(Mem(disp=VSEND), 7)
        asm_prog.mov(Mem(disp=VSEND + PAGE_SIZE), 8)
        asm_prog.syscall(Syscall.EXIT)
        sender = cluster.spawn(0, "sender", asm_prog.build())
        kernel0.alloc_region(sender, VSEND, 2 * PAGE_SIZE)
        kernel0.alloc_region(sender, VARGS, PAGE_SIZE)
        kernel0.write_user_words(
            sender, VARGS, map_args(receiver.pid, nbytes=2 * PAGE_SIZE).to_words()
        )
        cluster.start()
        cluster.run()
        assert cluster.read_process_words(1, receiver, VRECV, 1) == [7]
        assert cluster.read_process_words(
            1, receiver, VRECV + PAGE_SIZE, 1
        ) == [8]

    def test_source_pages_become_write_through(self):
        cluster = make_cluster()
        receiver = setup_receiver(cluster, 1)
        kernel0 = cluster.kernel(0)
        sender = cluster.spawn(0, "sender", sender_program([5]).build())
        kernel0.alloc_region(sender, VSEND, PAGE_SIZE)
        kernel0.alloc_region(sender, VARGS, PAGE_SIZE)
        kernel0.write_user_words(
            sender, VARGS, map_args(receiver.pid).to_words()
        )
        cluster.start()
        cluster.run()
        pte = sender.page_table.entry(VSEND // PAGE_SIZE)
        assert pte.policy == "WT"


class TestCommandPageGranting:
    def test_deliberate_send_via_granted_command_page(self):
        """The full user-level deliberate-update flow of section 4.3,
        with the command page granted by the kernel (section 4.2)."""
        cluster = make_cluster()
        receiver = setup_receiver(cluster, 1)
        kernel0 = cluster.kernel(0)
        asm = Asm("deliberate-sender")
        asm.mov(R1, VARGS)
        asm.syscall(Syscall.MAP)
        # Fill the buffer (deliberate mode: nothing propagates yet).
        for i in range(8):
            asm.mov(Mem(disp=VSEND + 4 * i), i + 100)
        # Arm the DMA engine through the granted command page.
        asm.mov(R1, 8)  # word count
        asm.label("retry")
        asm.mov(R0, 0)
        asm.cmpxchg(Mem(disp=VCMD), R1)
        asm.jnz("retry")
        asm.syscall(Syscall.EXIT)
        sender = cluster.spawn(0, "sender", asm.build())
        kernel0.alloc_region(sender, VSEND, PAGE_SIZE)
        kernel0.alloc_region(sender, VARGS, PAGE_SIZE)
        kernel0.write_user_words(
            sender,
            VARGS,
            map_args(receiver.pid, mode_code=2, command_vaddr=VCMD).to_words(),
        )
        cluster.start()
        cluster.run()
        got = cluster.read_process_words(1, receiver, VRECV, 8)
        assert got == [i + 100 for i in range(8)]

    def test_command_page_not_granted_without_request(self):
        cluster = make_cluster()
        receiver = setup_receiver(cluster, 1)
        kernel0 = cluster.kernel(0)
        sender = cluster.spawn(0, "sender", sender_program([1]).build())
        kernel0.alloc_region(sender, VSEND, PAGE_SIZE)
        kernel0.alloc_region(sender, VARGS, PAGE_SIZE)
        kernel0.write_user_words(
            sender, VARGS, map_args(receiver.pid).to_words()
        )
        cluster.start()
        cluster.run()
        assert sender.page_table.entry(VCMD // PAGE_SIZE) is None


class TestUnmap:
    def test_unmap_stops_propagation(self):
        cluster = make_cluster()
        receiver = setup_receiver(cluster, 1)
        kernel0 = cluster.kernel(0)
        asm = Asm("mapper")
        asm.mov(R1, VARGS)
        asm.syscall(Syscall.MAP)
        asm.mov(Mem(disp=VSEND), 1)  # propagates
        asm.mov(R1, R0)  # mapping id
        asm.syscall(Syscall.UNMAP)
        asm.mov(Mem(disp=VSEND + 4), 2)  # must NOT propagate
        asm.syscall(Syscall.EXIT)
        sender = cluster.spawn(0, "sender", asm.build())
        kernel0.alloc_region(sender, VSEND, PAGE_SIZE)
        kernel0.alloc_region(sender, VARGS, PAGE_SIZE)
        kernel0.write_user_words(
            sender, VARGS, map_args(receiver.pid).to_words()
        )
        cluster.start()
        cluster.run()
        assert cluster.read_process_words(1, receiver, VRECV, 2) == [1, 0]
        assert sender.exit_context.registers["r0"] == Errno.OK
        assert not kernel0.mappings

    def test_unmap_bad_id_fails(self):
        cluster = make_cluster()
        asm = Asm("bad-unmap")
        asm.mov(R1, 0xDEAD)
        asm.syscall(Syscall.UNMAP)
        asm.syscall(Syscall.EXIT)
        proc = cluster.spawn(0, "p", asm.build())
        cluster.start()
        cluster.run()
        assert proc.exit_context.registers["r0"] == Errno.EINVAL & 0xFFFFFFFF
