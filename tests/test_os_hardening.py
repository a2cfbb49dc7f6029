"""Kernel robustness: resource exhaustion, big clusters, accounting."""

import pytest

from repro.cpu import Asm, Mem, R1
from repro.machine.cluster import Cluster
from repro.memsys.address import PAGE_SIZE
from repro.os.kernel import KernelError
from repro.os.syscalls import Errno, MapArgs, Syscall
from repro.os.vm import VmError

VARGS = 0x0020_0000
VSEND = 0x0030_0000
VRECV = 0x0040_0000


def exit_program():
    asm = Asm("exit")
    asm.syscall(Syscall.EXIT)
    return asm.build()


class TestResourceExhaustion:
    def test_out_of_physical_pages(self):
        cluster = Cluster(2, 1)
        kernel = cluster.kernel(0)
        process = kernel.create_process("hog", exit_program())
        total = len(kernel._free_pages)
        with pytest.raises(KernelError, match="out of physical pages"):
            kernel.alloc_region(process, 0x0100_0000,
                                (total + 1) * PAGE_SIZE)

    def test_free_page_returns_to_pool(self):
        cluster = Cluster(2, 1)
        kernel = cluster.kernel(0)
        before = len(kernel._free_pages)
        page = kernel.alloc_page()
        assert len(kernel._free_pages) == before - 1
        kernel.free_page(page)
        assert len(kernel._free_pages) == before

    def test_kernel_reserved_pages_never_allocated(self):
        cluster = Cluster(2, 1)
        kernel = cluster.kernel(0)
        allocated = {kernel.alloc_page() for _ in range(50)}
        assert all(p >= kernel.KERNEL_RESERVED_PAGES for p in allocated)

    def test_double_alloc_region_rejected(self):
        cluster = Cluster(2, 1)
        kernel = cluster.kernel(0)
        process = kernel.create_process("p", exit_program())
        kernel.alloc_region(process, VSEND, PAGE_SIZE)
        with pytest.raises(VmError):
            kernel.alloc_region(process, VSEND, PAGE_SIZE)

    def test_unaligned_region_rejected(self):
        cluster = Cluster(2, 1)
        kernel = cluster.kernel(0)
        process = kernel.create_process("p", exit_program())
        with pytest.raises(KernelError):
            kernel.alloc_region(process, VSEND + 100, PAGE_SIZE)


class TestBigCluster:
    def test_map_across_a_16_node_mesh(self):
        """The kernel RPC rides the data network across multiple hops."""
        cluster = Cluster(4, 4)
        src_node, dest_node = 0, 15
        kernel_d = cluster.kernel(dest_node)
        receiver = cluster.spawn(dest_node, "recv", exit_program())
        kernel_d.alloc_region(receiver, VRECV, PAGE_SIZE)

        asm = Asm("sender")
        asm.mov(R1, VARGS)
        asm.syscall(Syscall.MAP)
        asm.mov(Mem(disp=VSEND), 0x5151)
        asm.syscall(Syscall.EXIT)
        kernel_s = cluster.kernel(src_node)
        sender = cluster.spawn(src_node, "send", asm.build())
        kernel_s.alloc_region(sender, VSEND, PAGE_SIZE)
        kernel_s.alloc_region(sender, VARGS, PAGE_SIZE)
        kernel_s.write_user_words(
            sender, VARGS,
            MapArgs(VSEND, PAGE_SIZE, dest_node, receiver.pid, VRECV,
                    0).to_words(),
        )
        cluster.start()
        cluster.run()
        assert cluster.read_process_words(dest_node, receiver, VRECV, 1) == [
            0x5151
        ]

    def test_concurrent_maps_from_many_nodes(self):
        """Four senders map to one destination node concurrently; the
        kernel RPC seq numbers keep the conversations apart."""
        cluster = Cluster(4, 1)
        kernel3 = cluster.kernel(3)
        receivers = []
        for i in range(3):
            receiver = cluster.spawn(3, "recv%d" % i, exit_program())
            kernel3.alloc_region(receiver, VRECV, PAGE_SIZE)
            receivers.append(receiver)
        senders = []
        for i in range(3):
            asm = Asm("send%d" % i)
            asm.mov(R1, VARGS)
            asm.syscall(Syscall.MAP)
            asm.mov(Mem(disp=VSEND), 100 + i)
            asm.syscall(Syscall.EXIT)
            kernel = cluster.kernel(i)
            sender = cluster.spawn(i, "send%d" % i, asm.build())
            kernel.alloc_region(sender, VSEND, PAGE_SIZE)
            kernel.alloc_region(sender, VARGS, PAGE_SIZE)
            kernel.write_user_words(
                sender, VARGS,
                MapArgs(VSEND, PAGE_SIZE, 3, receivers[i].pid, VRECV,
                        0).to_words(),
            )
            senders.append(sender)
        cluster.start()
        cluster.run()
        for i, receiver in enumerate(receivers):
            got = cluster.read_process_words(3, receiver, VRECV, 1)
            assert got == [100 + i]


class TestAccounting:
    def test_kernel_instructions_charged_for_map(self):
        cluster = Cluster(2, 1)
        kernel0, kernel1 = cluster.kernel(0), cluster.kernel(1)
        receiver = cluster.spawn(1, "recv", exit_program())
        kernel1.alloc_region(receiver, VRECV, PAGE_SIZE)
        asm = Asm("send")
        asm.mov(R1, VARGS)
        asm.syscall(Syscall.MAP)
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
        params = kernel0.params
        assert kernel0.kernel_instructions >= (
            params.trap_instructions + params.map_local_instructions
        )
        assert kernel1.kernel_instructions >= params.map_remote_instructions
        hub = cluster.system.instrumentation
        for kernel in (kernel0, kernel1):  # the registry's probe agrees
            assert (hub.value(kernel.name + ".instructions")
                    == kernel.kernel_instructions)

    def test_bad_argument_pointer_returns_efault(self):
        """A wild argument pointer must not crash the kernel: the syscall
        returns EFAULT (and still charged the trap)."""
        cluster = Cluster(2, 1)
        kernel0 = cluster.kernel(0)
        asm = Asm("bad")
        asm.mov(R1, 0xDEAD0000)  # bogus argument pointer
        asm.syscall(Syscall.MAP)
        asm.syscall(Syscall.EXIT)
        process = cluster.spawn(0, "bad", asm.build())
        cluster.start()
        cluster.run()
        assert process.exit_context.registers["r0"] == Errno.EFAULT & 0xFFFFFFFF
        assert kernel0.kernel_instructions >= kernel0.params.trap_instructions
