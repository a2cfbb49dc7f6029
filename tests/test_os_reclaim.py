"""Tests for memory-pressure reclaim (kernel.reclaim)."""

from repro.cpu import Asm, Mem, R1, R2
from repro.machine.cluster import Cluster
from repro.memsys.address import PAGE_SIZE
from repro.os.params import OsParams
from repro.os.syscalls import MapArgs, Syscall
from repro.sim import Process

VDATA = 0x0030_0000
VARGS = 0x0020_0000
VRECV = 0x0040_0000


def exit_program():
    asm = Asm("exit")
    asm.syscall(Syscall.EXIT)
    return asm.build()


def test_reclaim_frees_pages_and_preserves_contents():
    cluster = Cluster(2, 1)
    kernel = cluster.kernel(0)
    process = cluster.spawn(0, "p", exit_program())
    kernel.alloc_region(process, VDATA, 3 * PAGE_SIZE)
    for i in range(3):
        kernel.write_user_words(process, VDATA + i * PAGE_SIZE, [0x100 + i])
    cluster.start()
    cluster.run()

    free_before = len(kernel._free_pages)
    result = {}

    def run_reclaim():
        result["n"] = yield from kernel.reclaim(2)

    Process(cluster.sim, run_reclaim(), "reclaim").start()
    cluster.run()
    assert result["n"] == 2
    assert len(kernel._free_pages) == free_before + 2

    # Touch the data again from a fresh program: faults page it back in
    # with contents intact.
    asm = Asm("reader")
    asm.mov(R1, Mem(disp=VDATA))
    asm.mov(R2, Mem(disp=VDATA + PAGE_SIZE))
    asm.syscall(Syscall.EXIT)
    reader = kernel.create_process("reader", asm.build())
    reader.page_table = process.page_table
    kernel.processes[reader.pid] = reader
    scheduler = cluster.scheduler(0)
    scheduler.add(reader)
    scheduler.start()
    cluster.run()
    assert reader.exit_context.registers["r1"] == 0x100
    assert reader.exit_context.registers["r2"] == 0x101


def test_reclaim_skips_pinned_pages():
    """Under the pin policy, pages with incoming mappings are untouchable;
    reclaim must route around them."""
    cluster = Cluster(2, 1, os_params=OsParams(consistency_policy="pin"))
    kernel0, kernel1 = cluster.kernel(0), cluster.kernel(1)
    receiver = cluster.spawn(1, "recv", exit_program())
    kernel1.alloc_region(receiver, VRECV, PAGE_SIZE)
    asm = Asm("send")
    asm.mov(R1, VARGS)
    asm.syscall(Syscall.MAP)
    asm.syscall(Syscall.EXIT)
    sender = cluster.spawn(0, "send", asm.build())
    kernel0.alloc_region(sender, VDATA, PAGE_SIZE)
    kernel0.alloc_region(sender, VARGS, PAGE_SIZE)
    kernel0.write_user_words(
        sender, VARGS,
        MapArgs(VDATA, PAGE_SIZE, 1, receiver.pid, VRECV, 0).to_words(),
    )
    cluster.start()
    cluster.run()

    result = {}

    def run_reclaim():
        result["n"] = yield from kernel1.reclaim(100)

    Process(cluster.sim, run_reclaim(), "reclaim").start()
    cluster.run()
    # The receive page stayed resident.
    assert receiver.page_table.entry(VRECV // PAGE_SIZE).present
    # Other (stack) pages were reclaimable.
    assert result["n"] >= 1


def test_reclaim_count_zero_is_noop():
    cluster = Cluster(2, 1)
    kernel = cluster.kernel(0)
    cluster.start()
    result = {}

    def run_reclaim():
        result["n"] = yield from kernel.reclaim(0)

    Process(cluster.sim, run_reclaim(), "reclaim").start()
    cluster.run()
    assert result["n"] == 0
