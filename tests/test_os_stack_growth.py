"""Tests for demand-grown stacks and the NX/2 connection restriction."""

import pytest

from repro.cpu import Asm, R1, R3, R4, R5
from repro.machine import ShrimpSystem
from repro.machine.cluster import Cluster
from repro.msg import nx2
from repro.os.process import OsProcess
from repro.os.syscalls import Syscall


def deep_push_program(pushes):
    asm = Asm("pusher")
    asm.mov(R1, 0xAB)
    for _ in range(pushes):
        asm.push(R1)
    for _ in range(pushes):
        asm.pop(R1)
    asm.syscall(Syscall.EXIT)
    return asm.build()


def _mapped_stack_pages(process):
    return sum(
        1
        for vpage in process.page_table.mapped_vpages()
        if vpage >= (OsProcess.STACK_TOP // 4096) - OsProcess.MAX_STACK_PAGES
    )


def test_stack_grows_on_demand():
    cluster = Cluster(2, 1)
    kernel = cluster.kernel(0)
    # Push past the eagerly-mapped stack pages (4 pages = 4096 words).
    pushes = (OsProcess.STACK_PAGES + 2) * 1024 + 10
    process = cluster.spawn(0, "pusher", deep_push_program(pushes))
    cluster.start()
    cluster.run()
    assert process.state == "finished"
    assert process.exit_context.registers["r1"] == 0xAB
    assert _mapped_stack_pages(process) > OsProcess.STACK_PAGES


def distinct_push_program(pushes):
    """Push 1..pushes, then pop them all; r3 ORs in every popped value's
    difference from the one expected, so r3 == 0 iff order held."""
    asm = Asm("distinct")
    asm.mov(R3, 0)
    for value in range(1, pushes + 1):
        asm.push(value)
    for value in range(pushes, 0, -1):
        asm.pop(R1)
        asm.sub(R1, value)
        asm.or_(R3, R1)
    asm.syscall(Syscall.EXIT)
    return asm.build()


def test_faulting_push_restarts_without_losing_a_slot():
    """A push that faults on a not-yet-mapped stack page restarts with
    sp untouched: every value pops back in order, and sp ends where it
    started."""
    cluster = Cluster(2, 1)
    # 10 words into the second page past the eagerly-mapped ones: two
    # on-demand stack faults.
    pushes = (OsProcess.STACK_PAGES + 1) * 1024 + 10
    process = cluster.spawn(0, "distinct", distinct_push_program(pushes))
    cluster.start()
    cluster.run()
    assert process.state == "finished"
    registers = process.exit_context.registers
    assert registers["r3"] == 0
    assert registers["sp"] == OsProcess.STACK_TOP
    assert _mapped_stack_pages(process) == OsProcess.STACK_PAGES + 2


def test_faulting_call_restarts_without_losing_a_slot():
    """A call chain that crosses into an unmapped stack page: the
    faulting call restarts with sp untouched, so every ret finds its own
    return index.  Index 0 is reached once; a ret that popped a skipped
    (zero) slot would land there again and exit with r5 = 0xBAD."""
    depth = OsProcess.STACK_PAGES * 1024 + 10
    asm = Asm("chain")
    asm.cmp(R4, 0)
    asm.jnz("bad")
    asm.mov(R4, 1)
    asm.mov(R1, depth)
    asm.call("down")
    asm.syscall(Syscall.EXIT)
    asm.label("down")
    asm.dec(R1)
    asm.jz("bottom")
    asm.call("down")
    asm.label("bottom")
    asm.ret()
    asm.label("bad")
    asm.mov(R5, 0xBAD)
    asm.syscall(Syscall.EXIT)
    cluster = Cluster(2, 1)
    process = cluster.spawn(0, "chain", asm.build())
    cluster.start()
    cluster.run()
    assert process.state == "finished"
    registers = process.exit_context.registers
    assert registers["r5"] == 0
    assert registers["r1"] == 0
    assert registers["sp"] == OsProcess.STACK_TOP
    assert _mapped_stack_pages(process) == OsProcess.STACK_PAGES + 1


def test_runaway_stack_still_faults():
    """Beyond MAX_STACK_PAGES the guard ends and the fault is fatal."""
    from repro.cpu import PageFault

    cluster = Cluster(2, 1)
    pushes = (OsProcess.MAX_STACK_PAGES + 1) * 1024
    cluster.spawn(0, "runaway", deep_push_program(pushes))
    cluster.start()
    with pytest.raises(PageFault):
        cluster.run()


def test_wild_access_still_faults():
    from repro.cpu import Mem, PageFault, R2

    cluster = Cluster(2, 1)
    asm = Asm("wild")
    asm.mov(R2, Mem(disp=0x0012_3450))  # far from any region or stack
    asm.syscall(Syscall.EXIT)
    cluster.spawn(0, "wild", asm.build())
    cluster.start()
    with pytest.raises(PageFault):
        cluster.run()


class TestNx2ConnectionRestriction:
    def test_same_slot_reuse_rejected(self):
        system = ShrimpSystem(2, 1)
        system.start()
        a, b = system.nodes
        nx2.setup_connection(system, a, b, msg_type=7)
        with pytest.raises(nx2.Nx2Error, match="in use"):
            nx2.setup_connection(system, a, b, msg_type=9)

    def test_type_zero_reserved(self):
        system = ShrimpSystem(2, 1)
        system.start()
        a, b = system.nodes
        with pytest.raises(nx2.Nx2Error, match="reserved"):
            nx2.setup_connection(system, a, b, msg_type=0)
