"""Multiple NX/2 connections coexisting on one node."""

import pytest

from repro.cpu import Asm, Context
from repro.machine import ShrimpSystem
from repro.msg import nx2
from repro.sim import Process

STACK = 0x5F000
BUF = 0x5A000
BUF_R = 0x5C000


def run_at(system, node, program, at_ns=0):
    ctx = Context(stack_top=STACK)

    def runner():
        if at_ns:
            yield at_ns
        yield from node.cpu.run_to_halt(program, ctx)

    Process(system.sim, runner(), node.name + ".p").start()
    return ctx


def test_two_connections_to_different_receivers():
    """One sender, two receivers, distinct types and slots: traffic stays
    on its own connection."""
    system = ShrimpSystem(3, 1)
    system.start()
    a, b, c = system.nodes
    nx2.setup_connection(system, a, b, msg_type=5, slot=0)
    nx2.setup_connection(system, a, c, msg_type=6, slot=1)
    a.memory.write_words(BUF, [0xB0])
    a.memory.write_words(BUF + 4, [0xC0])

    asm = Asm("multi-sender")
    nx2.emit_csend_call(asm, 5, BUF, 4, b.node_id)
    nx2.emit_csend_call(asm, 6, BUF + 4, 4, c.node_id)
    asm.halt()
    nx2.emit_csend(asm)
    run_at(system, a, asm.build())

    ctx_b = run_at(system, b,
                   nx2.receiver_program(5, BUF_R, 64).build(), at_ns=300_000)
    ctx_c = run_at(system, c,
                   nx2.receiver_program(6, BUF_R, 64).build(), at_ns=300_000)
    system.run()
    assert ctx_b.registers["r0"] == 4
    assert ctx_c.registers["r0"] == 4

    def flush(node):
        yield from node.cache.flush_page(BUF_R, 4096)

    Process(system.sim, flush(b), "fb").start()
    Process(system.sim, flush(c), "fc").start()
    system.run()
    assert b.memory.read_word(BUF_R) == 0xB0
    assert c.memory.read_word(BUF_R) == 0xC0


def test_hash_bucket_collision_rejected():
    system = ShrimpSystem(3, 1)
    system.start()
    a, b, c = system.nodes
    nx2.setup_connection(system, a, b, msg_type=5, slot=0)
    with pytest.raises(nx2.Nx2Error, match="bucket"):
        # 21 & 15 == 5: same bucket as type 5.
        nx2.setup_connection(system, a, c, msg_type=21, slot=1)


def test_slot_reuse_rejected():
    system = ShrimpSystem(3, 1)
    system.start()
    a, b, c = system.nodes
    nx2.setup_connection(system, a, b, msg_type=5, slot=0)
    with pytest.raises(nx2.Nx2Error):
        nx2.setup_connection(system, a, c, msg_type=6, slot=0)


def test_slot_out_of_range_rejected():
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    with pytest.raises(nx2.Nx2Error, match="slot"):
        nx2.setup_connection(system, a, b, msg_type=5, slot=nx2.MAX_SLOTS)
