"""Tests for the non-blocking cprobe primitive."""

from repro.cpu import Asm, Context
from repro.machine import ShrimpSystem
from repro.msg import nx2
from repro.sim import Process

STACK = 0x5F000
BUF_S = 0x5A000
TYPE = 7


def make_system():
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    nx2.setup_connection(system, a, b, msg_type=TYPE)
    return system, a, b


def probe_program(typesel):
    asm = Asm("prober")
    nx2.emit_cprobe_call(asm, typesel)
    asm.halt()
    nx2.emit_cprobe(asm)
    return asm.build()


def run_probe(system, node, typesel, at_ns=0):
    ctx = Context(stack_top=STACK)

    def runner():
        if at_ns:
            yield at_ns
        yield from node.cpu.run_to_halt(probe_program(typesel), ctx)

    proc = Process(system.sim, runner(), "probe").start()
    return ctx


def test_probe_empty_returns_zero():
    system, _a, b = make_system()
    ctx = run_probe(system, b, TYPE)
    system.run()
    assert ctx.registers["r0"] == 0


def test_probe_after_send_returns_one():
    system, a, b = make_system()
    a.memory.write_words(BUF_S, [5])
    Process(
        system.sim,
        a.cpu.run_to_halt(
            nx2.sender_program(TYPE, BUF_S, 4, b.node_id).build(),
            Context(stack_top=STACK),
        ),
        "send",
    ).start()
    ctx = run_probe(system, b, TYPE, at_ns=200_000)
    system.run()
    assert ctx.registers["r0"] == 1


def test_probe_bad_type_errors():
    system, _a, b = make_system()
    ctx = run_probe(system, b, 0x12345)  # above MAX_TYPE
    system.run()
    assert ctx.registers["r0"] == 0xFFFFFFFF


def test_probe_is_nonblocking_and_cheap():
    system, _a, b = make_system()
    run_probe(system, b, TYPE)
    system.run()
    # ~20 instructions including the call -- cheap enough to poll.
    assert 0 < b.cpu.counts.region("cprobe") < 30
