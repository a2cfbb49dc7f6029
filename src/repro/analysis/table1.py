"""Table 1: software overhead of the message-passing primitives.

Each scenario boots a two-node system, runs the primitive's real assembly
in the best case (first-try spins, exactly as the paper's measurements),
and reads the instruction counts from the CPU's accounting regions.
"""

from collections import namedtuple

from repro.cpu import Asm, Context, Mem, R3, R5
from repro.machine.system import ShrimpSystem
from repro.machine.config import pram_testbed
from repro.msg import deliberate, double_buffer, nx2, single_buffer
from repro.msg.layout import MessagingPair, PairLayout as L
from repro.nic.nipt import MappingMode
from repro.sim.process import Process

Table1Row = namedtuple(
    "Table1Row",
    ["primitive", "paper_total", "paper_send", "paper_recv",
     "measured_send", "measured_recv"],
)

# The paper's Table 1, for comparison columns.
PAPER_TABLE1 = {
    "single buffering": (9, 4, 5),
    "single buffering + copy": (21, 4, 17),
    "double buffering (case 1)": (2, 1, 1),
    "double buffering (case 2)": (8, 3, 5),
    "double buffering (case 3)": (10, 5, 5),
    "deliberate-update transfer": (15, 15, 0),
    "csend and crecv": (151, 73, 78),
}

STACK = 0x3F000
_RECEIVER_DELAY_NS = 200_000  # let data land before the receiver runs


def _boot(data_mode=MappingMode.AUTO_SINGLE, double_buffered=False,
          params_factory=pram_testbed):
    """The paper measured on the two-node PRAM testbed configuration."""
    system = ShrimpSystem(2, 1, params_factory)
    system.start()
    pair = MessagingPair(
        system, system.nodes[0], system.nodes[1],
        data_mode=data_mode, double_buffered=double_buffered,
    )
    return system, pair


def _run(system, node, asm, at_ns=0, context=None):
    ctx = context or Context(stack_top=STACK)

    def runner():
        if at_ns:
            yield at_ns
        yield from node.cpu.run_to_halt(asm.build(), ctx)

    Process(system.sim, runner(), node.name + ".bench").start()
    return ctx


def _row(name, send, recv):
    total, paper_send, paper_recv = PAPER_TABLE1[name]
    return Table1Row(name, total, paper_send, paper_recv, send, recv)


def measure_single_buffering(copy_out=False):
    system, pair = _boot()
    message = [0x11, 0x22, 0x33, 0x44]
    _run(system, pair.sender, single_buffer.sender_program(message))
    _run(system, pair.receiver, single_buffer.receiver_program(copy_out),
         at_ns=_RECEIVER_DELAY_NS)
    system.run()
    name = "single buffering + copy" if copy_out else "single buffering"
    return _row(name, pair.sender_counts("send"), pair.receiver_counts("recv"))


def measure_double_buffering(case):
    system, pair = _boot(double_buffered=True)
    # Stage flags so every wait succeeds first try (best case, as measured
    # in the paper).
    pair.sender.memory.write_word(L.priv(L.P_SIZE), 64)
    pair.sender.memory.write_word(L.flag(L.F_ACK), 1)
    pair.receiver.memory.write_word(L.flag(L.F_ARRIVE), 64)

    send_asm = Asm("dbuf-send")
    send_asm.mov(R5, L.SBUF0)
    send_asm.mov(R3, 1)
    recv_asm = Asm("dbuf-recv")
    recv_asm.mov(R5, L.RBUF0)
    recv_asm.mov(R3, 1)
    emit = {
        1: (double_buffer.emit_case1_send, double_buffer.emit_case1_recv),
        2: (double_buffer.emit_case2_send, double_buffer.emit_case2_recv),
        3: (double_buffer.emit_case3_send, double_buffer.emit_case3_recv),
    }[case]
    emit[0](send_asm)
    emit[1](recv_asm)
    send_asm.halt()
    recv_asm.halt()
    _run(system, pair.sender, send_asm)
    _run(system, pair.receiver, recv_asm)
    system.run()
    return _row(
        "double buffering (case %d)" % case,
        pair.sender_counts("send"),
        pair.receiver_counts("recv"),
    )


def measure_deliberate_update():
    """13 initiation + 2 completion-check instructions, all send side.

    The PRAM testbed could not run this one (no deliberate-update support,
    section 5.2); we measure it on the EISA prototype configuration.
    """
    from repro.machine.config import eisa_prototype

    system, pair = _boot(data_mode=MappingMode.DELIBERATE,
                         params_factory=eisa_prototype)
    pair.sender.memory.write_words(L.SBUF0, [5] * 32)
    asm = Asm("dlb-bench")
    asm.mov(Mem(disp=L.priv(L.P_SIZE)), 128)
    deliberate.emit_send(asm, L.SBUF0, pair.sender.command_addr(L.SBUF0))
    # Uncounted delay while the DMA drains, then a single 2-instruction
    # completion check (the paper reports 13 + 2 = 15).
    asm.mov(R3, 30_000)
    delay = "dlb_bench_delay"
    asm.label(delay)
    asm.dec(R3)
    asm.jnz(delay)
    asm.mov(R3, Mem(disp=L.priv(L.P_PENDING)))
    fail = "dlb_bench_fail"
    deliberate.emit_check_done(asm, fail)
    asm.halt()
    asm.label(fail)
    asm.halt()
    _run(system, pair.sender, asm)
    system.run()
    counts = pair.sender.cpu.counts
    send_total = counts.region("send") + counts.region("check")
    return _row("deliberate-update transfer", send_total, 0)


def measure_csend_crecv():
    system = ShrimpSystem(2, 1, pram_testbed)
    system.start()
    a, b = system.nodes
    nx2.setup_connection(system, a, b, msg_type=7)
    buf_s, buf_r = 0x5A000, 0x5C000
    a.memory.write_words(buf_s, [1] * 16)
    _run(system, a, nx2.sender_program(7, buf_s, 64, b.node_id))
    _run(system, b, nx2.receiver_program(7, buf_r, 256),
         at_ns=_RECEIVER_DELAY_NS)
    system.run()
    return _row(
        "csend and crecv",
        a.cpu.counts.region("csend"),
        b.cpu.counts.region("crecv"),
    )


def run_table1():
    """Measure every row of Table 1; returns a list of Table1Row."""
    return [
        measure_single_buffering(copy_out=False),
        measure_single_buffering(copy_out=True),
        measure_double_buffering(1),
        measure_double_buffering(2),
        measure_double_buffering(3),
        measure_deliberate_update(),
        measure_csend_crecv(),
    ]
