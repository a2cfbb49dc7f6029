"""Checkpoint-ready scenarios mirroring the golden-trace workloads.

These build the exact programs of ``tests/test_golden_trace.py`` but run
them as :class:`~repro.ckpt.workload.CpuWorker` workloads, so the runs
can be paused, saved, resumed and forked.  Because the instruction
streams and machine configs are identical, a run resumed from any
safepoint must land on the same golden observables (``ping_pong`` ends at
t=40661 ns with 24 packets delivered each way) -- which is how the tests
anchor restore exactness to an independently pinned truth.

Used by the ``python -m repro.ckpt`` CLI, ``examples/checkpoint_resume.py``
and ``benchmarks/bench_ckpt.py``.
"""

from repro.ckpt.workload import CpuWorker
from repro.cpu import Asm, Context, Mem, R4
from repro.machine import ShrimpSystem, mapping
from repro.machine.config import CONFIGS
from repro.memsys.address import PAGE_SIZE, page_number
from repro.memsys.cache import CachePolicy
from repro.msg import deliberate
from repro.msg.layout import MessagingPair, PairLayout as L
from repro.nic.nipt import MappingMode

PONG_SBUF = 0x2A000
PONG_RBUF = 0x2C000
PONG_FLAG = L.FLAGS + 0x20


def build_ping_pong(rounds=8, config="eisa-prototype"):
    """Two nodes, single-buffered flag protocol, ``rounds`` round trips."""
    system = ShrimpSystem(2, 1, CONFIGS[config])
    system.start()
    a, b = system.nodes
    MessagingPair(system, a, b, data_mode=MappingMode.AUTO_SINGLE)
    mapping.establish(b, PONG_SBUF, a, PONG_RBUF, PAGE_SIZE,
                      MappingMode.AUTO_SINGLE)

    asm = Asm("pinger")
    asm.mov(R4, rounds)
    asm.label("round")
    asm.mov(Mem(disp=L.SBUF0), 0xABCD)
    asm.mov(Mem(disp=L.flag(L.F_NBYTES)), 4)
    asm.label("echo_wait")
    asm.cmp(Mem(disp=PONG_FLAG), 0)
    asm.jz("echo_wait")
    asm.mov(Mem(disp=PONG_FLAG), 0)
    asm.dec(R4)
    asm.jnz("round")
    asm.halt()
    pinger = asm.build()

    asm = Asm("ponger")
    asm.mov(R4, rounds)
    asm.label("round")
    asm.label("ping_wait")
    asm.cmp(Mem(disp=L.flag(L.F_NBYTES)), 0)
    asm.jz("ping_wait")
    asm.mov(Mem(disp=L.flag(L.F_NBYTES)), 0)
    asm.mov(Mem(disp=PONG_SBUF), 0xDCBA)
    asm.mov(Mem(disp=PONG_FLAG), 1)
    asm.dec(R4)
    asm.jnz("round")
    asm.halt()
    ponger = asm.build()

    CpuWorker(system, 0, pinger, Context(stack_top=0x3F000), "pinger").start()
    CpuWorker(system, 1, ponger, Context(stack_top=0x3F000), "ponger").start()
    return system


def build_bandwidth(nbytes=16384, config="eisa-prototype"):
    """One deliberate-update DMA transfer, sender node 0 to receiver node 1.

    The deliberate-update transfer of ``examples/block_transfer.py`` and
    ``repro.analysis.bandwidth``, at a single size and with the sender
    running as a :class:`CpuWorker` so the run is pause/resume-able.
    """
    system = ShrimpSystem(2, 1, CONFIGS[config])
    system.start()
    sender, receiver = system.nodes
    buf_src, buf_dst = 0x40000, 0x80000
    mapping.establish(sender, buf_src, receiver, buf_dst, nbytes,
                      MappingMode.DELIBERATE)
    sender.mmu.set_policy(page_number(L.PRIV), CachePolicy.WRITE_THROUGH)
    payload = [(7 * i + 3) & 0xFFFFFFFF for i in range(nbytes // 4)]
    sender.memory.write_words(buf_src, payload)
    asm = deliberate.sender_program(system, sender, nbytes, buf_addr=buf_src)
    CpuWorker(system, 0, asm.build(), Context(stack_top=0x3F000),
              "sender").start()
    return system


def build_contention(words_per_sender=8, config="eisa-prototype"):
    """4x4 mesh; 15 nodes storm node 15 with automatic-update stores."""
    system = ShrimpSystem(4, 4, CONFIGS[config])
    system.start()
    hot = system.nodes[15]
    src_base = 0x10000
    for i, node in enumerate(system.nodes[:15]):
        dest = 0x100000 + i * PAGE_SIZE
        mapping.establish(node, src_base, hot, dest, PAGE_SIZE,
                          MappingMode.AUTO_SINGLE)
        asm = Asm("storm%d" % i)
        for j in range(words_per_sender):
            asm.mov(Mem(disp=src_base + 4 * (j % (PAGE_SIZE // 4))),
                    (i << 16) | j)
        asm.halt()
        CpuWorker(system, node.node_id, asm.build(),
                  Context(stack_top=0x3F000), "storm%d" % i).start()
    return system


def build_blocked_stream(words=64, config="eisa-prototype"):
    """One node streams consecutive words over a blocked-write mapping.

    Unlike the other scenarios this one reaches safepoints while a
    blocked-write merge window is *open* (its flush timer is the pending
    event), exercising the ``merge`` descriptor path of
    :class:`~repro.ckpt.system.SystemCheckpoint`.
    """
    system = ShrimpSystem(2, 1, CONFIGS[config])
    system.start()
    a, b = system.nodes
    mapping.establish(a, 0x10000, b, 0x40000, PAGE_SIZE,
                      MappingMode.AUTO_BLOCKED)
    asm = Asm("streamer")
    for j in range(words):
        asm.mov(Mem(disp=0x10000 + 4 * (j % (PAGE_SIZE // 4))),
                0xBEEF0000 | j)
    asm.halt()
    CpuWorker(system, 0, asm.build(), Context(stack_top=0x3F000),
              "streamer").start()
    return system


SCENARIOS = {
    "ping_pong": build_ping_pong,
    "bandwidth": build_bandwidth,
    "contention": build_contention,
    "blocked_stream": build_blocked_stream,
}
