"""FIFO emulation over memory mappings (paper section 7).

"The memory-mapped communication model is more flexible than the
traditional FIFO-based approach.  FIFOs can easily be emulated using
memory mappings, and memory mappings offer a wealth of additional
possibilities."

This module is the constructive proof: a word FIFO between two nodes made
of one mapped ring page plus a pair of counters -- the head counter rides
in the same mapped page as the data (published after the word, relying on
in-order delivery), and the consumer's tail counter flows back through a
complementary mapping for flow control.

``emit_push``/``emit_pop`` are small user-level macros in the spirit of
Table 1 (about half a dozen instructions each, counted in regions
``fifo-push``/``fifo-pop``).
"""

from repro.cpu.isa import Mem, R1, R2, R3
from repro.machine import mapping
from repro.nic.nipt import MappingMode

RING_WORDS = 64  # power of two
RING_MASK = RING_WORDS - 1


class FifoChannel:
    """A one-way word FIFO from ``producer`` to ``consumer``.

    Layout (all offsets within one page at ``base`` on both nodes):

    - ``base + 0 ..``: the ring of RING_WORDS words (mapped p -> c);
    - ``base + 0x100``: HEAD, words pushed (mapped p -> c, written after
      the data word -- the publish);
    - ``base + 0x104``: TAIL, words popped (mapped c -> p, flow control).

    Register convention: r1 = scratch address, r2 = value, r3 = scratch
    counter.  Counters live in memory, so multiple code sites can push or
    pop the same channel.
    """

    HEAD_OFF = 0x100
    TAIL_OFF = 0x104

    def __init__(self, system, producer, consumer, base=0x34000):
        if RING_WORDS * 4 > self.HEAD_OFF:
            raise ValueError("ring overlaps the counters")
        self.system = system
        self.producer = producer
        self.consumer = consumer
        self.base = base
        # Ring + head flow producer -> consumer; tail flows back.
        mapping.establish(
            producer, base, consumer, base, self.HEAD_OFF + 4,
            MappingMode.AUTO_SINGLE,
        )
        mapping.establish(
            consumer, base + self.TAIL_OFF, producer, base + self.TAIL_OFF,
            4, MappingMode.AUTO_SINGLE,
        )

    # -- producer side -------------------------------------------------------

    def emit_push(self, asm):
        """Push the word in r2.  Blocks (spins) while the ring is full."""
        unique = len(asm._code)
        spin = "fifo_push_wait_%d" % unique
        asm.region_begin("fifo-push")
        # Wait for room: head - tail < RING_WORDS.
        asm.label(spin)
        asm.mov(R3, Mem(disp=self.base + self.HEAD_OFF))  # 1
        asm.sub(R3, Mem(disp=self.base + self.TAIL_OFF))  # 2
        asm.cmp(R3, RING_WORDS)  # 3
        asm.jge(spin)  # 4
        # Store the word at ring[head & mask].
        asm.mov(R3, Mem(disp=self.base + self.HEAD_OFF))  # 5
        asm.mov(R1, R3)  # 6
        asm.and_(R1, RING_MASK)  # 7
        asm.shl(R1, 2)  # 8
        asm.add(R1, self.base)  # 9
        asm.mov(Mem(base=R1), R2)  # 10
        # Publish: bump HEAD (arrives after the data word -- in order).
        asm.inc(R3)  # 11
        asm.mov(Mem(disp=self.base + self.HEAD_OFF), R3)  # 12
        asm.region_end("fifo-push")

    # -- consumer side ----------------------------------------------------------

    def emit_pop(self, asm):
        """Pop the next word into r2.  Blocks (spins) while empty."""
        unique = len(asm._code)
        spin = "fifo_pop_wait_%d" % unique
        asm.region_begin("fifo-pop")
        asm.label(spin)
        asm.mov(R3, Mem(disp=self.base + self.TAIL_OFF))  # 1
        asm.cmp(Mem(disp=self.base + self.HEAD_OFF), R3)  # 2
        asm.jle(spin)  # 3: empty while head <= tail
        asm.mov(R1, R3)  # 4
        asm.and_(R1, RING_MASK)  # 5
        asm.shl(R1, 2)  # 6
        asm.add(R1, self.base)  # 7
        asm.mov(R2, Mem(base=R1))  # 8
        # Free the slot: bump TAIL (flows back to the producer).
        asm.inc(R3)  # 9
        asm.mov(Mem(disp=self.base + self.TAIL_OFF), R3)  # 10
        asm.region_end("fifo-pop")
