"""Distributed-application workloads: integration across the whole stack.

Each test is a small parallel program of the kind the paper's introduction
motivates, written against the public API (mappings, message primitives,
shmem synchronisation) and checked against a sequential reference.
"""

from repro.cpu import Asm, Context, Mem, R1, R2
from repro.machine import ShrimpSystem, mapping
from repro.msg.fifo_channel import FifoChannel
from repro.nic.nipt import MappingMode
from repro.shmem import ChainBarrier
from repro.sim import Process

STACK = 0x3F000


def run_to_halt(system, node, asm, name="w"):
    ctx = Context(stack_top=STACK)
    proc = Process(
        system.sim, node.cpu.run_to_halt(asm.build(), ctx), name
    ).start()
    return proc, ctx


class TestTreeReduction:
    """Sum a value from every node via a binary-tree of mappings.

    Each inner node receives partial sums from up to two children (one
    mapped word each -- within the two-mappings-per-page limit on the
    children), adds its own value, and forwards to its parent.
    """

    SLOT0 = 0x10000  # child 0's partial lands here
    SLOT1 = 0x10004  # child 1's partial lands here
    OUT = 0x10008  # my outgoing word (mapped to the parent's slot)
    FLAG0 = 0x1000C  # arrival flags (children write nonzero with value)
    FLAG1 = 0x10010
    OUTFLAG = 0x10014

    def _children(self, i, n):
        return [c for c in (2 * i + 1, 2 * i + 2) if c < n]

    def test_sum_over_eight_nodes(self):
        n = 8
        system = ShrimpSystem(n, 1)
        system.start()
        nodes = system.nodes
        values = [3 * i + 1 for i in range(n)]

        # Wire child -> parent words.
        for i in range(1, n):
            parent = (i - 1) // 2
            slot = self.SLOT0 if i == 2 * parent + 1 else self.SLOT1
            flag = self.FLAG0 if i == 2 * parent + 1 else self.FLAG1
            mapping.establish(nodes[i], self.OUT, nodes[parent], slot, 4,
                              MappingMode.AUTO_SINGLE)
            mapping.establish(nodes[i], self.OUTFLAG, nodes[parent], flag, 4,
                              MappingMode.AUTO_SINGLE)

        # The root's result page is not mapped anywhere, so it would stay
        # write-back; make it write-through to inspect DRAM directly.
        from repro.memsys.address import page_number
        from repro.memsys.cache import CachePolicy

        nodes[0].mmu.set_policy(page_number(self.OUT),
                                CachePolicy.WRITE_THROUGH)

        for i, node in enumerate(nodes):
            asm = Asm("reduce-%d" % i)
            asm.mov(R1, values[i])
            for child_index, child in enumerate(self._children(i, n)):
                flag = self.FLAG0 if child_index == 0 else self.FLAG1
                slot = self.SLOT0 if child_index == 0 else self.SLOT1
                wait = "wait_%d_%d" % (i, child)
                asm.label(wait)
                asm.cmp(Mem(disp=flag), 0)
                asm.jz(wait)
                asm.add(R1, Mem(disp=slot))
            if i == 0:
                asm.mov(Mem(disp=self.OUT), R1)  # root: final result
            else:
                asm.mov(Mem(disp=self.OUT), R1)
                asm.mov(Mem(disp=self.OUTFLAG), 1)
            asm.halt()
            run_to_halt(system, node, asm, "reduce-%d" % i)
        system.run()
        assert nodes[0].memory.read_word(self.OUT) == sum(values)


class TestPipeline:
    """A four-stage pipeline over FIFO channels: each stage transforms
    the stream and forwards it (section 7's FIFO emulation, composed)."""

    OUT = 0x3A000

    def test_stream_through_four_stages(self):
        n = 4
        system = ShrimpSystem(n, 1)
        system.start()
        nodes = system.nodes
        # Distinct base page per channel: an inner node is consumer of one
        # channel and producer of the next, so they must not share pages.
        channels = [
            FifoChannel(system, nodes[i], nodes[i + 1],
                        base=0x34000 + i * 0x2000)
            for i in range(n - 1)
        ]
        items = list(range(1, 21))

        # Stage 0: source.
        asm = Asm("source")
        for item in items:
            asm.mov(R2, item)
            channels[0].emit_push(asm)
        asm.halt()
        run_to_halt(system, nodes[0], asm, "source")

        # Stages 1..2: pop, add 100, push on.
        for stage in (1, 2):
            asm = Asm("stage%d" % stage)
            for _ in items:
                channels[stage - 1].emit_pop(asm)
                asm.add(R2, 100)
                channels[stage].emit_push(asm)
            asm.halt()
            run_to_halt(system, nodes[stage], asm, "stage%d" % stage)

        # Stage 3: sink stores results.
        from repro.memsys.address import page_number
        from repro.memsys.cache import CachePolicy

        nodes[3].mmu.set_policy(page_number(self.OUT),
                                CachePolicy.WRITE_THROUGH)
        asm = Asm("sink")
        for i in range(len(items)):
            channels[2].emit_pop(asm)
            asm.mov(Mem(disp=self.OUT + 4 * i), R2)
        asm.halt()
        run_to_halt(system, nodes[3], asm, "sink")

        system.run()
        got = nodes[3].memory.read_words(self.OUT, len(items))
        assert got == [item + 200 for item in items]


class TestAllToAllExchange:
    """Bulk exchange: every node deliberate-updates a block to its ring
    successor, synchronised by a chain barrier -- deliberate update and
    shmem primitives working together."""

    SRC = 0x40000
    DST = 0x48000
    NWORDS = 256

    def test_ring_exchange(self):
        n = 4
        system = ShrimpSystem(n, 1)
        system.start()
        nodes = system.nodes
        barrier = ChainBarrier(nodes, 0x14000)
        for i, node in enumerate(nodes):
            succ = nodes[(i + 1) % n]
            mapping.establish(node, self.SRC, succ, self.DST,
                              self.NWORDS * 4, MappingMode.DELIBERATE)
            node.memory.write_words(
                self.SRC, [(i + 1) * 1000 + k for k in range(self.NWORDS)]
            )

        from repro.nic.command import dma_start_word

        done = []
        for i, node in enumerate(nodes):
            # Arm the transfer with the real CMPXCHG protocol, then wait
            # for completion, then join the barrier (assembly).
            from repro.cpu.isa import R0

            cmd = node.command_addr(self.SRC)
            asm = Asm("exch-%d" % i)
            barrier.emit_init(asm)
            asm.mov(R1, dma_start_word(self.NWORDS))
            retry = "retry_%d" % i
            asm.label(retry)
            asm.mov(R0, 0)  # accumulator := expected idle status
            asm.cmpxchg(Mem(disp=cmd), R1)
            asm.jnz(retry)
            wait = "wait_%d" % i
            asm.label(wait)
            asm.cmp(Mem(disp=cmd), 0)
            asm.jnz(wait)
            barrier.emit(asm, i)
            asm.halt()
            proc, _ctx = run_to_halt(system, node, asm, "exch-%d" % i)
            done.append(proc)
        system.run()
        assert all(proc.finished for proc in done)
        for i in range(n):
            receiver = nodes[(i + 1) % n]
            got = receiver.memory.read_words(self.DST, self.NWORDS)
            assert got == [(i + 1) * 1000 + k for k in range(self.NWORDS)]
