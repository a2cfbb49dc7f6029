"""Tests for the PRAM-consistency shared-memory layer (paper section 4.1)."""

import pytest

from repro.cpu import Asm, Context, Mem, R1
from repro.machine import ShrimpSystem
from repro.memsys.address import AddressError, PAGE_SIZE
from repro.nic.nipt import MappingMode
from repro.shmem import SharedRegion, TokenLock, ChainBarrier
from repro.sim import Process

SHARED = 0x30000
STACK = 0x3F000


def make_system(width=2, height=1):
    system = ShrimpSystem(width, height)
    system.start()
    return system


def run_program(system, node, asm, context=None):
    ctx = context or Context(stack_top=STACK)
    proc = Process(
        system.sim, node.cpu.run_to_halt(asm.build(), ctx), node.name + ".p"
    ).start()
    return proc, ctx


class TestSharedRegion:
    def test_disjoint_writers_converge(self):
        system = make_system()
        a, b = system.nodes
        region = SharedRegion(a, b, SHARED, PAGE_SIZE)
        asm_a = Asm("wa")
        asm_a.mov(Mem(disp=region.word(0)), 111)
        asm_a.halt()
        asm_b = Asm("wb")
        asm_b.mov(Mem(disp=region.word(1)), 222)
        asm_b.halt()
        run_program(system, a, asm_a)
        run_program(system, b, asm_b)
        system.run()
        assert region.converged()
        view_a, _ = region.views()
        assert view_a[:2] == [111, 222]

    def test_word_bounds_checked(self):
        system = make_system()
        a, b = system.nodes
        region = SharedRegion(a, b, SHARED, 64)
        assert region.word(15) == SHARED + 60
        with pytest.raises(AddressError):
            region.word(16)

    def test_deliberate_mode_rejected(self):
        system = make_system()
        a, b = system.nodes
        with pytest.raises(ValueError):
            SharedRegion(a, b, SHARED, 64, mode=MappingMode.DELIBERATE)

    def test_misaligned_rejected(self):
        system = make_system()
        a, b = system.nodes
        with pytest.raises(AddressError):
            SharedRegion(a, b, SHARED + 2, 64)


class TestTokenLock:
    def _counter_program(self, region, lock, side, rounds):
        """Increment the shared counter ``rounds`` times under the lock."""
        counter = region.word(8)
        asm = Asm("counter-%d" % side)
        lock.emit_init(asm, side)
        for _ in range(rounds):
            lock.emit_acquire(asm, side)
            asm.mov(R1, Mem(disp=counter))
            asm.inc(R1)
            asm.mov(Mem(disp=counter), R1)
            lock.emit_release(asm, side)
        asm.halt()
        return asm

    def test_no_lost_updates_under_lock(self):
        """Both nodes increment a SHARED counter; with the token lock the
        final value is exactly the sum of the increments (the read in each
        critical section observes the peer's latest write because the
        grant word arrives after the data -- in-order delivery)."""
        system = make_system()
        a, b = system.nodes
        region = SharedRegion(a, b, SHARED, PAGE_SIZE)
        lock = TokenLock(region.word(0), region.word(1))
        rounds = 10
        pa, _ = run_program(system, a, self._counter_program(region, lock, 0, rounds))
        pb, _ = run_program(system, b, self._counter_program(region, lock, 1, rounds))
        system.run()
        assert pa.finished and pb.finished
        counter = region.word(8)
        assert a.memory.read_word(counter) == 2 * rounds
        assert b.memory.read_word(counter) == 2 * rounds

    def test_lost_updates_without_lock(self):
        """The control experiment: racing unsynchronised increments lose
        updates under PRAM consistency (the paper's caveat that 'there is
        no global consistency mechanism')."""
        system = make_system()
        a, b = system.nodes
        region = SharedRegion(a, b, SHARED, PAGE_SIZE)
        counter = region.word(8)
        rounds = 10

        def racing(side):
            asm = Asm("racer-%d" % side)
            for _ in range(rounds):
                asm.mov(R1, Mem(disp=counter))
                asm.inc(R1)
                asm.mov(Mem(disp=counter), R1)
            asm.halt()
            return asm

        run_program(system, a, racing(0))
        run_program(system, b, racing(1))
        system.run()
        # Both racing simultaneously: each read misses most of the peer's
        # in-flight increments, so the total is well short of 2*rounds.
        assert a.memory.read_word(counter) < 2 * rounds

    def test_alternation_order(self):
        """Critical sections strictly alternate A, B, A, B, ..."""
        system = make_system()
        a, b = system.nodes
        region = SharedRegion(a, b, SHARED, PAGE_SIZE)
        lock = TokenLock(region.word(0), region.word(1))
        log_base = region.word(16)
        rounds = 4

        def logger(side):
            """Append our side id at the next log slot (under the lock)."""
            asm = Asm("logger-%d" % side)
            lock.emit_init(asm, side)
            for _ in range(rounds):
                lock.emit_acquire(asm, side)
                asm.mov(R1, Mem(disp=log_base))  # next index
                asm.shl(R1, 2)
                asm.add(R1, log_base + 4)
                asm.mov(Mem(base=R1), side + 1)
                asm.mov(R1, Mem(disp=log_base))
                asm.inc(R1)
                asm.mov(Mem(disp=log_base), R1)
                lock.emit_release(asm, side)
            asm.halt()
            return asm

        run_program(system, a, logger(0))
        run_program(system, b, logger(1))
        system.run()
        entries = a.memory.read_words(log_base + 4, 2 * rounds)
        assert entries == [1, 2] * rounds

    def test_bad_token_words_rejected(self):
        with pytest.raises(ValueError):
            TokenLock(0x100, 0x100)
        with pytest.raises(ValueError):
            TokenLock(0x102, 0x200)


class TestChainBarrier:
    def test_barrier_holds_back_fast_nodes(self):
        system = make_system(4, 1)
        barrier = ChainBarrier(system.nodes, 0x14000)
        finish = {}

        def program(i, spin_iters):
            asm = Asm("bar-%d" % i)
            barrier.emit_init(asm)
            # Unequal work before the barrier.
            asm.mov(R1, spin_iters)
            loop = "work_%d" % i
            asm.label(loop)
            asm.dec(R1)
            asm.jnz(loop)
            barrier.emit(asm, i)
            asm.halt()
            return asm

        def runner(i, node, asm):
            ctx = Context(stack_top=STACK)
            yield from node.cpu.run_to_halt(asm.build(), ctx)
            finish[i] = system.sim.now

        work = [10, 5000, 10, 10]  # node 1 is slow
        for i, node in enumerate(system.nodes):
            Process(system.sim, runner(i, node, program(i, work[i])),
                    "r%d" % i).start()
        system.run()
        slowest = max(finish.values())
        fastest = min(finish.values())
        # Everyone leaves the barrier within a small window of each other.
        assert slowest - fastest < 20_000
        # And nobody left before the slow node arrived (~5000 instructions).
        assert fastest > 5000 * 2 * 15

    def test_multiple_epochs(self):
        system = make_system(3, 1)
        barrier = ChainBarrier(system.nodes, 0x14000)
        done = []

        def program(i):
            asm = Asm("multi-%d" % i)
            barrier.emit_init(asm)
            for _ in range(5):
                barrier.emit(asm, i)
            asm.halt()
            return asm

        def runner(i, node, asm):
            yield from node.cpu.run_to_halt(asm.build(),
                                            Context(stack_top=STACK))
            done.append(i)

        for i, node in enumerate(system.nodes):
            Process(system.sim, runner(i, node, program(i)), "r%d" % i).start()
        system.run(max_events=5_000_000)
        assert sorted(done) == [0, 1, 2]

    def test_too_few_nodes_rejected(self):
        system = make_system(2, 1)
        with pytest.raises(ValueError):
            ChainBarrier(system.nodes[:1], 0x14000)

    def test_respects_two_mapping_hardware_limit(self):
        """Setting the barrier up on 8 nodes must not exceed the section
        3.2 limit of two outgoing mappings per page."""
        system = make_system(8, 1)
        ChainBarrier(system.nodes, 0x14000)  # must not raise NiptError
        for node in system.nodes:
            entry = node.nic.nipt.entry(0x14000 // PAGE_SIZE)
            assert len(entry.halves) <= 2
