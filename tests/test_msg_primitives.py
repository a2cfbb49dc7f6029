"""Tests for the single/double-buffering and deliberate-update primitives,
including the exact Table 1 instruction counts.

Counting method (as in the paper): the best case, where no spin iterations
are needed -- arranged by staging flag state or delaying the peer so every
wait succeeds on its first check.  Correctness under real spinning is
tested separately.
"""

from repro.sim import Process
from repro.cpu import Asm, Context, Mem, R3, R4, R5
from repro.machine import ShrimpSystem
from repro.msg import single_buffer, double_buffer, deliberate
from repro.msg.layout import PairLayout as L, MessagingPair
from repro.nic.nipt import MappingMode

STACK = 0x3F000


def make_pair(data_mode=MappingMode.AUTO_SINGLE, double_buffered=False):
    system = ShrimpSystem(2, 1)
    system.start()
    pair = MessagingPair(
        system, system.nodes[0], system.nodes[1],
        data_mode=data_mode, double_buffered=double_buffered,
    )
    return system, pair


def run_at(system, node, asm, at_ns=0, context=None):
    ctx = context or Context(stack_top=STACK)

    def runner():
        if at_ns:
            yield at_ns
        yield from node.cpu.run_to_halt(asm.build(), ctx)

    proc = Process(system.sim, runner(), node.name + ".prog").start()
    return proc, ctx


class TestSingleBuffering:
    def test_message_delivered(self):
        system, pair = make_pair()
        message = [0xAA, 0xBB, 0xCC]
        run_at(system, pair.sender, single_buffer.sender_program(message))
        _proc, _ctx = run_at(
            system, pair.receiver, single_buffer.receiver_program(), at_ns=100_000
        )
        system.run()
        got = pair.receiver.memory.read_words(L.RBUF0, 3)
        assert got == message
        # The receiver learned the size and released the buffer.
        assert pair.receiver.memory.read_word(L.priv(L.P_RSIZE)) == 12
        assert pair.sender.memory.read_word(L.flag(L.F_NBYTES)) == 0

    def test_table1_counts_9_instructions(self):
        """Table 1: single buffering = 9 instructions (4 + 5)."""
        system, pair = make_pair()
        run_at(system, pair.sender, single_buffer.sender_program([1, 2]))
        run_at(
            system, pair.receiver, single_buffer.receiver_program(), at_ns=100_000
        )
        system.run()
        assert pair.sender_counts("send") == 4
        assert pair.receiver_counts("recv") == 5

    def test_table1_counts_with_copy_21_instructions(self):
        """Table 1: single buffering + copy = 21 (4 + 17), per-word costs
        excluded (tracked separately by the CPU)."""
        system, pair = make_pair()
        message = list(range(1, 9))
        run_at(system, pair.sender, single_buffer.sender_program(message))
        run_at(
            system,
            pair.receiver,
            single_buffer.receiver_program(copy_out=True),
            at_ns=100_000,
        )
        system.run()
        assert pair.sender_counts("send") == 4
        assert pair.receiver_counts("recv") == 17
        assert pair.receiver.cpu.counts.copy_words == len(message)

    def test_copy_lands_in_private_buffer(self):
        system, pair = make_pair()
        message = [7, 8, 9, 10]
        run_at(system, pair.sender, single_buffer.sender_program(message))
        run_at(
            system,
            pair.receiver,
            single_buffer.receiver_program(copy_out=True),
            at_ns=100_000,
        )
        system.run()
        # Flush the receiver cache to inspect DRAM.
        Process(
            system.sim, pair.receiver.cache.flush_page(L.COPYBUF, 4096), "f"
        ).start()
        system.run()
        assert pair.receiver.memory.read_words(L.COPYBUF, 4) == message

    def test_receiver_first_spins_then_succeeds(self):
        """Started out of order, the receiver spins (count > 5) but the
        message still arrives intact -- correctness under contention."""
        system, pair = make_pair()
        run_at(system, pair.receiver, single_buffer.receiver_program())
        run_at(
            system, pair.sender, single_buffer.sender_program([5]), at_ns=50_000
        )
        system.run()
        assert pair.receiver.memory.read_word(L.priv(L.P_RSIZE)) == 4
        assert pair.receiver_counts("recv") > 5

    def test_second_send_waits_for_buffer_release(self):
        """The sender's spin on the flag implements buffer hand-off: two
        back-to-back sends with a late receiver never overwrite."""
        system, pair = make_pair()
        asm = single_buffer.sender_program([1], halt=False)
        # Second message: wait for the buffer, refill it, publish.
        single_buffer.emit_send_wait(asm)
        asm.mov(Mem(disp=L.SBUF0), 2)
        single_buffer.emit_send_publish(asm)
        asm.halt()
        received = []

        def receiver_twice():
            for _ in range(2):
                yield 100_000
                ctx = Context(stack_top=STACK)
                yield from pair.receiver.cpu.run_to_halt(
                    single_buffer.receiver_program().build(), ctx
                )
                received.append(
                    pair.receiver.memory.read_word(L.RBUF0)
                )

        run_at(system, pair.sender, asm)
        Process(system.sim, receiver_twice(), "recv2").start()
        system.run()
        assert received == [1, 2]


class TestDoubleBuffering:
    def _stage(self, pair, sender_flags=(), receiver_flags=()):
        for offset, value in sender_flags:
            pair.sender.memory.write_word(L.flag(offset), value)
        for offset, value in receiver_flags:
            pair.receiver.memory.write_word(L.flag(offset), value)

    def test_case1_counts_2_instructions(self):
        """Table 1: double buffering case 1 = 2 (1 + 1)."""
        system, pair = make_pair(double_buffered=True)
        send_asm = Asm("case1-send")
        send_asm.mov(R5, L.SBUF0)
        double_buffer.emit_case1_send(send_asm)
        send_asm.halt()
        recv_asm = Asm("case1-recv")
        recv_asm.mov(R5, L.RBUF0)
        double_buffer.emit_case1_recv(recv_asm)
        recv_asm.halt()
        _p1, ctx_s = run_at(system, pair.sender, send_asm)
        _p2, ctx_r = run_at(system, pair.receiver, recv_asm)
        system.run()
        assert pair.sender_counts("send") == 1
        assert pair.receiver_counts("recv") == 1
        assert ctx_s.registers["r5"] == L.SBUF1  # pointer actually swapped
        assert ctx_r.registers["r5"] == L.RBUF1

    def test_case2_counts_8_instructions(self):
        """Table 1: double buffering case 2 = 8 (3 + 5)."""
        system, pair = make_pair(double_buffered=True)
        pair.sender.memory.write_word(L.priv(L.P_SIZE), 64)
        # Stage the receiver's arrival flag so its spin wins first try.
        self._stage(pair, receiver_flags=[(L.F_ARRIVE, 64)])
        send_asm = Asm("case2-send")
        send_asm.mov(R5, L.SBUF0)
        double_buffer.emit_case2_send(send_asm)
        send_asm.halt()
        recv_asm = Asm("case2-recv")
        recv_asm.mov(R5, L.RBUF0)
        double_buffer.emit_case2_recv(recv_asm)
        recv_asm.halt()
        run_at(system, pair.sender, send_asm)
        run_at(system, pair.receiver, recv_asm)
        system.run()
        assert pair.sender_counts("send") == 3
        assert pair.receiver_counts("recv") == 5

    def test_case3_counts_10_instructions(self):
        """Table 1: double buffering case 3 = 10 (5 + 5)."""
        system, pair = make_pair(double_buffered=True)
        # Stage: sender sees the ack (previous contents consumed), the
        # receiver sees arrived data.
        self._stage(
            pair,
            sender_flags=[(L.F_ACK, 1)],
            receiver_flags=[(L.F_ARRIVE, 1)],
        )
        send_asm = Asm("case3-send")
        send_asm.mov(R5, L.SBUF0)
        send_asm.mov(R3, 1)  # arrival token (loop invariant)
        double_buffer.emit_case3_send(send_asm)
        send_asm.halt()
        recv_asm = Asm("case3-recv")
        recv_asm.mov(R5, L.RBUF0)
        recv_asm.mov(R3, 1)
        double_buffer.emit_case3_recv(recv_asm)
        recv_asm.halt()
        run_at(system, pair.sender, send_asm)
        run_at(system, pair.receiver, recv_asm)
        system.run()
        assert pair.sender_counts("send") == 5
        assert pair.receiver_counts("recv") == 5

    def test_case3_full_loop_transfers_alternating_buffers(self):
        """A real two-iteration case 3 loop: data lands in both receive
        buffers and all synchronisation comes from the flags."""
        system, pair = make_pair(double_buffered=True)
        pair.sender.memory.write_word(L.flag(L.F_ACK), 1)  # first send free

        send_asm = Asm("case3-loop-send")
        send_asm.mov(R5, L.SBUF0)
        send_asm.mov(R3, 1)
        for iteration in range(2):
            # Produce data into the current buffer (uncounted app work).
            send_asm.mov(Mem(base=R5), 100 + iteration)
            double_buffer.emit_case3_send(send_asm)
        send_asm.halt()

        recv_asm = Asm("case3-loop-recv")
        recv_asm.mov(R5, L.RBUF0)
        recv_asm.mov(R3, 1)
        for iteration in range(2):
            double_buffer.emit_case3_recv(recv_asm)
        recv_asm.halt()

        p_send, _ = run_at(system, pair.sender, send_asm)
        p_recv, _ = run_at(system, pair.receiver, recv_asm)
        system.run()
        assert p_send.finished and p_recv.finished
        assert pair.receiver.memory.read_word(L.RBUF0) == 100
        assert pair.receiver.memory.read_word(L.RBUF1) == 101

    def test_barrier_synchronises_iterations(self):
        system, pair = make_pair(double_buffered=True)
        order = []

        def instrumented(node, my_flag, other_flag, tag, delay):
            asm = Asm("barrier-%s" % tag)
            asm.mov(R4, 0)
            double_buffer.emit_barrier(asm, my_flag, other_flag)
            asm.halt()

            def runner():
                yield delay
                ctx = Context(stack_top=STACK)
                yield from node.cpu.run_to_halt(asm.build(), ctx)
                order.append((tag, system.sim.now))

            return Process(system.sim, runner(), tag).start()

        instrumented(pair.sender, L.F_BARRIER_A, L.F_BARRIER_B, "fast", 0)
        instrumented(pair.receiver, L.F_BARRIER_B, L.F_BARRIER_A, "slow", 80_000)
        system.run()
        fast_done = dict(order)["fast"]
        assert fast_done >= 80_000  # the fast side waited for the slow one


class TestDeliberateUpdate:
    def test_table1_counts_13_plus_2(self):
        """Table 1: deliberate-update transfer = 15 (13 init + 2 check)."""
        system, pair = make_pair(data_mode=MappingMode.DELIBERATE)
        pair.sender.memory.write_words(L.SBUF0, [9] * 32)
        asm = deliberate.sender_program(system, pair.sender, 128)
        run_at(system, pair.sender, asm)
        system.run()
        counts = pair.sender.cpu.counts
        assert counts.region("send") == 13
        # The polling loop ran >= 1 checks of 2 instructions each; the
        # final (successful) check is exactly 2.
        assert counts.region("check") % 2 == 0
        assert counts.region("check") >= 2
        assert pair.receiver.memory.read_words(L.RBUF0, 32) == [9] * 32

    def test_single_page_fast_path_used(self):
        system, pair = make_pair(data_mode=MappingMode.DELIBERATE)
        pair.sender.memory.write_words(L.SBUF0, [1] * 16)
        asm = deliberate.sender_program(system, pair.sender, 64)
        run_at(system, pair.sender, asm)
        system.run()
        assert pair.sender.cpu.counts.region("send-multi") == 0

    def test_multi_page_transfer_split_into_page_commands(self):
        """Section 4.3: transfers spanning a page boundary become several
        single-page DMA commands issued by the macro."""
        system = ShrimpSystem(2, 1)
        system.start()
        pair = MessagingPair(
            system, system.nodes[0], system.nodes[1],
            data_mode=MappingMode.DELIBERATE, double_buffered=True,
        )
        nwords = 1024 + 128  # crosses into the second page
        pair.sender.memory.write_words(L.SBUF0, list(range(nwords)))
        asm = deliberate.sender_program(system, pair.sender, nwords * 4)
        proc, _ = run_at(system, pair.sender, asm)
        system.run()
        assert proc.finished
        assert pair.sender.cpu.counts.region("send-multi") > 0
        assert pair.sender.nic.dma_engine.transfers.value == 2
        got = pair.receiver.memory.read_words(L.RBUF0, nwords)
        assert got == list(range(nwords))

    def test_check_done_is_2_instructions_when_complete(self):
        system, pair = make_pair(data_mode=MappingMode.DELIBERATE)
        pair.sender.memory.write_words(L.SBUF0, [3] * 8)
        # Send, wait long enough for completion, then do ONE check.
        asm = Asm("one-check")
        asm.mov(Mem(disp=L.priv(L.P_SIZE)), 32)
        deliberate.emit_send(
            asm, L.SBUF0, pair.sender.command_addr(L.SBUF0)
        )
        # Uncounted delay loop (~ thousands of ns) while the DMA drains.
        asm.mov(R4, 3000)
        asm.label("delay")
        asm.dec(R4)
        asm.jnz("delay")
        asm.mov(R3, Mem(disp=L.priv(L.P_PENDING)))
        fail = "check_failed"
        deliberate.emit_check_done(asm, fail)
        asm.halt()
        asm.label(fail)
        asm.mov(R4, 0xDEAD)
        asm.halt()
        _proc, ctx = run_at(system, pair.sender, asm)
        system.run()
        assert ctx.registers["r4"] == 0  # completed: fail path not taken
        assert pair.sender.cpu.counts.region("check") == 2
