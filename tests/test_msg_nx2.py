"""Tests for csend/crecv on SHRIMP and the kernel-DMA baseline,
including the Table 1 counts (73 + 78) and the ~4x comparison.
"""

from repro.sim import Process
from repro.cpu import Context
from repro.machine import ShrimpSystem
from repro.msg import nx2
from repro.msg.nx2_baseline import BaselineSystem, BaselineParams

STACK = 0x5F000
BUF_S = 0x5A000
BUF_R = 0x5C000
TYPE = 7


def make_nx2(repeats_data=None):
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    nx2.setup_connection(system, a, b, msg_type=TYPE)
    return system, a, b


def run_at(system, node, program, at_ns=0):
    ctx = Context(stack_top=STACK)

    def runner():
        if at_ns:
            yield at_ns
        yield from node.cpu.run_to_halt(program, ctx)

    proc = Process(system.sim, runner(), node.name + ".prog").start()
    return proc, ctx


def read_via_flush(system, node, addr, nwords):
    Process(system.sim, node.cache.flush_page(addr & ~4095, 4096), "f").start()
    system.run()
    return node.memory.read_words(addr, nwords)


class TestCsendCrecv:
    def test_message_round_trip(self):
        system, a, b = make_nx2()
        data = list(range(1, 33))
        a.memory.write_words(BUF_S, data)
        run_at(system, a, nx2.sender_program(TYPE, BUF_S, 128, b.node_id).build())
        _p, ctx = run_at(
            system, b, nx2.receiver_program(TYPE, BUF_R, 256).build(),
            at_ns=200_000,
        )
        system.run()
        assert ctx.registers["r0"] == 128  # returned byte count
        assert read_via_flush(system, b, BUF_R, 32) == data

    def test_table1_counts_73_plus_78(self):
        """Table 1: csend and crecv = 151 instructions (73 + 78)."""
        system, a, b = make_nx2()
        a.memory.write_words(BUF_S, [1] * 16)
        run_at(system, a, nx2.sender_program(TYPE, BUF_S, 64, b.node_id).build())
        run_at(
            system, b, nx2.receiver_program(TYPE, BUF_R, 256).build(),
            at_ns=200_000,
        )
        system.run()
        assert a.cpu.counts.region("csend") == 73
        assert b.cpu.counts.region("crecv") == 78

    def test_fifo_order_preserved_across_messages(self):
        system, a, b = make_nx2()
        a.memory.write_words(BUF_S, [101])
        a.memory.write_words(BUF_S + 4, [102])
        from repro.cpu import Asm

        send_asm = Asm("nx2-sender2")
        nx2.emit_csend_call(send_asm, TYPE, BUF_S, 4, b.node_id)
        nx2.emit_csend_call(send_asm, TYPE, BUF_S + 4, 4, b.node_id)
        send_asm.halt()
        nx2.emit_csend(send_asm)

        recv_asm = Asm("nx2-receiver2")
        nx2.emit_crecv_call(recv_asm, TYPE, BUF_R, 4)
        nx2.emit_crecv_call(recv_asm, TYPE, BUF_R + 4, 4)
        recv_asm.halt()
        nx2.emit_crecv(recv_asm)

        run_at(system, a, send_asm.build())
        run_at(system, b, recv_asm.build(), at_ns=200_000)
        system.run()
        assert read_via_flush(system, b, BUF_R, 2) == [101, 102]

    def test_truncation_to_receive_buffer(self):
        """NX/2 semantics: a message longer than the receive buffer is
        truncated to the buffer size."""
        system, a, b = make_nx2()
        a.memory.write_words(BUF_S, list(range(1, 9)))
        run_at(system, a, nx2.sender_program(TYPE, BUF_S, 32, b.node_id).build())
        _p, ctx = run_at(
            system, b, nx2.receiver_program(TYPE, BUF_R, 8).build(),
            at_ns=200_000,
        )
        system.run()
        assert ctx.registers["r0"] == 8  # truncated length returned
        got = read_via_flush(system, b, BUF_R, 3)
        assert got[:2] == [1, 2]
        assert got[2] == 0  # nothing written past the buffer

    def test_oversized_type_rejected(self):
        system, a, b = make_nx2()
        _p, ctx = run_at(
            system, a,
            nx2.sender_program(0x10000, BUF_S, 4, b.node_id).build(),
        )
        system.run()
        assert ctx.registers["r0"] == 0xFFFFFFFF

    def test_oversized_message_rejected(self):
        system, a, b = make_nx2()
        _p, ctx = run_at(
            system, a,
            nx2.sender_program(TYPE, BUF_S, nx2.MAX_PAYLOAD + 4,
                               b.node_id).build(),
        )
        system.run()
        assert ctx.registers["r0"] == 0xFFFFFFFF

    def test_misaligned_buffer_rejected(self):
        system, a, b = make_nx2()
        _p, ctx = run_at(
            system, a,
            nx2.sender_program(TYPE, BUF_S + 2, 4, b.node_id).build(),
        )
        system.run()
        assert ctx.registers["r0"] == 0xFFFFFFFF

    def test_wrong_type_rejected(self):
        """Only the connection's bound type exists (point-to-point types)."""
        system, a, b = make_nx2()
        _p, ctx = run_at(
            system, a, nx2.sender_program(TYPE + 1, BUF_S, 4, b.node_id).build()
        )
        system.run()
        assert ctx.registers["r0"] == 0xFFFFFFFF

    def test_ring_flow_control_blocks_fifth_send(self):
        """With NSLOTS=4 slots and no receiver, a fifth csend must spin on
        the consumed counter rather than overwrite."""
        system, a, b = make_nx2()
        from repro.cpu import Asm

        asm = Asm("nx2-flood")
        for _ in range(nx2.NSLOTS + 1):
            nx2.emit_csend_call(asm, TYPE, BUF_S, 4, b.node_id)
        asm.halt()
        nx2.emit_csend(asm)
        proc, _ctx = run_at(system, a, asm.build())
        system.run(until=5_000_000)
        assert not proc.finished  # still waiting for an ack

    def test_sequence_word_published_last(self):
        """The receiver must never observe a sequence number before the
        payload: SHRIMP's in-order delivery plus write ordering."""
        system, a, b = make_nx2()
        a.memory.write_words(BUF_S, [0xABCD])
        observed = []

        def watcher(txn):
            if txn.kind == "write" and txn.originator == b.eisa.name:
                for i in range(txn.nwords):
                    observed.append(txn.addr + 4 * i)

        b.bus.add_snooper(watcher)
        run_at(system, a, nx2.sender_program(TYPE, BUF_S, 4, b.node_id).build())
        system.run()
        slot0 = nx2.RING_R
        assert slot0 in observed
        payload_pos = observed.index(slot0 + 16)
        seq_pos = observed.index(slot0)
        assert payload_pos < seq_pos


class TestBaseline:
    def make_baseline(self):
        system = ShrimpSystem(2, 1)
        baseline = BaselineSystem(system)
        return system, baseline

    def test_message_round_trip(self):
        system, baseline = self.make_baseline()
        got = []

        def sender():
            yield from baseline.nic(0).csend(5, [1, 2, 3], dest_node=1)

        def receiver():
            words = yield from baseline.nic(1).crecv(5)
            got.append(words)

        Process(system.sim, sender(), "s").start()
        Process(system.sim, receiver(), "r").start()
        system.sim.run_until_idle()
        assert got == [[1, 2, 3]]

    def test_large_message_multiple_packets(self):
        system, baseline = self.make_baseline()
        data = list(range(500))
        got = []

        def sender():
            yield from baseline.nic(0).csend(5, data, dest_node=1)

        def receiver():
            words = yield from baseline.nic(1).crecv(5)
            got.append(words)

        Process(system.sim, sender(), "s").start()
        Process(system.sim, receiver(), "r").start()
        system.sim.run_until_idle()
        assert got == [data]

    def test_messages_dispatched_by_type(self):
        system, baseline = self.make_baseline()
        got = {}

        def sender():
            yield from baseline.nic(0).csend(1, [11], dest_node=1)
            yield from baseline.nic(0).csend(2, [22], dest_node=1)

        def receiver():
            # Receive in the opposite order: dispatch is by type.
            words2 = yield from baseline.nic(1).crecv(2)
            words1 = yield from baseline.nic(1).crecv(1)
            got["t1"], got["t2"] = words1, words2

        Process(system.sim, sender(), "s").start()
        Process(system.sim, receiver(), "r").start()
        system.sim.run_until_idle()
        assert got == {"t1": [11], "t2": [22]}

    def test_overhead_is_roughly_4x_shrimp(self):
        """Section 5.2: SHRIMP's csend+crecv is about 1/4 of the NX/2
        overhead on the iPSC/2 (which also pays syscalls + interrupts)."""
        params = BaselineParams()
        baseline_instr = (
            params.csend_instructions
            + params.crecv_instructions
            + 2 * params.syscall_instructions
            + 2 * params.interrupt_instructions
        )
        shrimp_instr = 73 + 78
        ratio = baseline_instr / shrimp_instr
        assert 3.0 < ratio < 10.0

    def test_charged_instructions_accumulate(self):
        system, baseline = self.make_baseline()

        def sender():
            yield from baseline.nic(0).csend(5, [1], dest_node=1)

        def receiver():
            yield from baseline.nic(1).crecv(5)

        Process(system.sim, sender(), "s").start()
        Process(system.sim, receiver(), "r").start()
        system.sim.run_until_idle()
        params = BaselineParams()
        send_side = baseline.nic(0).instructions_charged.value
        assert send_side >= (
            params.csend_instructions + params.syscall_instructions
        )
        assert baseline.nic(0).interrupts_taken.value == 1
        assert baseline.nic(1).interrupts_taken.value == 1
