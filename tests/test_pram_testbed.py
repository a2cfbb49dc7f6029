"""Tests for the PRAM experimental environment (paper section 5.2).

The paper measured its software overheads on two i486 PCs joined by
Pipelined RAM interfaces -- "a restricted version of SHRIMP" -- and argued
that "application code that works on the implementation environment will
run without change on a real SHRIMP system.  Hence, our instruction counts
are accurate."  These tests enforce the restrictions and verify the
portability claim directly: the same primitive programs produce the same
counts on the testbed and on the full machine.
"""

import pytest

from repro.cpu import Context
from repro.machine import ShrimpSystem
from repro.machine.pram import PramTestbed, PramError, SRAM_BYTES
from repro.msg import single_buffer
from repro.msg.layout import MessagingPair, PairLayout as L
from repro.nic.nipt import MappingMode
from repro.sim import Process


def run_at(system, node, asm, at_ns=0):
    ctx = Context(stack_top=0x3F000)

    def runner():
        if at_ns:
            yield at_ns
        yield from node.cpu.run_to_halt(asm.build(), ctx)

    Process(system.sim, runner(), node.name + ".p").start()
    return ctx


class TestRestrictions:
    def test_only_auto_single_mappings(self):
        testbed = PramTestbed()
        with pytest.raises(PramError, match="single-write"):
            testbed.map_complementary(0x10000, 0x10000, 4096,
                                      mode=MappingMode.DELIBERATE)
        with pytest.raises(PramError, match="single-write"):
            testbed.map_complementary(0x10000, 0x10000, 4096,
                                      mode=MappingMode.AUTO_BLOCKED)

    def test_mappings_confined_to_sram_window(self):
        testbed = PramTestbed()
        testbed.map_complementary(0x10000, 0x10000, SRAM_BYTES)  # fits
        with pytest.raises(PramError, match="SRAM window"):
            testbed.map_complementary(0x10000 + SRAM_BYTES, 0x10000, 4096)
        with pytest.raises(PramError, match="SRAM window"):
            testbed.map_complementary(0x10000, 0x10000, SRAM_BYTES + 4096)

    def test_exactly_two_nodes(self):
        testbed = PramTestbed()
        assert testbed.system.node_count == 2


class TestPortability:
    def _single_buffer_counts(self, system, sender, receiver):
        run_at(system, sender, single_buffer.sender_program([1, 2]))
        run_at(system, receiver, single_buffer.receiver_program(),
               at_ns=300_000)
        system.run()
        return (
            sender.cpu.counts.region("send"),
            receiver.cpu.counts.region("recv"),
        )

    def test_same_counts_on_testbed_and_full_shrimp(self):
        """The paper's accuracy argument, checked end to end."""
        # The PRAM testbed: complementary auto-single mappings only, and
        # both endpoints inside the SRAM window -- so the data buffer sits
        # at the same window address on both sides (RBUF0 lies outside
        # the aperture; applications adapt addresses, not code structure).
        testbed = PramTestbed()
        testbed.map_complementary(L.SBUF0, L.SBUF0, 4096)
        testbed.map_complementary(L.FLAGS, L.FLAGS, 4096)
        # Scratch pages write-through so the primitives behave identically.
        from repro.memsys.address import page_number
        from repro.memsys.cache import CachePolicy

        for node in testbed.system.nodes:
            node.mmu.set_policy(page_number(L.PRIV),
                                CachePolicy.WRITE_THROUGH)
        pram_counts = self._single_buffer_counts(
            testbed.system, testbed.node_a, testbed.node_b
        )

        # Full SHRIMP (the EISA prototype configuration).
        system = ShrimpSystem(2, 1)
        system.start()
        pair = MessagingPair(system, system.nodes[0], system.nodes[1])
        shrimp_counts = self._single_buffer_counts(
            system, pair.sender, pair.receiver
        )

        assert pram_counts == shrimp_counts == (4, 5)

    def test_data_transfer_works_on_testbed(self):
        testbed = PramTestbed()
        # Note SBUF0 -> RBUF0 requires RBUF0 in the window; RBUF0 = 0x20000
        # is outside [0x10000, 0x18000), so the testbed maps it at a
        # window-local address instead -- applications adapt addresses,
        # not code structure.
        testbed.map_complementary(0x11000, 0x11000, 4096)
        a, b = testbed.node_a, testbed.node_b
        from repro.cpu import Asm, Mem

        asm = Asm("w")
        asm.mov(Mem(disp=0x11000), 77)
        asm.halt()
        run_at(testbed.system, a, asm)
        testbed.run()
        assert b.memory.read_word(0x11000) == 77
