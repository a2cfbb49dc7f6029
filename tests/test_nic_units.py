"""Unit tests for NIC building blocks: NIPT, packet FIFOs, command words."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Simulator, Process
from repro.mesh import Packet
from repro.nic import (
    Nipt,
    NiptEntry,
    OutgoingHalf,
    MappingMode,
    NiptError,
    PacketFifo,
    FifoOverflow,
    CommandOp,
    encode_command,
    decode_command,
)
from repro.machine.mapping import establish
from repro.machine.system import ShrimpSystem
from repro.nic.command import dma_start_word
from repro.nic.interface import ArrivalSignal, WaitDeposit


def half(start=0, end=4096, node=1, dest=0x4000, mode=MappingMode.AUTO_SINGLE):
    return OutgoingHalf(start, end, node, dest, mode)


class TestOutgoingHalf:
    def test_dest_addr_translation(self):
        h = half(start=256, end=512, dest=0x8000)
        assert h.dest_addr_for(256) == 0x8000
        assert h.dest_addr_for(300) == 0x8000 + 44

    def test_covers(self):
        h = half(start=256, end=512)
        assert h.covers(256)
        assert h.covers(508)
        assert not h.covers(512)
        assert not h.covers(0)

    def test_out_of_range_lookup_raises(self):
        with pytest.raises(NiptError):
            half(start=0, end=256).dest_addr_for(256)

    def test_bad_ranges_rejected(self):
        with pytest.raises(NiptError):
            OutgoingHalf(512, 256, 0, 0, MappingMode.AUTO_SINGLE)
        with pytest.raises(NiptError):
            OutgoingHalf(0, 8192, 0, 0, MappingMode.AUTO_SINGLE)
        with pytest.raises(NiptError):
            OutgoingHalf(2, 256, 0, 0, MappingMode.AUTO_SINGLE)
        with pytest.raises(NiptError):
            OutgoingHalf(0, 256, 0, 0, "bogus-mode")


class TestNiptEntry:
    def test_page_split_between_two_mappings(self):
        """Section 3.2: a page can be split at a configurable offset."""
        entry = NiptEntry()
        entry.add_half(half(0, 2048, node=1, dest=0x1000))
        entry.add_half(half(2048, 4096, node=2, dest=0x2000))
        assert entry.lookup(100).dest_node == 1
        assert entry.lookup(3000).dest_node == 2

    def test_third_half_rejected(self):
        entry = NiptEntry()
        entry.add_half(half(0, 1024))
        entry.add_half(half(1024, 2048))
        with pytest.raises(NiptError, match="two mappings"):
            entry.add_half(half(2048, 4096))

    def test_overlap_rejected(self):
        entry = NiptEntry()
        entry.add_half(half(0, 2048))
        with pytest.raises(NiptError, match="overlaps"):
            entry.add_half(half(1024, 4096))

    def test_unmapped_gap_lookup_is_none(self):
        entry = NiptEntry()
        entry.add_half(half(1024, 2048))
        assert entry.lookup(0) is None
        assert entry.lookup(3000) is None

    def test_set_mode(self):
        entry = NiptEntry()
        entry.add_half(half(0, 4096, mode=MappingMode.AUTO_SINGLE))
        entry.set_mode(0, MappingMode.AUTO_BLOCKED)
        assert entry.lookup(0).mode == MappingMode.AUTO_BLOCKED

    def test_set_mode_without_mapping_raises(self):
        entry = NiptEntry()
        with pytest.raises(NiptError):
            entry.set_mode(0, MappingMode.AUTO_SINGLE)


class TestNipt:
    def test_map_unmap_round_trip(self):
        nipt = Nipt(16)
        nipt.map_out(3, half())
        assert nipt.lookup_out(3, 0) is not None
        assert nipt.mapped_out_pages() == [3]
        nipt.unmap_out(3)
        assert nipt.lookup_out(3, 0) is None

    def test_map_in_tracking(self):
        nipt = Nipt(16)
        nipt.map_in(5)
        assert nipt.is_mapped_in(5)
        assert nipt.mapped_in_pages() == [5]
        nipt.unmap_in(5)
        assert not nipt.is_mapped_in(5)

    def test_unmap_in_clears_interrupt_request(self):
        nipt = Nipt(16)
        nipt.map_in(5)
        nipt.entry(5).interrupt_on_arrival = True
        nipt.unmap_in(5)
        assert not nipt.entry(5).interrupt_on_arrival

    def test_bad_page_rejected(self):
        nipt = Nipt(16)
        with pytest.raises(NiptError):
            nipt.entry(16)
        with pytest.raises(NiptError):
            nipt.entry(-1)

    def test_untouched_pages_report_default_bits(self):
        nipt = Nipt(16)
        nipt.map_out(3, half())
        nipt.map_in(5)
        assert nipt.mapped_out_pages() == [3]
        assert nipt.mapped_in_pages() == [5]
        before = nipt.ckpt_capture()
        assert [page for page, _ in before["pages"]] == [3, 5]
        for page in range(16):
            if page in (3, 5):
                continue
            assert nipt.lookup_out(page, 0) is None
            assert not nipt.is_mapped_in(page)
            assert not nipt.is_dsm_resident(page)
            entry = nipt.entry(page)
            assert (entry.halves, entry.mapped_in, entry.interrupt_on_arrival,
                    entry.dsm_resident) == ([], False, False, False)
        # Reading built default entries; the capture must not list them.
        assert nipt.ckpt_capture() == before

    def test_sparse_capture_restore_capture_is_a_fixed_point(self):
        """Entries live in a dict of built pages: a restore into a table
        that built other pages drops them, enumerations come back in page
        order whatever the build order, and capture -> restore -> capture
        reproduces the state exactly."""
        nipt = Nipt(64)
        nipt.map_in(40)
        nipt.map_out(9, half(0, 2048, node=2, dest=0x8000))
        nipt.map_out(9, half(2048, 4096, node=3, dest=0x9000,
                             mode=MappingMode.DELIBERATE))
        nipt.set_dsm_resident(17, True)
        nipt.entry(33)  # built, but default: not captured
        nipt.map_in(2)
        nipt.entry(2).interrupt_on_arrival = True
        state = nipt.ckpt_capture()
        assert [page for page, _ in state["pages"]] == [2, 9, 17, 40]

        other = Nipt(64)
        other.map_out(5, half())
        other.map_in(60)
        other.ckpt_restore(state)
        assert len(other) == 64
        assert other.ckpt_capture() == state
        assert other.mapped_out_pages() == [9]
        assert other.mapped_in_pages() == [2, 40]
        assert not other.is_mapped_in(60)
        assert other.lookup_out(5, 0) is None
        assert sorted(other.entries) == [2, 5, 9, 17, 40, 60]
        with pytest.raises(NiptError):
            other.entry(64)

        third = Nipt(64)
        third.ckpt_restore(other.ckpt_capture())
        assert third.ckpt_capture() == state

    def test_mapped_machine_capture_is_pinned(self):
        """The sparse capture format of a mapped two-node machine: a
        split outgoing mapping, its mapped-in destination, and a
        deliberate mapping back."""
        system = ShrimpSystem(2, 1)
        a, b = system.nodes
        establish(a, 0x10800, b, 0x20000, 4096, MappingMode.AUTO_BLOCKED)
        establish(b, 0x30000, a, 0x40400, 64, MappingMode.DELIBERATE)
        system.start()

        def out(start, end, node, dest, mode):
            return {"halves": [{"src_start": start, "src_end": end,
                                "dest_node": node, "dest_addr": dest,
                                "mode": mode}],
                    "mapped_in": False, "interrupt_on_arrival": False}

        mapped_in = {"halves": [], "mapped_in": True,
                     "interrupt_on_arrival": False}
        assert a.nic.nipt.ckpt_capture() == {"pages": [
            [0x10, out(2048, 4096, 1, 0x20000, "auto-blocked")],
            [0x11, out(0, 2048, 1, 0x20800, "auto-blocked")],
            [0x40, mapped_in],
        ]}
        assert b.nic.nipt.ckpt_capture() == {"pages": [
            [0x20, mapped_in],
            [0x30, out(0, 64, 0, 0x40400, "deliberate")],
        ]}


def make_packet(nwords=1):
    return Packet((0, 0), (1, 0), 0x1000, [0] * nwords)


class TestArrivalSignal:
    """A filtered waiter wakes only for deposits into its range."""

    def _park(self, sim, signal, woken, name, span=None):
        request = signal if span is None else WaitDeposit(signal, *span)

        def body():
            while True:
                packet = yield request
                woken.append((name, packet and packet.dest_addr))

        return Process(sim, body(), name).start()

    def test_wakes_own_range_and_plain_waiters_in_park_order(self):
        sim = Simulator()
        signal = ArrivalSignal(sim, "arrival")
        woken = []
        self._park(sim, signal, woken, "ring_a", (0x1000, 0x1100))
        self._park(sim, signal, woken, "plain")
        self._park(sim, signal, woken, "ring_b", (0x2000, 0x2100))
        sim.run_until_idle()
        for addr in (0x2000, 0x1000, 0x3000):
            signal.fire(Packet((0, 0), (1, 0), addr, [0]))
            sim.run_until_idle()
        signal.fire(None)
        sim.run_until_idle()
        assert woken == [
            ("plain", 0x2000), ("ring_b", 0x2000),
            ("ring_a", 0x1000), ("plain", 0x1000),
            ("plain", 0x3000),
            # Unwoken waiters kept their place ahead of the re-parked ones.
            ("ring_b", None), ("ring_a", None), ("plain", None),
        ]
        assert signal.fire_count == 4

    def test_killed_filtered_waiter_leaves_no_span(self):
        sim = Simulator()
        signal = ArrivalSignal(sim, "arrival")
        woken = []
        proc = self._park(sim, signal, woken, "ring", (0x1000, 0x1100))
        sim.run_until_idle()
        proc.kill()
        assert signal.waiter_count == 0 and not signal._spans
        self._park(sim, signal, woken, "respawned", (0x1000, 0x1100))
        sim.run_until_idle()
        signal.fire(Packet((0, 0), (1, 0), 0x1000, [0]))
        sim.run_until_idle()
        assert woken == [("respawned", 0x1000)]
        assert len(signal._spans) == 1  # the respawned waiter re-parked


class TestPacketFifo:
    def test_put_get_order_and_occupancy(self):
        sim = Simulator()
        fifo = PacketFifo(sim, 4096, 2048)
        a, b = make_packet(1), make_packet(2)
        fifo.put_functional(a)
        fifo.put_functional(b)
        assert fifo.occupancy_bytes == a.size_bytes + b.size_bytes
        got = []

        def consumer():
            got.append((yield from fifo.get()))
            got.append((yield from fifo.get()))

        Process(sim, consumer(), "c").start()
        sim.run_until_idle()
        assert got == [a, b]
        assert fifo.occupancy_bytes == 0

    def test_overflow_raises(self):
        sim = Simulator()
        fifo = PacketFifo(sim, capacity_bytes=40, threshold_bytes=40)
        fifo.put_functional(make_packet(1))  # 22 bytes
        with pytest.raises(FifoOverflow):
            fifo.put_functional(make_packet(2))

    def test_threshold_callback_edge_triggered(self):
        sim = Simulator()
        fifo = PacketFifo(sim, 4096, threshold_bytes=40)
        fired = []
        fifo.threshold_callback = lambda: fired.append(sim.now)
        fifo.put_functional(make_packet(1))  # 22 bytes, below
        assert fired == []
        fifo.put_functional(make_packet(1))  # 44 bytes, crossing
        assert len(fired) == 1
        fifo.put_functional(make_packet(1))  # still above: no refire
        assert len(fired) == 1

    def test_threshold_rearms_after_draining(self):
        sim = Simulator()
        fifo = PacketFifo(sim, 4096, threshold_bytes=40)
        fired = []
        fifo.threshold_callback = lambda: fired.append(True)
        fifo.put_functional(make_packet(1))
        fifo.put_functional(make_packet(1))
        assert len(fired) == 1
        fifo.try_get()
        fifo.try_get()
        fifo.put_functional(make_packet(1))
        fifo.put_functional(make_packet(1))
        assert len(fired) == 2

    def test_blocking_put_waits_for_room(self):
        sim = Simulator()
        pkt = make_packet(1)  # 22 bytes
        fifo = PacketFifo(sim, capacity_bytes=2 * pkt.size_bytes,
                          threshold_bytes=2 * pkt.size_bytes)
        done = []

        def producer():
            for i in range(4):
                yield from fifo.put(make_packet(1))
            done.append(sim.now)

        def slow_consumer():

            for _ in range(4):
                yield 100
                yield from fifo.get()

        Process(sim, producer(), "p").start()
        Process(sim, slow_consumer(), "c").start()
        sim.run_until_idle()
        assert done and done[0] >= 200

    def test_wait_below_threshold(self):
        sim = Simulator()
        pkt = make_packet(1)
        fifo = PacketFifo(sim, 4096, threshold_bytes=pkt.size_bytes)
        fifo.put_functional(make_packet(1))
        log = []

        def waiter():
            yield from fifo.wait_below_threshold()
            log.append(sim.now)

        def drainer():

            yield 500
            yield from fifo.get()

        Process(sim, waiter(), "w").start()
        Process(sim, drainer(), "d").start()
        sim.run_until_idle()
        assert log == [500]

    def test_invalid_threshold_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PacketFifo(sim, 100, 0)
        with pytest.raises(ValueError):
            PacketFifo(sim, 100, 101)

    def test_max_occupancy_tracked(self):
        sim = Simulator()
        fifo = PacketFifo(sim, 4096, 4096)
        fifo.put_functional(make_packet(4))
        peak = fifo.occupancy_bytes
        fifo.try_get()
        assert fifo.max_occupancy_bytes == peak


class TestCommandWords:
    def test_round_trip(self):
        for op in CommandOp.ALL:
            word = encode_command(op, 123)
            assert decode_command(word) == (op, 123)

    def test_dma_start_word_is_plain_count(self):
        """Section 4.3: the application loads a register with n and
        CMPXCHGs it -- so the DMA_START encoding must be the raw count."""
        assert dma_start_word(256) == 256

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            encode_command(0xF, 0)
        with pytest.raises(ValueError):
            decode_command(0xF << 28)

    def test_arg_range_checked(self):
        with pytest.raises(ValueError):
            encode_command(CommandOp.DMA_START, 1 << 28)

    @given(
        op=st.sampled_from(CommandOp.ALL),
        arg=st.integers(min_value=0, max_value=0x0FFFFFFF),
    )
    def test_encode_decode_property(self, op, arg):
        assert decode_command(encode_command(op, arg)) == (op, arg)
