"""Coverage for remaining NIC behaviours: flush-merge command, mode
switch back to single-write, engine wait_idle, misrouted packets,
arrival signal."""

from repro.cpu import Asm, Context, Mem
from repro.machine import ShrimpSystem, mapping
from repro.memsys.address import PAGE_SIZE
from repro.mesh.packet import Packet
from repro.nic import MappingMode
from repro.nic.command import CommandOp, encode_command
from repro.sim import Process

SRC, DST = 0x10000, 0x20000
STACK = 0x3F000


def make_system(mode=MappingMode.AUTO_BLOCKED):
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    mapping.establish(a, SRC, b, DST, PAGE_SIZE, mode)
    return system, a, b


def run_program(system, node, asm):
    ctx = Context(stack_top=STACK)
    proc = Process(
        system.sim, node.cpu.run_to_halt(asm.build(), ctx), "p"
    ).start()
    return proc, ctx


class TestFlushMergeCommand:
    def test_explicit_flush_sends_open_packet_immediately(self):
        system, a, b = make_system()
        window = system.params.nic.blocked_write_window_ns
        arrivals = []
        b.bus.add_snooper(
            lambda t: arrivals.append(t.time)
            if t.kind == "write" and t.addr == DST else None
        )
        asm = Asm("flusher")
        asm.mov(Mem(disp=SRC), 5)
        asm.mov(Mem(disp=a.command_addr(SRC)),
                encode_command(CommandOp.FLUSH_MERGE))
        asm.halt()
        run_program(system, a, asm)
        system.run()
        assert b.memory.read_word(DST) == 5
        # Without the flush, the merge window would delay the packet by
        # ~window ns; the flush sends it right away.
        assert arrivals[0] < window + 1500

    def test_flush_with_no_open_packet_is_harmless(self):
        system, a, b = make_system()
        asm = Asm("noop-flush")
        asm.mov(Mem(disp=a.command_addr(SRC)),
                encode_command(CommandOp.FLUSH_MERGE))
        asm.halt()
        proc, _ = run_program(system, a, asm)
        system.run()
        assert proc.finished
        assert b.nic.packets_delivered.value == 0


class TestModeSwitchBack:
    def test_blocked_to_single_via_command_page(self):
        system, a, b = make_system(MappingMode.AUTO_BLOCKED)
        asm = Asm("switch")
        asm.mov(Mem(disp=a.command_addr(SRC)),
                encode_command(CommandOp.SET_MODE_SINGLE))
        for i in range(4):
            asm.mov(Mem(disp=SRC + 4 * i), i + 1)
        asm.halt()
        run_program(system, a, asm)
        system.run()
        # Single-write: one packet per store, no merging.
        assert b.nic.packets_delivered.value == 4
        assert a.nic.merged_writes.value == 0


class TestDmaEngineWaitIdle:
    def test_wait_idle_returns_after_transfer(self):
        system, a, b = make_system(MappingMode.DELIBERATE)
        a.memory.write_words(SRC, [7] * 256)
        finished = []

        def driver():
            yield from a.bus.cmpxchg(a.command_addr(SRC), 0, 256, "cpu")
            yield from a.nic.dma_engine.wait_idle()
            finished.append(system.sim.now)

        Process(system.sim, driver(), "d").start()
        system.run()
        assert finished
        assert not a.nic.dma_engine.busy
        assert b.memory.read_words(DST, 256) == [7] * 256

    def test_wait_idle_when_already_idle(self):
        system, a, _b = make_system(MappingMode.DELIBERATE)
        done = []

        def driver():
            yield from a.nic.dma_engine.wait_idle()
            done.append(True)

        Process(system.sim, driver(), "d").start()
        system.run()
        assert done


class TestMisroutedPackets:
    def test_wrong_coordinates_dropped_on_verify(self):
        """The receive-side absolute-coordinate check (section 3.1):
        a packet that claims a different destination is discarded."""
        system, a, b = make_system(MappingMode.AUTO_SINGLE)
        bogus = Packet(a.nic.coords, (7, 7), DST, [0xBAD])

        def inject():
            # Slip it into b's incoming FIFO as if the mesh delivered it
            # (models a routing fault).
            yield 10
            b.nic.incoming_fifo.put_functional(bogus)

        Process(system.sim, inject(), "evil").start()
        system.run()
        assert b.nic.coord_drops.value == 1  # coordinate-check rejects
        assert b.nic.crc_drops.value == 0  # ...classified apart from CRC
        assert b.memory.read_word(DST) == 0


class TestArrivalSignal:
    def test_signal_fires_per_delivered_packet(self):
        system, a, b = make_system(MappingMode.AUTO_SINGLE)
        seen = []

        def watcher():
            while len(seen) < 3:
                packet = yield b.nic.arrival_signal
                seen.append(packet.dest_addr)

        Process(system.sim, watcher(), "w").start()
        asm = Asm("w")
        for i in range(3):
            asm.mov(Mem(disp=SRC + 4 * i), i)
        asm.halt()
        run_program(system, a, asm)
        system.run()
        assert seen == [DST, DST + 4, DST + 8]
