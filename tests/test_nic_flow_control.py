"""Flow control, error handling and interrupt tests (paper section 4).

The paper's flow-control argument: a full Incoming FIFO stops the NIC
accepting packets (backpressure into the deadlock-free mesh); a full
Outgoing FIFO interrupts the CPU, which waits until it drains; since the
CPU does not write mapped pages while waiting, the Outgoing FIFO cannot
overflow.
"""

from repro.sim import Process
from repro.cpu import Asm, Mem
from repro.faults import CorruptEveryNth
from repro.machine import ShrimpSystem, mapping
from repro.nic import MappingMode
from repro.nic.command import CommandOp, encode_command
from repro.memsys.address import PAGE_SIZE

SRC = 0x10000
DST = 0x20000


def make_system(tweak=None, width=2, height=1):
    from repro.machine import eisa_prototype

    def factory():
        params = eisa_prototype()
        if tweak is not None:
            tweak(params)
        return params

    system = ShrimpSystem(width, height, factory)
    system.start()
    return system


def run_on(system, node, asm):
    from repro.cpu import Context

    ctx = Context(stack_top=0x3F000)
    return Process(
        system.sim, node.cpu.run_to_halt(asm.build(), ctx), node.name + ".prog"
    ).start()


class TestOutgoingFlowControl:
    def _tiny_outgoing(self, params):
        params.nic.outgoing_fifo_bytes = 256
        params.nic.outgoing_interrupt_threshold = 128
        params.mesh.link_flit_ns = 200  # slow network so the FIFO fills

    def test_cpu_interrupted_and_fifo_never_overflows(self):
        system = make_system(self._tiny_outgoing)
        a, b = system.nodes
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        asm = Asm()
        for i in range(64):  # 64 single-write packets, far beyond capacity
            asm.mov(Mem(disp=SRC + 4 * i), i + 1)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        fifo = a.nic.outgoing_fifo
        assert fifo.max_occupancy_bytes <= fifo.capacity_bytes
        assert fifo.threshold_crossings.value >= 1
        assert b.memory.read_words(DST, 64) == list(range(1, 65))

    def test_all_data_delivered_despite_stalls(self):
        system = make_system(self._tiny_outgoing)
        a, b = system.nodes
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        asm = Asm()
        for i in range(200):
            asm.mov(Mem(disp=SRC + 4 * (i % 1024)), i)
        asm.halt()
        proc = run_on(system, a, asm)
        system.run()
        assert proc.finished
        assert b.nic.packets_delivered.value == 200


class TestIncomingFlowControl:
    def _tiny_incoming(self, params):
        params.nic.incoming_fifo_bytes = 256
        params.nic.incoming_stop_threshold = 64
        params.mesh.input_buffer_flits = 4

    def test_backpressure_no_loss(self):
        """A slow receiver (EISA drain) with a tiny incoming FIFO must
        lose nothing: the NIC stops accepting and the mesh backpressures."""
        system = make_system(self._tiny_incoming)
        a, b = system.nodes
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        asm = Asm()
        for i in range(100):
            asm.mov(Mem(disp=SRC + 4 * i), i + 1)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        fifo = b.nic.incoming_fifo
        assert fifo.max_occupancy_bytes <= fifo.capacity_bytes
        assert b.nic.packets_delivered.value == 100
        assert b.memory.read_words(DST, 100) == list(range(1, 101))

    def test_whole_system_quiesces(self):
        """Deadlock-freedom in practice: tiny buffers everywhere, bulk
        bidirectional traffic, simulation still drains completely."""

        def tweak(params):
            self_tweak = self._tiny_incoming
            self_tweak(params)
            params.nic.outgoing_fifo_bytes = 256
            params.nic.outgoing_interrupt_threshold = 128

        system = make_system(tweak)
        a, b = system.nodes
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        mapping.establish(b, SRC, a, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        for node in (a, b):
            asm = Asm()
            for i in range(80):
                asm.mov(Mem(disp=SRC + 4 * i), i + 1)
            asm.halt()
            run_on(system, node, asm)
        system.run()
        assert a.nic.packets_delivered.value == 80
        assert b.nic.packets_delivered.value == 80


class TestErrorHandling:
    def test_corrupted_packet_dropped_and_counted(self):
        system = make_system()
        a, b = system.nodes
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        # Corrupt every packet as it is packetized, before injection.
        CorruptEveryNth(a.nic, 1)
        asm = Asm()
        asm.mov(Mem(disp=SRC), 1)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert b.nic.crc_drops.value == 1
        assert b.nic.packets_delivered.value == 0
        assert b.memory.read_word(DST) == 0

    def test_packet_to_unmapped_page_dropped(self):
        system = make_system()
        a, b = system.nodes
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        b.nic.nipt.unmap_in(DST // PAGE_SIZE)  # pull the rug
        asm = Asm()
        asm.mov(Mem(disp=SRC), 1)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert b.nic.unmapped_drops.value == 1
        assert b.memory.read_word(DST) == 0


class TestArrivalInterrupt:
    def test_req_interrupt_is_one_shot(self):
        """Section 4.2: command memory can 'request an interrupt the next
        time data arrives for some page'."""
        system = make_system()
        a, b = system.nodes
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        interrupts = []
        b.cpu.register_interrupt_handler(
            "network-arrival",
            lambda: iter(interrupts.append(system.sim.now) or ()),
        )
        # Receiver-side kernel/user requests the interrupt via command page.
        b.nic.command_device.bus_write(
            b.command_addr(DST), [encode_command(CommandOp.REQ_INTERRUPT)]
        )
        asm = Asm()
        asm.mov(Mem(disp=SRC), 1)
        asm.mov(Mem(disp=SRC + 4), 2)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert b.nic.arrival_interrupts.value == 1  # one-shot

    def test_cancel_interrupt_request(self):
        system = make_system()
        a, b = system.nodes
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        b.nic.command_device.bus_write(
            b.command_addr(DST), [encode_command(CommandOp.REQ_INTERRUPT)]
        )
        b.nic.command_device.bus_write(
            b.command_addr(DST), [encode_command(CommandOp.CANCEL_INTERRUPT)]
        )
        asm = Asm()
        asm.mov(Mem(disp=SRC), 1)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert b.nic.arrival_interrupts.value == 0


class TestKernelMessages:
    def test_kernel_packet_delivered_to_inbox(self):
        system = make_system()
        a, b = system.nodes

        def sender():
            yield from a.nic.send_kernel_message(b.node_id, [1, 2, 3])

        Process(system.sim, sender(), "k").start()
        system.run()
        ok, packet = b.nic.kernel_inbox.try_get()
        assert ok
        assert packet.payload == [1, 2, 3]
        # Kernel packets bypass the NIPT deposit path entirely.
        assert b.nic.packets_delivered.value == 0
