"""The comparator: NX/2 on a traditional kernel-mediated DMA interface.

The paper compares its user-level csend/crecv against the Intel NX/2
implementation for the iPSC/2 (same i386 instruction set): 222 fast-path
instructions for ``csend`` plus a system call and a DMA send interrupt,
and 261 for ``crecv`` plus a system call and a DMA receive interrupt
(section 5.2).  Section 1 motivates the whole design with the same
observation on the DELTA: 67 us of software per send/receive pair against
<1 us of hardware latency.

This module implements that *architecture* -- the paper's section 6
"traditional method": an application sends by trapping into the kernel,
which copies the message into a system buffer and starts a DMA transfer;
the receiving interface DMAs the message into system memory and interrupts
the CPU; the application traps again to receive, and the kernel copies the
message out and dispatches it by type.  The kernel fast-path instruction
counts are taken from the paper's iPSC/2 numbers and charged as simulated
CPU time; buffer copies and DMA transfers move real data over the
simulated buses and mesh.

Use :class:`BaselineSystem` instead of starting the SHRIMP NICs: it drives
the same Paragon-style backplane with plain DMA packets.
"""

from dataclasses import dataclass

from repro.mesh.packet import Packet
from repro.sim.instrument import Instrumentation
from repro.sim.process import Process, Signal


@dataclass
class BaselineParams:
    """Cost model of the traditional kernel path (iPSC/2-calibrated)."""

    csend_instructions: int = 222  # kernel fast path (paper section 5.2)
    crecv_instructions: int = 261
    syscall_instructions: int = 150  # user/kernel crossing, in and out
    interrupt_instructions: int = 200  # DMA-completion interrupt service
    copy_word_ns: int = 45  # kernel <-> user buffer copy, per word
    dma_setup_ns: int = 800
    max_payload_words: int = 120


class BaselineNic:
    """A traditional DMA network interface plus its kernel driver."""

    #: Metrics registered under ``<node>.baseline``.
    METRICS = (("instr", "counter"), ("intr", "counter"), ("sent", "counter"),
               ("recv", "counter"))

    def __init__(self, node, params=None):
        self.node = node
        self.name = node.name + ".baseline"
        self.sim = node.sim
        self.params = params or BaselineParams()
        self.clock = node.params.memsys.cpu_clock_ns
        # System receive buffering: FIFO of (type, words) per message type.
        self._queues = {}
        self._arrival = Signal(self.sim, self.name + ".arrival")
        self.instr = Instrumentation.of(self.sim)
        (self.instructions_charged, self.interrupts_taken, self.messages_sent,
         self.messages_received) = self.instr.register(self)
        self._started = False

    def start(self):
        if self._started:
            return
        self._started = True
        Process(self.sim, self._receive_loop(), self.node.name + ".bnic").start()

    # -- cost charging ---------------------------------------------------------

    def _charge(self, instructions):
        self.instructions_charged.bump(instructions)
        yield instructions * self.clock

    # -- the kernel send path ------------------------------------------------------

    def csend(self, msg_type, payload_words, dest_node):
        """Generator: the full traditional send -- trap, kernel fast path,
        user-to-kernel copy, DMA injection, completion interrupt."""
        params = self.params
        yield from self._charge(params.syscall_instructions)
        yield from self._charge(params.csend_instructions)
        # Copy across the user/kernel boundary (the cost SHRIMP avoids).
        yield len(payload_words) * params.copy_word_ns
        yield params.dma_setup_ns
        # DMA the message onto the wire in bounded packets.
        header = [msg_type, len(payload_words) * 4]
        remaining = list(payload_words)
        backplane = self.node.nic.backplane
        first = True
        while remaining or first:
            chunk = remaining[: params.max_payload_words]
            remaining = remaining[params.max_payload_words:]
            packet = Packet(
                backplane.coords_of(self.node.node_id),
                backplane.coords_of(dest_node),
                0,
                (header if first else [msg_type, 0]) + (chunk or [0]),
                kind=Packet.KERNEL,
                created_ns=self.sim.now,
            )
            first = False
            yield from backplane.inject(self.node.node_id, packet)
        # DMA-completion interrupt back on the sending CPU.
        self.interrupts_taken.bump()
        yield from self._charge(params.interrupt_instructions)
        self.messages_sent.bump()

    # -- the kernel receive path -------------------------------------------------------

    def crecv(self, msg_type):
        """Generator: trap, wait for a message of the type, kernel-to-user
        copy.  Returns the payload words."""
        params = self.params
        yield from self._charge(params.syscall_instructions)
        yield from self._charge(params.crecv_instructions)
        while not self._queues.get(msg_type):
            yield self._arrival
        words = self._queues[msg_type].pop(0)
        yield len(words) * params.copy_word_ns
        self.messages_received.bump()
        return words

    # -- the wire side -------------------------------------------------------------------

    def _receive_loop(self):
        """DMA arriving packets into system memory and take the receive
        interrupt, reassembling multi-packet messages."""
        backplane = self.node.nic.backplane
        partial = {}
        while True:
            packet = yield from backplane.receive_packet(self.node.node_id)
            packet.verify(backplane.coords_of(self.node.node_id))
            msg_type, declared = packet.payload[0], packet.payload[1]
            body = packet.payload[2:]
            state = partial.get(msg_type)
            if state is None:
                state = partial[msg_type] = [declared // 4, []]
            state[1].extend(body)
            # Each arriving packet costs a DMA deposit; model via EISA.
            yield from self.node.eisa.dma_write(0, body or [0])
            if len(state[1]) >= state[0]:
                words = state[1][: state[0]]
                del partial[msg_type]
                self._queues.setdefault(msg_type, []).append(words)
                # The receive interrupt: the kernel dispatches the message.
                self.interrupts_taken.bump()
                yield from self._charge(self.params.interrupt_instructions)
                self._arrival.fire()


class BaselineSystem:
    """A mesh of nodes with traditional kernel-DMA interfaces.

    Built on the same hardware substrate (memories, EISA buses, Paragon
    backplane) but the SHRIMP NIC datapath processes are never started;
    the :class:`BaselineNic` drives the mesh instead.
    """

    def __init__(self, system, params=None):
        self.system = system
        self.sim = system.sim
        self.nics = [BaselineNic(node, params) for node in system.nodes]
        system.backplane.start()
        for nic in self.nics:
            nic.start()

    def nic(self, node_id):
        return self.nics[node_id]

    def overhead_instructions(self, round_trip=False):
        """Total charged instructions across all nodes (bench helper)."""
        return sum(nic.instructions_charged.value for nic in self.nics)
