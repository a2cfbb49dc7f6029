"""The assembled SHRIMP network interface datapath (paper figure 4).

Outgoing path: the interface snoops CPU write transactions off the Xpress
bus, looks the page up in the NIPT, and -- for automatic-update mappings --
packetizes the written data into the Outgoing FIFO (merging consecutive
writes in blocked-write mode).  An injection process drains the FIFO into
the mesh.  Deliberate-update mappings transfer only when the DMA engine is
armed through a command page.

Incoming path: an accept process pulls packets from the mesh (stopping when
the Incoming FIFO reaches its threshold -- backpressure), and a delivery
process verifies each packet (absolute coordinates + CRC), checks the NIPT
mapped-in bit, and deposits the payload directly into main memory through
the EISA DMA path (prototype) or by mastering the Xpress bus (next-gen),
with no CPU involvement.

Flow control (paper section 4): the Outgoing FIFO's threshold interrupts
the CPU, which waits until the FIFO drains; since the CPU does not write
mapped pages while waiting, the Outgoing FIFO cannot overflow.
"""

from repro.ckpt.protocol import PART, Checkpointable, CkptError
from repro.memsys.address import PAGE_SIZE, page_number, page_offset
from repro.memsys.bus import BusDevice
from repro.mesh.packet import Packet, PacketError
from repro.nic.command import CommandOp, decode_command
from repro.nic.dma import DmaEngine
from repro.nic.fifo import PacketFifo
from repro.nic.nipt import Nipt, MappingMode
from repro.sim.instrument import Instrumentation
from repro.sim.process import Process, Signal
from repro.sim.resources import BoundedQueue


class NicError(Exception):
    """Raised for illegal NIC configuration."""


# Datapath stage -> event kind, kept literal so the event vocabulary in
# docs/observability.md stays statically auditable (simlint SL303).
_STAGE_EVENT_KINDS = {
    "packetized": "nic.packetized",
    "injected": "nic.injected",
    "accepted": "nic.accepted",
    "delivered": "nic.delivered",
}


class WaitDeposit:
    """Yieldable request: block on an :class:`ArrivalSignal` until a
    packet is deposited into ``[start, end)`` (or the signal fires with
    no packet)."""

    __slots__ = ("signal", "start", "end")

    def __init__(self, signal, start, end):
        self.signal = signal
        self.start = start
        self.end = end

    def park(self, process):
        """Park ``process`` on the signal with this deposit filter."""
        process._waiting_on = self.signal
        self.signal._add_waiter(process, self)


class ArrivalSignal(Signal):
    """The NIC's node-global deposit signal.

    ``fire(packet)`` wakes every plain waiter and each
    :class:`WaitDeposit` waiter whose range holds ``packet.dest_addr``;
    the others stay parked in place, so one waiter list keeps the wake
    order.  ``fire(None)`` wakes everyone.  A receiver that only cares
    about its own ring so costs no event per foreign deposit.
    """

    __slots__ = ("_spans",)

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self._spans = {}  # parked WaitDeposit process -> (start, end)

    def fire(self, value=None):
        spans = self._spans
        if value is None or not spans:
            spans.clear()
            super().fire(value)
            return
        self.fire_count += 1
        addr = value.dest_addr
        post = self.sim.post
        parked = []
        for process in self._waiters:
            span = spans.get(process)
            if span is None:
                post(process._resume, value)
            elif span[0] <= addr < span[1]:
                del spans[process]
                post(process._resume, value)
            else:
                parked.append(process)
        self._waiters = parked

    def _add_waiter(self, process, request=None):
        super()._add_waiter(process, request)
        if type(request) is WaitDeposit:
            self._spans[process] = (request.start, request.end)

    def _remove_waiter(self, process):
        super()._remove_waiter(process)
        self._spans.pop(process, None)


class _CommandDevice(BusDevice):
    """The command-memory bus target (paper section 4.2).

    Reads return DMA engine status for the corresponding data address;
    writes carry encoded commands.  No actual RAM is behind this device.
    """

    def __init__(self, nic):
        self.nic = nic

    def bus_read(self, addr, nwords):
        if nwords != 1:
            raise NicError("command memory supports single-word reads")
        data_addr = self.nic.address_map.dram_addr_for(addr)
        return [self.nic.dma_engine.status_for(data_addr)]

    def bus_write(self, addr, words):
        if len(words) != 1:
            raise NicError("command memory supports single-word writes")
        data_addr = self.nic.address_map.dram_addr_for(addr)
        self.nic._handle_command(data_addr, words[0])


class _MergeContext:
    """State of the single open blocked-write packet being accumulated."""

    __slots__ = ("half", "page", "start_offset", "words", "next_addr",
                 "last_time", "flush_event")

    def __init__(self, half, page, start_offset, first_word, now):
        self.half = half
        self.page = page
        self.start_offset = start_offset
        self.words = [first_word]
        self.next_addr = page * PAGE_SIZE + start_offset + 4
        self.last_time = now
        self.flush_event = None


class NetworkInterface(Checkpointable):
    """One node's SHRIMP network interface."""

    #: Metrics registered under the NIC's name (``node0.nic.delivered``).
    METRICS = (
        ("packetized", "counter"), ("injected", "counter"),
        ("delivered", "counter"), ("words_delivered", "counter"),
        ("crc_drops", "counter"), ("coord_drops", "counter"),
        ("unmapped_drops", "counter"), ("arrival_interrupts", "counter"),
        ("merged_writes", "counter"),
    )

    # Slots, not an instance dict: with over 30 attributes, CPython 3.11
    # gives each instance its own full-size dict (one per node).
    __slots__ = (
        "sim", "node_id", "bus", "eisa", "backplane", "address_map", "params",
        "name", "coords", "_cpu_originator", "nipt", "outgoing_fifo",
        "incoming_fifo", "dma_engine", "command_device", "kernel_inbox",
        "arrival_signal", "_merge", "cpu", "stage_hook", "instr",
        "packets_packetized", "packets_injected", "packets_delivered",
        "words_delivered", "crc_drops", "coord_drops", "unmapped_drops",
        "arrival_interrupts", "merged_writes", "_started", "inject_process",
        "accept_process", "delivery_process",
    )

    CKPT_STATE = (("nipt", PART), ("outgoing_fifo", PART),
                  ("incoming_fifo", PART), ("dma_engine", PART),
                  ("kernel_inbox", PART))
    CKPT_SKIP = {
        "_merge": "encoded by ckpt_capture: the open blocked-write merge",
        "cpu": "wiring: attach_cpu is part of node construction; the Cpu "
               "checkpoints itself",
        "_started": "start-once latch (wiring, not state)",
    }

    def __init__(self, sim, node_id, bus, eisa, backplane, address_map,
                 nic_params, cpu_originator="cache", name=None):
        self.sim = sim
        self.node_id = node_id
        self.bus = bus
        self.eisa = eisa
        self.backplane = backplane
        self.address_map = address_map
        self.params = nic_params
        self.name = name or ("nic%d" % node_id)
        self.coords = backplane.coords_of(node_id)
        self._cpu_originator = cpu_originator

        self.nipt = Nipt(address_map.dram_pages)
        self.outgoing_fifo = PacketFifo(
            sim,
            nic_params.outgoing_fifo_bytes,
            nic_params.outgoing_interrupt_threshold,
            self.name + ".out",
        )
        self.incoming_fifo = PacketFifo(
            sim,
            nic_params.incoming_fifo_bytes,
            nic_params.incoming_stop_threshold,
            self.name + ".in",
        )
        self.dma_engine = DmaEngine(sim, self)
        self.command_device = _CommandDevice(self)
        self.kernel_inbox = BoundedQueue(sim, capacity=None,
                                         name=self.name + ".kernel_inbox")
        self.arrival_signal = ArrivalSignal(sim, self.name + ".arrival")

        self._merge = None
        self.cpu = None
        # Optional datapath instrumentation: stage_hook(stage, packet, now)
        # is called at "packetized", "injected", "accepted", "delivered".
        self.stage_hook = None

        # Statistics, registered with the per-simulator instrumentation hub.
        self.instr = Instrumentation.of(sim)
        (self.packets_packetized, self.packets_injected,
         self.packets_delivered, self.words_delivered, self.crc_drops,
         self.coord_drops, self.unmapped_drops, self.arrival_interrupts,
         self.merged_writes) = self.instr.register(self)

        # Wire into the node.
        bus.add_snooper(self._snoop)
        bus.attach(
            address_map.command_base,
            address_map.command_base + address_map.dram_bytes,
            self.command_device,
        )
        self._started = False

    # -- lifecycle --------------------------------------------------------------

    def start(self):
        """Spawn the injection, accept and delivery processes.

        The process handles are kept: node-granular quiescence checks
        (repro.ckpt.safepoint) identify an idle datapath by *which signal*
        each loop is parked on.
        """
        if self._started:
            return
        self._started = True
        self.inject_process = Process(
            self.sim, self._injection_loop(), self.name + ".inject"
        )
        self.inject_process.start()
        self.accept_process = Process(
            self.sim, self._accept_loop(), self.name + ".accept"
        )
        self.accept_process.start()
        self.delivery_process = Process(
            self.sim, self._delivery_loop(), self.name + ".deliver"
        )
        self.delivery_process.start()

    def attach_cpu(self, cpu):
        """Register the node CPU for flow-control and arrival interrupts."""
        self.cpu = cpu
        cpu.register_interrupt_handler(
            "outgoing-fifo-full", self.outgoing_fifo.wait_below_threshold
        )
        self.outgoing_fifo.threshold_callback = (
            lambda: cpu.post_interrupt("outgoing-fifo-full")
        )

    # -- outgoing path: bus snooping (section 4) -----------------------------------

    def _snoop(self, txn):
        """Observe one bus transaction; packetize mapped automatic writes."""
        if txn.kind != "write" or txn.originator != self._cpu_originator:
            return
        if not self.address_map.is_dram(txn.addr):
            return
        for i, word in enumerate(txn.data):
            addr = txn.addr + 4 * i
            page = page_number(addr)
            offset = page_offset(addr)
            half = self.nipt.lookup_out(page, offset)
            if half is None or half.mode == MappingMode.DELIBERATE:
                continue
            if half.mode == MappingMode.AUTO_SINGLE:
                self._emit_single(half, page, offset, word)
            else:
                self._merge_write(half, page, offset, word, addr)

    def _emit_single(self, half, page, offset, word):
        packet = Packet(
            self.coords,
            self.backplane.coords_of(half.dest_node),
            half.dest_addr_for(offset),
            [word],
            created_ns=self.sim.now,
        )
        self.outgoing_fifo.put_functional(packet)
        self.packets_packetized.bump()
        self._stage("packetized", packet)

    def _merge_write(self, half, page, offset, word, addr):
        """Blocked-write automatic update: merge consecutive writes.

        "Subsequent writes are merged into the same packet if they are
        consecutive, occur within the same page, and occur within a
        programmable time limit from one another.  Otherwise, the packet is
        terminated and sent." (section 4.1)
        """
        merge = self._merge
        now = self.sim.now
        if merge is not None:
            dest_start = merge.half.dest_addr_for(merge.start_offset)
            dest_next_end = dest_start + 4 * (len(merge.words) + 1) - 1
            mergeable = (
                merge.half is half
                and addr == merge.next_addr
                and now - merge.last_time <= self.params.blocked_write_window_ns
                and len(merge.words) < self.params.max_payload_words
                # A packet deposits into a single destination page; stop
                # merging at a destination page boundary.
                and page_number(dest_start) == page_number(dest_next_end)
            )
            if mergeable:
                merge.words.append(word)
                merge.next_addr += 4
                merge.last_time = now
                self.merged_writes.bump()
                self._reschedule_merge_flush()
                return
            self.flush_merge()
        self._merge = _MergeContext(half, page, offset, word, now)
        self._reschedule_merge_flush()

    def _reschedule_merge_flush(self):
        merge = self._merge
        if merge.flush_event is not None:
            merge.flush_event.cancel()
        merge.flush_event = self.sim.schedule(
            self.params.blocked_write_window_ns, self._merge_timer_fired, merge
        )

    def _merge_timer_fired(self, merge):
        if self._merge is merge:
            self.flush_merge()

    def flush_merge(self):
        """Terminate and send the open blocked-write packet, if any."""
        merge = self._merge
        if merge is None:
            return
        self._merge = None
        if merge.flush_event is not None:
            merge.flush_event.cancel()
        packet = Packet(
            self.coords,
            self.backplane.coords_of(merge.half.dest_node),
            merge.half.dest_addr_for(merge.start_offset),
            merge.words,
            created_ns=self.sim.now,
        )
        self.outgoing_fifo.put_functional(packet)
        self.packets_packetized.bump()
        self._stage("packetized", packet)

    # -- command handling (sections 4.2, 4.3) -----------------------------------------

    def _handle_command(self, data_addr, value):
        op, arg = decode_command(value)
        page = page_number(data_addr)
        offset = page_offset(data_addr)
        if op == CommandOp.DMA_START:
            self.dma_engine.arm(data_addr, arg)
        elif op == CommandOp.SET_MODE_SINGLE:
            self.nipt.entry(page).set_mode(offset, MappingMode.AUTO_SINGLE)
        elif op == CommandOp.SET_MODE_BLOCKED:
            self.nipt.entry(page).set_mode(offset, MappingMode.AUTO_BLOCKED)
        elif op == CommandOp.REQ_INTERRUPT:
            self.nipt.entry(page).interrupt_on_arrival = True
        elif op == CommandOp.CANCEL_INTERRUPT:
            self.nipt.entry(page).interrupt_on_arrival = False
        elif op == CommandOp.FLUSH_MERGE:
            self.flush_merge()

    # -- kernel control messages ----------------------------------------------------------

    def send_kernel_message(self, dest_node, payload_words):
        """Generator: inject a kernel-to-kernel control packet.

        Used by the NIPT-consistency protocol (section 4.4): kernels
        invalidate remote NIPT entries "by sending messages to the remote
        kernels" over the same network.
        """
        packet = Packet(
            self.coords,
            self.backplane.coords_of(dest_node),
            0,
            list(payload_words),
            kind=Packet.KERNEL,
            created_ns=self.sim.now,
        )
        yield from self.outgoing_fifo.put(packet)
        self.packets_packetized.bump()

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_capture(self):
        """Compose the NIC's parts, plus the open blocked-write merge.

        The merge's pending flush timer is captured as its absolute due
        time; :class:`~repro.ckpt.system.SystemCheckpoint` recreates the
        event (in global sequence order, so same-instant ties replay
        identically) and re-attaches it via :meth:`ckpt_attach_flush`.
        The event's raw sequence number is deliberately *not* captured:
        like the engine's ``_seq`` counter it is an artifact of run
        history, and only the relative order (already encoded by the
        checkpoint's descriptor list) is meaningful.
        """
        state = super().ckpt_capture()
        merge = self._merge
        state["merge"] = None if merge is None else {
            "page": merge.page,
            "start_offset": merge.start_offset,
            "words": list(merge.words),
            "next_addr": merge.next_addr,
            "last_time": merge.last_time,
            "flush_due": merge.flush_event.time,
        }
        return state

    def ckpt_refusal(self, state):
        merge = self._merge
        if state is None and merge is not None and (
                merge.flush_event is None or merge.flush_event.cancelled):
            return "%s has an open merge with no pending flush timer" % self.name
        return None

    def ckpt_restore(self, state):
        super().ckpt_restore(state)
        merge_state = state["merge"]
        if merge_state is None:
            self._merge = None
            return
        half = self.nipt.lookup_out(
            merge_state["page"], merge_state["start_offset"]
        )
        if half is None:
            raise CkptError(
                "%s: restored merge at page %d offset %d has no outgoing "
                "mapping" % (self.name, merge_state["page"],
                             merge_state["start_offset"])
            )
        merge = _MergeContext(
            half,
            merge_state["page"],
            merge_state["start_offset"],
            merge_state["words"][0],
            merge_state["last_time"],
        )
        merge.words = list(merge_state["words"])
        merge.next_addr = merge_state["next_addr"]
        self._merge = merge

    def ckpt_attach_flush(self, event):
        """Wire a recreated flush event to the restored merge context."""
        if self._merge is None:
            raise RuntimeError("%s has no restored merge context" % self.name)
        self._merge.flush_event = event

    # -- the three datapath processes ---------------------------------------------------------

    def _injection_loop(self):
        while True:
            packet = yield from self.outgoing_fifo.get()
            yield self.params.snoop_ns + self.params.packetize_ns
            yield from self.backplane.inject(self.node_id, packet)
            self.packets_injected.bump()
            self._stage("injected", packet)

    def _accept_loop(self):
        while True:
            if self.incoming_fifo.above_threshold:
                # Flow control: stop accepting packets from the network
                # until the FIFO drains below its threshold.
                yield from self.incoming_fifo.wait_below_threshold()
            packet = yield from self.backplane.receive_packet(self.node_id)
            self.incoming_fifo.put_functional(packet)
            self._stage("accepted", packet)

    def _delivery_loop(self):
        while True:
            packet = yield from self.incoming_fifo.get()
            yield self.params.fifo_stage_ns
            try:
                packet.verify(self.coords)
            except PacketError:
                # Classify the reject the way the hardware does: the
                # absolute-coordinate comparison runs first (a misrouted
                # packet may carry a perfectly valid CRC), then the CRC.
                hub = self.instr
                if packet.dest_coords != self.coords:
                    self.coord_drops.bump()
                    if hub.active:
                        hub.emit(self.name, "nic.coord_drop",
                                 dest_addr=packet.dest_addr,
                                 intended=list(packet.dest_coords),
                                 words=len(packet.payload))
                else:
                    self.crc_drops.bump()
                    if hub.active:
                        hub.emit(self.name, "nic.crc_drop",
                                 dest_addr=packet.dest_addr,
                                 words=len(packet.payload))
                continue
            if packet.kind == Packet.KERNEL:
                self.kernel_inbox.try_put(packet)
                hub = self.instr
                if hub.active:
                    hub.emit(self.name, "nic.kernel_msg",
                             words=len(packet.payload))
                self._post_cpu_interrupt("kernel-message")
                continue
            if not self._deposit_allowed(packet):
                self.unmapped_drops.bump()
                hub = self.instr
                if hub.active:
                    hub.emit(self.name, "nic.unmapped_drop",
                             dest_addr=packet.dest_addr,
                             words=len(packet.payload))
                continue
            yield from self._deposit(packet)
            self.packets_delivered.bump()
            self._stage("delivered", packet)
            self.words_delivered.bump(len(packet.payload))
            entry = self.nipt.entry(page_number(packet.dest_addr))
            if entry.interrupt_on_arrival:
                entry.interrupt_on_arrival = False
                self.arrival_interrupts.bump()
                hub = self.instr
                if hub.active:
                    hub.emit(self.name, "nic.arrival_interrupt",
                             page=page_number(packet.dest_addr))
                self._post_cpu_interrupt("network-arrival")
            self.arrival_signal.fire(packet)

    def _deposit_allowed(self, packet):
        """NIPT mapped-in check plus page-containment sanity."""
        addr = packet.dest_addr
        end = addr + packet.payload_bytes - 4
        if not self.address_map.is_dram(addr) or not self.address_map.is_dram(end):
            return False
        if page_number(addr) != page_number(end):
            return False
        return self.nipt.is_mapped_in(page_number(addr))

    def _deposit(self, packet):
        """Transfer payload to main memory without CPU assistance."""
        if self.params.incoming_via_eisa:
            yield from self.eisa.dma_write(packet.dest_addr, packet.payload)
        else:
            yield self.params.incoming_setup_ns
            yield from self.bus.write(
                packet.dest_addr, packet.payload, self.name + ".in"
            )

    def _stage(self, stage, packet):
        if self.stage_hook is not None:
            self.stage_hook(stage, packet, self.sim.now)
        hub = self.instr
        if hub.active:
            hub.emit(self.name, _STAGE_EVENT_KINDS[stage], packet=packet,
                     dest_addr=packet.dest_addr, words=len(packet.payload))

    def _post_cpu_interrupt(self, cause):
        if self.cpu is not None and cause in self.cpu._interrupt_handlers:
            self.cpu.post_interrupt(cause)
