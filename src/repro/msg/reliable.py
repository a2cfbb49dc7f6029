"""Reliable, exactly-once, in-order delivery over deliberate update.

The SHRIMP substrate is reliable by construction -- until a FaultPlan
(:mod:`repro.faults`) corrupts, misroutes or crashes something.  This
channel layers end-to-end reliability on the paper's primitives so an
application-visible transfer survives any plan the substrate throws at
it:

- **frames** ride the deliberate-update DMA engine: the sender fills a
  ring slot in its own mapped-out memory (head sequence word, payload
  length, payload, tail sequence word) and arms a one-slot DMA transfer;
- **acks** ride a one-word automatic-update return mapping: the receiver
  stores a cumulative ack through its snooped bus, and the NIC deposits
  it into the sender's memory with no CPU involvement (section 5.2's
  flag idiom);
- the sender keeps a go-back-N window with timeout + exponential-backoff
  retransmission; the receiver delivers strictly in order, suppressing
  duplicates by sequence comparison and re-acking them (a lost ack shows
  up as a duplicate frame).

Torn frames cannot be delivered: a slot is valid only when its head and
tail words both carry the expected (1-based) wire sequence, and the NIC
deposits slot bytes in ascending address order -- so the tail word lands
last and a half-deposited frame never matches.

Crash/restore (repro.faults.recovery) integration: the endpoint driver
processes are device-level, so a node crash kills them and a restore
respawns them; the receiver's progress (expected sequence, application
buffer cursor) lives in node DRAM, so a per-node checkpoint rolls it
back -- and :meth:`ReliableChannel.node_restored` rolls the *sender's*
window back to match (modeling the section 4.4 kernel re-establishment
handshake) and bumps the ack epoch so stale in-flight acks from before
the crash cannot masquerade as progress.  The frames re-sent below the
old window base are the **replayed-traffic window**, the recovery metric
``benchmarks/bench_recovery.py`` records.
"""

from repro.machine.mapping import establish
from repro.memsys.address import PAGE_SIZE
from repro.nic.command import CommandOp, encode_command
from repro.nic.interface import WaitDeposit
from repro.nic.nipt import MappingMode
from repro.sim.instrument import Instrumentation
from repro.sim.poll import poll
from repro.sim.process import Process, Signal

ACK_VALUE_BITS = 20
ACK_VALUE_MASK = (1 << ACK_VALUE_BITS) - 1
MAX_TIMEOUT_NS = 500_000  # ceiling of the retransmit backoff


class ChannelLayout:
    """Explicit memory placement of one channel's six regions.

    The classic layout (:meth:`classic`) spends three pages a side; many
    channels per node (the datacenter workload) instead pack regions with
    a :class:`~repro.workload.arena.NodeArena`: a NIPT page carries at
    most :data:`~repro.nic.nipt.NiptEntry.MAX_HALVES` outgoing halves, so
    map-out regions (the sender ring, the ack source word) go two to a
    page, while mapped-in and CPU-local regions (the receive ring, ack
    landing word, receiver state, application buffer) pack freely at word
    granularity.

    ``app_wrap_words`` bounds the application buffer: the receiver's
    cursor keeps counting delivered words, but writes wrap modulo this
    many words, so an open-ended stream cannot overrun a packed arena.
    """

    __slots__ = ("src_ring", "ack_dest_addr", "dest_ring", "ack_src_addr",
                 "state_addr", "app_base", "app_wrap_words")

    def __init__(self, src_ring, ack_dest_addr, dest_ring, ack_src_addr,
                 state_addr, app_base, app_wrap_words=None):
        for label, addr in (("src_ring", src_ring),
                            ("ack_dest_addr", ack_dest_addr),
                            ("dest_ring", dest_ring),
                            ("ack_src_addr", ack_src_addr),
                            ("state_addr", state_addr),
                            ("app_base", app_base)):
            if addr % 4:
                raise ValueError("%s %#x is not word aligned" % (label, addr))
        self.src_ring = src_ring
        self.ack_dest_addr = ack_dest_addr
        self.dest_ring = dest_ring
        self.ack_src_addr = ack_src_addr
        self.state_addr = state_addr
        self.app_base = app_base
        self.app_wrap_words = app_wrap_words

    @classmethod
    def classic(cls, src_base, dest_base):
        """The original fixed three-pages-a-side layout."""
        if src_base % PAGE_SIZE or dest_base % PAGE_SIZE:
            raise ValueError("channel bases must be page aligned")
        return cls(
            src_ring=src_base,
            ack_dest_addr=src_base + PAGE_SIZE,
            dest_ring=dest_base,
            ack_src_addr=dest_base + PAGE_SIZE,
            state_addr=dest_base + 2 * PAGE_SIZE,
            app_base=dest_base + 3 * PAGE_SIZE,
        )

    def check_ring(self, ring_bytes):
        """The sender ring must stay inside one page: it is established as
        a single outgoing half, and the page-split budget (2 halves) is
        what the packed allocator rations."""
        if self.src_ring // PAGE_SIZE != (
                self.src_ring + ring_bytes - 1) // PAGE_SIZE:
            raise ValueError(
                "sender ring %#x..%#x crosses a page boundary"
                % (self.src_ring, self.src_ring + ring_bytes - 1)
            )


class ReliableChannel:
    """One reliable unidirectional stream between two nodes.

    ``src_base``/``dest_base`` are page-aligned physical addresses of a
    three-page region on each side::

        src_base  + 0      sender's frame ring   (mapped out, DELIBERATE)
        src_base  + PAGE   ack landing word      (mapped in)
        dest_base + 0      receiver's frame ring (mapped in)
        dest_base + PAGE   ack source word       (mapped out, AUTO_SINGLE)
        dest_base + 2*PAGE receiver state (expected seq, app cursor) and,
                           one page up, the application receive buffer

    Call :meth:`send` to queue payloads (lists of words), :meth:`close`
    when no more will follow, then :meth:`start` before running the
    simulation.  ``delivered`` is the in-order log of (seq, payload)
    the application received -- the exactly-once property the tests pin.
    Every ring address is read through ``layout`` (a
    :class:`ChannelLayout`; the classic one when none is given).

    The sender holds its node's one DMA lock
    (:attr:`~repro.nic.dma.DmaEngine.lock`) from filling a slot to
    arming it, so sibling channels and DSM page pushes never collide in
    the engine; the receiver wakes only for deposits into its own ring.
    """

    #: Metrics registered under the channel's name.
    METRICS = (("frames_sent", "counter"), ("retransmits", "counter"),
               ("acks_written", "counter"), ("frames_replayed", "counter"))

    # Slots, not an instance dict: a channel has over 30 attributes, and
    # CPython 3.11 then gives each instance its own full-size dict -- the
    # largest per-channel cost of a 1,024-node build.
    __slots__ = (
        "system", "src_node_id", "dest_node_id", "src", "dest", "name",
        "window_slots", "payload_words", "slot_words", "slot_bytes",
        "ack_poll_ns", "retransmit_timeout_ns", "layout", "on_deliver",
        "ring_bytes",
        "mappings", "outbox", "closed", "base", "next_seq", "epoch",
        "delivered", "replayed_window", "_tx_proc", "_rx_proc", "_tx_busy",
        "_rx_busy", "_force_retransmit", "_doorbell", "instr", "frames_sent",
        "retransmits", "acks_written", "frames_replayed",
    )

    def __init__(self, system, src_node_id, dest_node_id, src_base=None,
                 dest_base=None, name=None, window_slots=4, payload_words=8,
                 ack_poll_ns=600, retransmit_timeout_ns=30_000, layout=None,
                 on_deliver=None):
        if layout is None:
            layout = ChannelLayout.classic(src_base, dest_base)
        if window_slots < 1 or payload_words < 1:
            raise ValueError("window_slots and payload_words must be >= 1")
        self.system = system
        self.src_node_id = src_node_id
        self.dest_node_id = dest_node_id
        self.src = system.nodes[src_node_id]
        self.dest = system.nodes[dest_node_id]
        self.name = name or ("rel%d_%d" % (src_node_id, dest_node_id))
        self.window_slots = window_slots
        self.payload_words = payload_words
        self.slot_words = payload_words + 3  # head, nwords, payload, tail
        self.slot_bytes = self.slot_words * 4
        ring_bytes = window_slots * self.slot_bytes
        if ring_bytes > PAGE_SIZE:
            raise ValueError(
                "ring of %d bytes exceeds one page; shrink window_slots or "
                "payload_words" % ring_bytes
            )
        layout.check_ring(ring_bytes)
        self.ack_poll_ns = ack_poll_ns
        self.retransmit_timeout_ns = retransmit_timeout_ns

        self.layout = layout
        # Delivery callback: called as ``on_deliver(channel, seq, payload)``
        # from the receiver driver after each in-order delivery (the
        # datacenter workload's server/latency hooks).  Runs inside the
        # receiver process; it must not block.
        self.on_deliver = on_deliver
        self.ring_bytes = ring_bytes

        # The two hardware mappings (kept for crash-time invalidation).
        self.mappings = [
            establish(self.src, layout.src_ring, self.dest, layout.dest_ring,
                      ring_bytes, MappingMode.DELIBERATE),
            establish(self.dest, layout.ack_src_addr, self.src,
                      layout.ack_dest_addr, 4, MappingMode.AUTO_SINGLE),
        ]

        # Sender window state (device registers, Python-level).
        self.outbox = []  # seq -> payload words
        self.closed = False
        self.base = 0  # oldest unacked seq
        self.next_seq = 0  # next never-sent seq
        self.epoch = 0  # bumped per node restore; stale acks are ignored
        self.delivered = []  # in-order (seq, payload) log, for assertions
        self.replayed_window = 0  # frames re-sent below old base, last restore

        self._tx_proc = None
        self._rx_proc = None
        self._tx_busy = False
        self._rx_busy = False
        self._force_retransmit = False
        # Doorbell: an idle sender parks here and a polling one watches
        # it; send()/close() ring it.
        self._doorbell = Signal(system.sim, self.name + ".doorbell")

        self.instr = Instrumentation.of(system.sim)
        (self.frames_sent, self.retransmits, self.acks_written,
         self.frames_replayed) = self.instr.register(self)

    # -- application API -------------------------------------------------------

    def send(self, payload):
        """Queue one payload (1..payload_words words) for transmission."""
        payload = [int(w) & 0xFFFFFFFF for w in payload]
        if not 1 <= len(payload) <= self.payload_words:
            raise ValueError(
                "payload must be 1..%d words, got %d"
                % (self.payload_words, len(payload))
            )
        if self.closed:
            raise RuntimeError("channel %s is closed" % self.name)
        self.outbox.append(payload)
        self._doorbell.fire()

    def close(self):
        """No more payloads; endpoints may finish once everything is acked."""
        self.closed = True
        self._doorbell.fire()

    @property
    def total(self):
        return len(self.outbox) if self.closed else None

    def start(self):
        """Spawn the sender and receiver driver processes."""
        if self._tx_proc is not None or self._rx_proc is not None:
            raise RuntimeError("channel %s already started" % self.name)
        self._spawn_sender()
        self._spawn_receiver()
        return self

    def expected_seq(self):
        """The receiver's next expected sequence (reads receiver DRAM)."""
        return self.dest.memory.read_word(self.layout.state_addr)

    def app_words(self):
        """The application receive buffer contents, as delivered so far.

        With a wrapped (bounded) buffer only the unwrapped prefix is
        recoverable; callers of this helper use unbounded layouts.
        """
        layout = self.layout
        cursor = self.dest.memory.read_word(layout.state_addr + 4)
        if layout.app_wrap_words is not None and cursor > layout.app_wrap_words:
            raise RuntimeError(
                "%s: application buffer has wrapped; app_words() is only "
                "meaningful for unbounded layouts" % self.name
            )
        if cursor == 0:
            return []
        return self.dest.memory.read_words(layout.app_base, cursor)

    @property
    def complete(self):
        return self.closed and self.base >= len(self.outbox)

    # -- crash/restore integration (see repro.faults.recovery) -----------------

    def killable(self, node_id):
        """True when this channel's endpoint on ``node_id`` holds nothing.

        The crash orchestration polls this before killing: an endpoint is
        safe to kill while parked outside its bus/DMA critical sections
        (the ``_busy`` flags bracket those).
        """
        if node_id == self.dest_node_id:
            proc, busy = self._rx_proc, self._rx_busy
        elif node_id == self.src_node_id:
            proc, busy = self._tx_proc, self._tx_busy
        else:
            return True
        return proc is None or proc.finished or not busy

    def node_crashed(self, node_id):
        """Kill the endpoint driver living on the crashed node."""
        if node_id == self.dest_node_id and self._rx_proc is not None:
            self._rx_proc.kill()
            self._rx_proc = None
            self._rx_busy = False
        if node_id == self.src_node_id and self._tx_proc is not None:
            self._tx_proc.kill()
            self._tx_proc = None
            self._tx_busy = False

    def node_restored(self, node_id):
        """Resynchronise with a node just restored from its checkpoint.

        Models the section 4.4 re-establishment handshake: the kernels
        agree on a new ack epoch (stale in-flight acks die), the sender
        rolls its window base back to the receiver's restored expected
        sequence, and the frames between the two are retransmitted -- the
        replayed-traffic window.
        """
        self.epoch += 1
        if node_id == self.dest_node_id:
            expected = self.expected_seq()
            rolled_back = max(0, self.base - expected)
            self.replayed_window = rolled_back
            if rolled_back:
                self.frames_replayed.bump(rolled_back)
            self.base = min(self.base, expected)
            # The rollback un-delivers everything past the checkpoint.
            del self.delivered[expected:]
            self._force_retransmit = True
            hub = self.instr
            if hub.active:
                hub.emit(self.name, "msg.rollback", node=node_id,
                         expected=expected, replayed=rolled_back,
                         epoch=self.epoch)
            self._spawn_receiver()
            if self._tx_proc is None or self._tx_proc.finished:
                self._spawn_sender()
        if node_id == self.src_node_id:
            # The sender's device registers restart from its restored ack
            # word; anything past it is retransmitted.
            raw = self.src.memory.read_word(self.layout.ack_dest_addr)
            self.base = min(self.base, raw & ACK_VALUE_MASK)
            self._force_retransmit = True
            self._spawn_sender()
        if not self._doorbell.waiter_count:
            self._doorbell.fire()  # wakes a polling sender, not an idle one

    # -- the sender driver -----------------------------------------------------

    def _spawn_sender(self):
        self._tx_busy = False
        self._tx_proc = Process(
            self.system.sim, self._sender_body(), self.name + ".tx"
        ).start()

    def _read_ack(self):
        """Parse the deposited ack word; None for a stale-epoch ack."""
        raw = self.src.memory.read_word(self.layout.ack_dest_addr)
        if (raw >> ACK_VALUE_BITS) != (self.epoch & 0xFFF):
            return None
        return raw & ACK_VALUE_MASK

    def _tx_ready(self):
        """Whether a poll tick of :meth:`_sender_body` would act: the ack
        advanced, a frame fits the window, or a restore forces a resend."""
        ack = self._read_ack()
        return ((ack is not None and ack > self.base) or self._force_retransmit
                or self.next_seq < min(len(self.outbox),
                                       self.base + self.window_slots))

    def _sender_body(self):
        sim = self.system.sim
        timeout = self.retransmit_timeout_ns
        last_send = sim.now
        while True:
            ack = self._read_ack()
            if ack is not None and ack > self.base:
                self.base = ack
                timeout = self.retransmit_timeout_ns  # progress: reset backoff
            if self.closed and self.base >= len(self.outbox):
                return
            sent = False
            while (self.next_seq < len(self.outbox)
                   and self.next_seq < self.base + self.window_slots):
                yield from self._send_frame(self.next_seq)
                self.next_seq += 1
                sent = True
            if sent:
                last_send = sim.now
            elif self.base < self.next_seq and (
                self._force_retransmit or sim.now - last_send >= timeout
            ):
                self._force_retransmit = False
                count = self.next_seq - self.base
                self.retransmits.bump(count)
                hub = self.instr
                if hub.active:
                    hub.emit(self.name, "msg.retransmit", base=self.base,
                             count=count, timeout_ns=timeout)
                for seq in range(self.base, self.next_seq):
                    yield from self._send_frame(seq)
                last_send = sim.now
                timeout = min(timeout * 2, MAX_TIMEOUT_NS)
            # An idle sender -- everything acked, nothing queued, channel
            # still open -- parks on the doorbell until send()/close().
            if (not self.closed and self.base >= self.next_seq
                    and self.next_seq >= len(self.outbox)):
                yield self._doorbell
                last_send = sim.now
                continue
            # Frames are unacked here (base < next_seq): poll the ack word
            # every ack_poll_ns, the last tick clamped to the retransmit
            # deadline (a fixed period fired it up to a period late).
            yield from poll(sim, self.ack_poll_ns, self._tx_ready,
                            last_send + timeout, at_deadline=True,
                            memory=self.src.memory, reads=1,
                            words=(self.layout.ack_dest_addr,),
                            signals=(self._doorbell,))

    def _send_frame(self, seq):
        """Generator: fill the ring slot for ``seq`` and arm its DMA."""
        node = self.src
        lock = node.nic.dma_engine.lock
        # Busy from the ticket on: a sender queued for the lock holds it.
        self._tx_busy = True
        yield from lock.acquire(owner=self.name)
        try:
            payload = self.outbox[seq]
            wire = (seq + 1) & 0xFFFFFFFF  # 1-based: zeroed RAM never matches
            slot_addr = (self.layout.src_ring
                         + (seq % self.window_slots) * self.slot_bytes)
            words = [wire, len(payload)]
            words += payload
            words += [0] * (self.payload_words - len(payload))
            words.append(wire)
            for index, word in enumerate(words):
                addr, policy = node.mmu.translate(slot_addr + 4 * index, "write")
                yield from node.cache.write(addr, word, policy)
            yield from node.nic.dma_engine.wait_idle()
            command = node.command_addr(slot_addr)
            addr, policy = node.mmu.translate(command, "write")
            yield from node.cache.write(
                addr, encode_command(CommandOp.DMA_START, self.slot_words),
                policy,
            )
            self.frames_sent.bump()
        finally:
            self._tx_busy = False
            lock.release()

    # -- the receiver driver ---------------------------------------------------

    def _spawn_receiver(self):
        self._rx_busy = False
        self._rx_proc = Process(
            self.system.sim, self._receiver_body(), self.name + ".rx"
        ).start()

    def _receiver_body(self):
        """Deliver in-order frames on every arrival; re-ack everything else.

        Never returns: after the stream completes the process parks on
        deposits into its ring (it holds no event, so the simulation can
        go idle), ready to re-ack duplicates should the final ack get
        lost.  Other deposits -- acks, sibling channels' frames -- do not
        wake it.
        """
        ring = self.layout.dest_ring
        arrival = WaitDeposit(self.dest.nic.arrival_signal, ring,
                              ring + self.ring_bytes)
        while True:
            self._scan_slots()
            yield from self._write_ack()
            yield arrival

    def _scan_slots(self):
        """Deliver every consecutive valid frame waiting in the ring."""
        mem = self.dest.memory
        layout = self.layout
        while True:
            expected = mem.read_word(layout.state_addr)
            if self.total is not None and expected >= self.total:
                return
            slot_addr = (
                layout.dest_ring
                + (expected % self.window_slots) * self.slot_bytes
            )
            wire = (expected + 1) & 0xFFFFFFFF
            head = mem.read_word(slot_addr)
            tail = mem.read_word(slot_addr + (self.slot_words - 1) * 4)
            if head != wire or tail != wire:
                return  # missing, stale, or torn mid-deposit
            nwords = mem.read_word(slot_addr + 4)
            payload = (
                mem.read_words(slot_addr + 8, nwords) if nwords else []
            )
            cursor = mem.read_word(layout.state_addr + 4)
            if payload:
                wrap = layout.app_wrap_words
                if wrap is None:
                    mem.write_words(layout.app_base + 4 * cursor, payload)
                else:
                    # Bounded buffer: the cursor keeps counting, writes
                    # wrap -- an open-ended stream stays inside its arena.
                    for index, word in enumerate(payload):
                        mem.write_word(
                            layout.app_base + 4 * ((cursor + index) % wrap),
                            word,
                        )
            mem.write_word(layout.state_addr + 4, cursor + nwords)
            mem.write_word(layout.state_addr, expected + 1)
            self.delivered.append((expected, list(payload)))
            if self.on_deliver is not None:
                self.on_deliver(self, expected, list(payload))

    def _write_ack(self):
        """Generator: store the cumulative ack through the return mapping."""
        self._rx_busy = True
        try:
            expected = self.dest.memory.read_word(self.layout.state_addr)
            word = ((self.epoch & 0xFFF) << ACK_VALUE_BITS) | (
                expected & ACK_VALUE_MASK
            )
            node = self.dest
            addr, policy = node.mmu.translate(self.layout.ack_src_addr, "write")
            yield from node.cache.write(addr, word, policy)
            self.acks_written.bump()
        finally:
            self._rx_busy = False
