"""The deliberate-update DMA engine (paper section 4.3).

There is exactly one DMA engine per network interface, serving one request
at a time.  An application arms it by CMPXCHG-ing a word count into the
command page address corresponding to the transfer's base data address:

- a *read* of that command address returns 0 when the engine is free, or
  ``(remaining_words << 1) | base_matches`` when busy -- so a single read
  both implements the busy check of the arming protocol and lets the
  initiator poll its own transfer's progress;
- the *write* cycle of a successful CMPXCHG arms the transfer.

The engine reads source words from main memory over the Xpress bus (the
outgoing datapath "captures the data in a manner equivalent to automatic-
update writes") and emits packets into the Outgoing FIFO.  Each command
moves at most one page; the engine validates that the armed range lies
inside a single deliberate-update mapping half and drops invalid commands,
counting them.
"""

from repro.ckpt.protocol import SCALAR, Checkpointable
from repro.memsys.address import PAGE_SIZE, page_number, page_offset
from repro.mesh.packet import Packet
from repro.nic.nipt import MappingMode
from repro.sim.instrument import Instrumentation
from repro.sim.process import Process, Signal
from repro.sim.resources import Mutex


class DmaEngine(Checkpointable):
    """The single outgoing DMA engine of one NIC."""

    #: Metrics registered under the engine's name, ``<nic>.dma``.
    METRICS = (("transfers", "counter"), ("words", "counter"),
               ("rejected", "counter"), ("busy", "counter"))

    # Arming registers only.  A busy engine has a live ``_transfer``
    # process (an unserializable generator), so capture refuses it; the
    # registers still round-trip for completeness.
    CKPT_STATE = (("busy", SCALAR), ("base_addr", SCALAR),
                  ("remaining_words", SCALAR))
    CKPT_SKIP = {"_lock": "arbitration between client processes, which a "
                          "checkpoint does not capture either"}

    def __init__(self, sim, nic):
        self.sim = sim
        self.nic = nic
        self.name = nic.name + ".dma"
        self.busy = False
        self.base_addr = 0
        self.remaining_words = 0
        self.idle_signal = Signal(sim, self.name + ".idle")
        self.instr = Instrumentation.of(sim)
        (self.transfers, self.words_sent, self.rejected_commands,
         self.busy_rejections) = self.instr.register(self)
        self._lock = None

    @property
    def lock(self):
        """The node's one DMA arbitration mutex, built on first use: a
        busy engine drops a second arm, so every client holds it from
        filling its source words to arming the transfer."""
        if self._lock is None:
            self._lock = Mutex(self.sim, self.nic.name + ".dma.lock")
        return self._lock

    # -- command-page interface ------------------------------------------------

    def status_for(self, data_addr):
        """Status word returned by reading the command address of
        ``data_addr``: 0 iff free, else remaining count and base match."""
        if not self.busy:
            return 0
        base_matches = 1 if data_addr == self.base_addr else 0
        return (self.remaining_words << 1) | base_matches

    def arm(self, base_addr, nwords):
        """Arm a transfer (the CMPXCHG write cycle).  Returns True if the
        engine accepted it."""
        if self.busy:
            # A write raced a completed CMPXCHG from a stale read; the
            # engine ignores it.  (With the locked protocol this cannot
            # happen; plain stores can trigger it and are dropped safely.)
            self.busy_rejections.bump()
            hub = self.instr
            if hub.active:
                hub.emit(self.nic.name, "dma.reject", reason="busy",
                         addr=base_addr, words=nwords)
            return False
        half = self._validate(base_addr, nwords)
        if half is None:
            self.rejected_commands.bump()
            hub = self.instr
            if hub.active:
                hub.emit(self.nic.name, "dma.reject", reason="invalid",
                         addr=base_addr, words=nwords)
            return False
        self.busy = True
        self.base_addr = base_addr
        self.remaining_words = nwords
        hub = self.instr
        if hub.active:
            hub.emit(self.nic.name, "dma.arm", addr=base_addr, words=nwords)
        Process(
            self.sim,
            self._transfer(base_addr, nwords, half),
            self.nic.name + ".dma.xfer",
        ).start()
        return True

    def _validate(self, base_addr, nwords):
        """Check the range is one page, inside one deliberate half."""
        if nwords <= 0 or nwords > PAGE_SIZE // 4:
            return None
        page = page_number(base_addr)
        offset = page_offset(base_addr)
        end_offset = offset + nwords * 4
        if end_offset > PAGE_SIZE:
            return None  # crosses a page: software must split (section 4.3)
        try:
            half = self.nic.nipt.lookup_out(page, offset)
        except Exception:
            return None
        if half is None or half.mode != MappingMode.DELIBERATE:
            return None
        if end_offset > half.src_end:
            return None  # crosses into a differently-mapped half
        return half

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_refusal(self, state):
        if state is None and self.busy:
            return ("%s DMA engine busy at capture (transfer in flight)"
                    % self.nic.name)
        return None

    # -- the transfer process ------------------------------------------------------

    def _transfer(self, base_addr, nwords, half):
        params = self.nic.params
        yield params.dma_setup_ns
        addr = base_addr
        remaining = nwords
        while remaining:
            burst = min(remaining, params.max_payload_words)
            # Packets deposit into a single destination page; split bursts
            # at destination page boundaries (mappings need not be aligned).
            dest = half.dest_addr_for(page_offset(addr))
            to_dest_boundary = (PAGE_SIZE - dest % PAGE_SIZE) // 4
            burst = min(burst, to_dest_boundary)
            burst_start = self.sim.now
            words = yield from self.nic.bus.read(addr, burst, self.nic.name + ".dma")
            # Pace the engine to its per-word ceiling (the bus burst may be
            # faster than the engine's internal pipeline).
            elapsed = self.sim.now - burst_start
            floor = burst * params.dma_word_ns
            if elapsed < floor:
                yield floor - elapsed
            offset = page_offset(addr)
            packet = Packet(
                self.nic.coords,
                self.nic.backplane.coords_of(half.dest_node),
                half.dest_addr_for(offset),
                words,
                created_ns=self.sim.now,
            )
            yield from self.nic.outgoing_fifo.put(packet)
            self.nic.packets_packetized.bump()
            addr += burst * 4
            remaining -= burst
            self.remaining_words = remaining
            self.words_sent.bump(burst)
        self.busy = False
        self.transfers.bump()
        hub = self.instr
        if hub.active:
            hub.emit(self.nic.name, "dma.done", addr=base_addr, words=nwords)
        self.idle_signal.fire()

    def wait_idle(self):
        """Generator: block until the engine is free (a lock holder waits
        out the tail of the previous transfer before arming)."""
        while self.busy:
            yield self.idle_signal
