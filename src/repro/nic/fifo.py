"""NIC packet FIFOs with programmable flow-control thresholds.

Occupancy is tracked in *bytes* of queued packets.  Each FIFO supports a
programmable threshold (paper section 4):

- Outgoing FIFO: reaching the threshold triggers a callback that interrupts
  the CPU, which then "waits until the FIFO drains".
- Incoming FIFO: reaching the threshold makes the NIC stop accepting
  packets from the network (backpressure into the mesh).

Producers that cannot block (the bus snooper runs inside a synchronous bus
callback) use :meth:`PacketFifo.put_functional`; the threshold mechanism
exists precisely so that such puts can never overflow the capacity.  A put
beyond capacity raises :class:`FifoOverflow` -- the tests treat that as an
invariant violation, mirroring the paper's argument that "the Outgoing FIFO
cannot overflow".

A machine builds two FIFOs per node, so a FIFO holds no instance dict
and no name string for its signal, and its packets are a plain list:
its byte capacity bounds them to a few hundred (163 at the peak of a
15-into-1 store storm into 4 KiB FIFOs), so dropping the oldest costs
no more than a deque's ``popleft``, and an empty list costs a fraction
of an empty deque.
"""

from repro.ckpt.protocol import PACKETS, SCALAR, Checkpointable
from repro.sim.instrument import Instrumentation
from repro.sim.process import Signal


class FifoOverflow(Exception):
    """A put exceeded FIFO capacity: the flow-control invariant broke."""


class PacketFifo(Checkpointable):
    """A byte-accounted packet FIFO with a threshold callback."""

    __slots__ = ("sim", "name", "capacity_bytes", "threshold_bytes",
                 "_packets", "occupancy_bytes", "_changed",
                 "threshold_callback", "_threshold_armed", "inject_hooks",
                 "reserved_bytes", "instr", "puts", "gets",
                 "occupancy_series", "threshold_crossings",
                 "max_occupancy_bytes")

    #: Metrics registered under the FIFO's name.
    METRICS = (("puts", "counter"), ("gets", "counter"),
               ("occupancy", "timeseries"), ("crossings", "counter"))

    # Queued packets plus threshold and high-water state.  System
    # safepoints require both NIC FIFOs empty (parked consumer loops would
    # not wake for restored packets), but the table is general so FIFO
    # state round-trips in component tests.
    CKPT_STATE = (("_packets", PACKETS), ("occupancy_bytes", SCALAR),
                  ("max_occupancy_bytes", SCALAR),
                  ("_threshold_armed", SCALAR))
    CKPT_SKIP = {
        "inject_hooks": "fault state, re-armed from the FaultPlan",
        "reserved_bytes": "fault state, re-armed from the FaultPlan",
    }

    def __init__(self, sim, capacity_bytes, threshold_bytes, name="fifo"):
        if not 0 < threshold_bytes <= capacity_bytes:
            raise ValueError("threshold must be in (0, capacity]")
        self.sim = sim
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.threshold_bytes = threshold_bytes
        self._packets = []
        self.occupancy_bytes = 0
        self._changed = Signal(sim, "changed", self)
        self.threshold_callback = None  # called once per upward crossing
        self._threshold_armed = True
        # Fault-injection hooks (repro.faults).  inject_hooks run on every
        # put_functional before the packet is enqueued (corruption /
        # misroute taps); reserved_bytes squeezes usable capacity to model
        # overflow pressure.  Both are orchestration state owned by the
        # FaultController -- re-armed from the FaultPlan after a restore,
        # never captured.  A tuple, not a list: rebuilt on (de)register so
        # the hot-path read is one attribute load and a truth test.
        self.inject_hooks = ()
        self.reserved_bytes = 0
        self.instr = Instrumentation.of(sim)
        (self.puts, self.gets, self.occupancy_series,
         self.threshold_crossings) = self.instr.register(self)
        self.max_occupancy_bytes = 0

    def __len__(self):
        return len(self._packets)

    @property
    def above_threshold(self):
        return self.occupancy_bytes + self.reserved_bytes >= self.threshold_bytes

    def _record(self):
        if self.occupancy_bytes > self.max_occupancy_bytes:
            self.max_occupancy_bytes = self.occupancy_bytes
        # The per-operation occupancy series is only sampled while the hub
        # is observing; the high-water mark above is always maintained.
        if self.instr.active:
            self.occupancy_series.record(self.sim.now, self.occupancy_bytes)

    # -- producers ------------------------------------------------------------

    def put_functional(self, packet):
        """Non-blocking enqueue (usable from synchronous bus snoops).

        Raises :class:`FifoOverflow` if capacity would be exceeded; fires
        the threshold callback on an upward threshold crossing.
        """
        if self.inject_hooks:
            for hook in self.inject_hooks:
                hook(packet)
        size = packet.size_bytes
        if self.occupancy_bytes + self.reserved_bytes + size > self.capacity_bytes:
            raise FifoOverflow(
                "%s: %d + %d bytes exceeds capacity %d"
                % (self.name, self.occupancy_bytes + self.reserved_bytes,
                   size, self.capacity_bytes)
            )
        self._packets.append(packet)
        self.occupancy_bytes += size
        self.puts.bump()
        self._record()
        if self.above_threshold and self._threshold_armed:
            self._threshold_armed = False
            self.threshold_crossings.bump()
            hub = self.instr
            if hub.active:
                hub.emit(self.name, "nic.fifo_threshold",
                         occupancy=self.occupancy_bytes,
                         threshold=self.threshold_bytes)
            if self.threshold_callback is not None:
                self.threshold_callback()
        self._changed.fire()

    def put(self, packet):
        """Generator: blocking enqueue -- waits for room below capacity.

        Used by the deliberate-update DMA engine, which (being a device
        process, not a bus snoop) can stall under backpressure.
        """
        size = packet.size_bytes
        while self.occupancy_bytes + self.reserved_bytes + size > self.capacity_bytes:
            yield self._changed
        self.put_functional(packet)

    # -- fault-injection hooks (see repro.faults) ------------------------------

    def add_inject_hook(self, hook):
        """Register ``hook(packet)`` to run on every functional put.

        Hooks may mutate the packet in place (flip payload bits, rewrite
        the routing field) but must not enqueue, dequeue, or raise; they
        run inside synchronous bus snoops.
        """
        self.inject_hooks = self.inject_hooks + (hook,)

    def remove_inject_hook(self, hook):
        self.inject_hooks = tuple(h for h in self.inject_hooks if h is not hook)

    def set_reserved_bytes(self, nbytes):
        """Reserve ``nbytes`` of capacity, as if phantom packets sat queued.

        Models FIFO-overflow pressure: occupancy is evaluated against both
        threshold and capacity with the reservation added, so real traffic
        crosses the threshold (and interrupts the CPU) early while the
        post-crossing headroom stays exactly ``capacity - threshold`` --
        the paper's cannot-overflow argument survives the fault.  The
        reservation is clamped below the threshold (a FIFO born above
        threshold would park its producers forever).  Returns the applied
        value.
        """
        nbytes = max(0, min(int(nbytes), self.threshold_bytes - 1))
        if nbytes == self.reserved_bytes:
            return nbytes
        was_above = self.above_threshold
        self.reserved_bytes = nbytes
        if self.above_threshold:
            if self._threshold_armed and not was_above:
                self._threshold_armed = False
                self.threshold_crossings.bump()
                hub = self.instr
                if hub.active:
                    hub.emit(self.name, "nic.fifo_threshold",
                             occupancy=self.occupancy_bytes + nbytes,
                             threshold=self.threshold_bytes)
                if self.threshold_callback is not None:
                    self.threshold_callback()
        else:
            self._threshold_armed = True
        self._changed.fire()
        return nbytes

    def clear(self):
        """Drop every queued packet (a crashed node's FIFOs power off).

        Part of the node-crash model, not normal operation: the board
        loses volatile queue contents; reliability above (repro.msg's
        reliable channel) is what recovers the lost window.
        """
        dropped = len(self._packets)
        self._packets.clear()
        self.occupancy_bytes = 0
        if not self.above_threshold:
            self._threshold_armed = True
        self._record()
        self._changed.fire()
        return dropped

    # -- consumers ---------------------------------------------------------------

    def get(self):
        """Generator: dequeue the next packet, blocking while empty."""
        while not self._packets:
            yield self._changed
        packet = self._packets.pop(0)
        self.occupancy_bytes -= packet.size_bytes
        self.gets.bump()
        self._record()
        if not self.above_threshold:
            self._threshold_armed = True
        self._changed.fire()
        return packet

    def try_get(self):
        if not self._packets:
            return None
        packet = self._packets.pop(0)
        self.occupancy_bytes -= packet.size_bytes
        self.gets.bump()
        self._record()
        if not self.above_threshold:
            self._threshold_armed = True
        self._changed.fire()
        return packet

    # -- waiting helpers -------------------------------------------------------------

    def wait_below_threshold(self):
        """Generator: block until occupancy drops below the threshold.

        This is the body of the outgoing-FIFO-full interrupt handler: the
        CPU parks here until the FIFO drains (paper section 4).
        """
        while self.above_threshold:
            yield self._changed
