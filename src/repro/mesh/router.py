"""A 5-port wormhole mesh router with dimension-ordered routing.

Each router has North/South/East/West ports to its neighbours plus an
injection input (from the local NIC) and an ejection output (to the local
NIC).  Routing is X-then-Y dimension order: correct the X coordinate first,
then Y, then eject.  Dimension-ordered routing on a mesh is oblivious and
deadlock-free (Dally & Seitz), which is the property the SHRIMP flow
control scheme relies on: "since the routing network is deadlock-free, all
packets will eventually be delivered" (paper section 4).

Wormhole switching: when a head flit is routed, the chosen output is held
by that packet until its tail flit passes; the worm advances flit by flit
and stalls in place (holding buffers and the output) under backpressure.

The router computes that flit-by-flit schedule a run at a time (see
:mod:`repro.mesh.link`) and does not wake just to keep time: it hands
the output port over at the tail's landing time with a timed release
(:meth:`repro.sim.resources.Mutex.release_at`), and an idle input is
woken once, at the next head's arrival stamp.  Every decision the
per-flit router makes at an instant -- reading a head, checking for a
stall -- is made for that instant, so flit timing is unchanged.
"""

from repro.mesh.topology import NORTH, SOUTH, EAST, WEST, LOCAL, route_port
from repro.sim.instrument import Instrumentation
from repro.sim.process import Named, Process, Signal
from repro.sim.resources import Mutex


class RoutingError(Exception):
    """Raised when a packet cannot be routed (disconnected port)."""


PORTS = (NORTH, SOUTH, EAST, WEST, LOCAL)


class _OutputPort(Named):
    """An output channel: a link plus the mutex a worm holds while using it.

    One is built per port of every router, so it holds no instance dict
    and no name string: it is named ``<router>.<port>`` on read, and its
    mutex ``<router>.<port>.alloc``.
    """

    __slots__ = ("link", "mutex")

    def __init__(self, router, port):
        self._parent = router
        self._role = port
        self.link = None  # set when the backplane wires the mesh
        self.mutex = Mutex(router.sim, "alloc", self)


class Router:
    """One mesh router at coordinates ``(x, y)``."""

    #: Metrics registered under the router's name.
    METRICS = (("packets", "counter"), ("flits", "counter"))

    def __init__(self, sim, params, coords, name=None):
        self.sim = sim
        self.params = params
        self.coords = coords
        self.name = name or ("router(%d,%d)" % coords)
        self.inputs = {}  # port -> Link (filled by the backplane)
        self.outputs = {port: _OutputPort(self, port) for port in PORTS}
        self.instr = Instrumentation.of(sim)
        self.packets_routed, self.flits_forwarded = self.instr.register(self)
        self.processes = []  # input forwarding processes, filled by start()
        self._started = False
        # Fault-injection hook (repro.faults): a stalled router finishes
        # the worm each input currently holds, then parks every input
        # process until resume().  No checkpoint interplay -- routers hold
        # no ckpt state; safepoints require the mesh drained anyway.
        self._stalled = False
        # One [start, end] per stall episode (end None while stalled), so
        # an input process can tell whether a past instant fell inside a
        # stall; fault plans inject a handful.
        self._stalls = []
        self._resume_signal = Signal(sim, "resume", self)

    # -- wiring (used by the backplane) ---------------------------------------

    def connect_input(self, port, link):
        self.inputs[port] = link

    def connect_output(self, port, link):
        self.outputs[port].link = link

    def start(self):
        """Spawn one forwarding process per connected input port."""
        if self._started:
            raise RuntimeError("%s already started" % self.name)
        self._started = True
        for port, link in self.inputs.items():
            self.processes.append(
                Process(
                    self.sim,
                    self._input_process(port, link),
                    "%s.in.%s" % (self.name, port),
                ).start()
            )

    # -- fault-injection hook (see repro.faults) -------------------------------

    @property
    def is_stalled(self):
        return self._stalled

    def stall(self):
        """Freeze the switch fabric at the next worm boundary.

        In-flight worms drain (wormhole switching cannot abandon a worm
        mid-link without deadlocking the mesh); new head flits wait in
        their input buffers, exerting ordinary backpressure upstream.
        """
        if not self._stalled:
            self._stalled = True
            self._stalls.append([self.sim._now, None])

    def resume(self):
        """Release a stalled router; all parked input processes wake."""
        if not self._stalled:
            return
        self._stalled = False
        self._stalls[-1][1] = self.sim._now
        self._resume_signal.fire()

    def _stall_over(self, at):
        """Generator: if the router was stalled at instant ``at``, return
        when that stall ended, parking until resume() if it has not;
        else return None.

        An input process decides at its reference instant, which may lie
        in the (recent) past: nothing it did since depends on the answer.
        """
        for start, end in reversed(self._stalls):
            if start > at:
                continue
            if end is None:
                while self._stalled:
                    yield self._resume_signal
                return self.sim._now
            return end if end > at else None
        return None

    # -- routing decision -------------------------------------------------------

    def route(self, dest_coords):
        """Dimension-ordered (X then Y) output port for ``dest_coords``."""
        return route_port(self.coords, dest_coords)

    # -- the worm ---------------------------------------------------------------

    def _input_process(self, port, in_link):
        """Forward worms arriving on one input port, forever.

        ``ref`` is the instant the per-flit reference process would be at
        the top of its loop: when the previous worm's tail landed
        downstream.  This process gets there earlier -- it hands the
        output port over at the tail's landing time (``Mutex.release_at``)
        instead of sleeping until then -- so it defers every decision to
        ``ref``:

        - a head buffered by ``ref`` is read at ``max(stamp, ref)``, as the
          reference reads it there, and its stamp wait folds into the
          routing-latency sleep;
        - otherwise the process parks on the empty buffer and the deposit
          wakes it at the head's stamp, where the reference, blocked in
          receive(), reads it -- one event for the idle wake and the
          stamp wait (:meth:`Link.empty_signal`).  It parks in this
          frame: an idle input holds one generator, not two.

        Stalls are judged where the reference checks them: at ``ref``
        (from the stall log, since that instant may have passed) and at a
        late head's stamp (now).
        """
        hop_ns = self.params.router_hop_ns
        sim = self.sim
        ref = sim._now
        while True:
            if not in_link.runs:
                empty = in_link.empty_signal(ref)
                while not in_link.runs:
                    yield empty
            elif ref > sim._now:
                yield ref - sim._now
            if self._stalls:
                resumed = yield from self._stall_over(ref)
                if resumed is not None:
                    ref = resumed
                    continue
            packet, index, read = in_link.take(ref)
            if index:
                raise RoutingError(
                    "%s.%s: worm out of sync, got flit %d of %r expecting "
                    "a head flit" % (self.name, port, index, packet)
                )
            out_name = self.route(packet.routing_coords)
            output = self.outputs[out_name]
            if output.link is None:
                raise RoutingError(
                    "%s: no %s link for %r (mesh edge?)"
                    % (self.name, out_name, packet)
                )
            while self._stalled:
                yield self._resume_signal
                read = sim._now
            # Head arrival plus routing decision latency, in one sleep.
            yield read + hop_ns - sim._now
            yield from output.mutex.acquire(owner=packet)
            ref = sim._now
            try:
                ref = yield from self._forward_worm(packet, in_link,
                                                    output.link)
            finally:
                output.mutex.release_at(ref)
            self.packets_routed.bump()
            hub = self.instr
            if hub.active:
                hub.emit(
                    self.name,
                    "mesh.route",
                    port=out_name,
                    src=list(packet.src_coords),
                    dest=list(packet.dest_coords),
                )

    def _forward_worm(self, packet, in_link, out_link):
        """Generator: forward the worm ``packet`` (head in hand) to its
        tail.

        The per-flit reference behaviour is receive (waiting for the flit's
        arrival stamp), then send (one link transfer time, blocking while
        the output buffer is full).  This loop computes the same pipeline
        schedule arithmetically -- each flit is read at ``max(previous
        landing, arrival)`` and lands at ``max(read + transfer time,
        claimed slot time)`` -- declaring input slots free at the read
        times and stamping output flits with the landing times, so
        neighbours observe timing identical to the per-flit path even
        under backpressure.  Three regimes:

        - output slots claimable (free now or at declared future times):
          :meth:`Link.pull` moves every buffered run of the worm that
          fits, one closed-form step per run overlap, no sleeps;
        - output starved (buffered flits the downstream reader has not
          committed to): take the next flit at its reference read time,
          park until a slot is claimable, then place the flit
          arithmetically -- one wake-up per flit instead of a transfer
          sleep plus a slot wait;
        - input empty (worm strung out upstream): park until the next
          flit is buffered, resuming no earlier than the previous flit's
          landing, and carry on as above.

        Returns the tail's landing time, where the output port is to be
        released.
        """
        flit_ns = self.params.link_flit_ns
        sim = self.sim
        count = packet.flit_count(self.params.flit_bytes)
        # The head flit is placed arithmetically too: it lands at
        # ``max(transfer done, claimed slot time)``, parking first only if
        # nothing is claimable -- exactly the blocking send, minus its
        # transfer sleep.
        transfer_done = sim._now + flit_ns
        if not out_link.claimable():
            yield from out_link.wait_claimable()
        done = out_link.put(packet, count, 0, transfer_done)
        moved = 1
        while moved < count:
            if not in_link.runs:
                # Worm strung out upstream: the reference reader is busy
                # until ``done`` and then blocks in receive().
                empty = in_link.empty_signal(done)
                while not in_link.runs:
                    yield empty
                continue
            done, placed = out_link.pull(in_link, done)
            if placed:
                moved += placed
                continue
            # Starved: take the next flit exactly when the reference
            # reader would, then park until the downstream reader frees a
            # slot.  The landing time is computed on wake-up, so a blocked
            # worm costs one event per flit.
            _, index, read = in_link.take(done)
            yield from out_link.wait_claimable()
            done = out_link.put(packet, count, index, read + flit_ns)
            moved += 1
        self.flits_forwarded.bump(count)
        return done
