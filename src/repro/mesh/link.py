"""Unidirectional flit channels with bounded buffering, kept as runs.

A link models one physical channel between adjacent routers (or between a
NIC and its router).  It has a per-flit transfer time ``f =
link_flit_ns`` (setting the link bandwidth) and a bounded receive
buffer: a full buffer blocks the sender, which is how wormhole
backpressure propagates hop by hop all the way back to a sending NIC.

The per-flit reference behaviour is a sleep of ``f`` then a blocking put
for every flit, and a reader that pops each flit once it has arrived.
This link computes the same schedule arithmetically, one *run* at a time
instead of one flit at a time:

- A worm is its packet and its flit count: flit ``index`` of a
  ``count``-flit worm is the head when ``index == 0`` and the tail when
  ``index == count - 1``.  No per-flit object exists.
- The buffer holds **entry runs** ``[t0, packet, lo, hi, count]``:
  flits ``lo..hi-1`` of one worm, arriving ``t0, t0+f, t0+2f, ...``.  A
  flit is only handed to the reader once its stamp matures, so arrival
  times are those of the per-flit model.
- A reader that consumes flits ahead of time (the router forwards a run
  it will only finish forwarding later) declares when the per-flit
  reader would have freed each slot.  Those **free runs** ``[t0, n]``
  (``n`` slots freeing at ``t0, t0+f, ...``) stay counted against the
  capacity until they mature, so an upstream writer never squeezes a
  flit in earlier than the reference would have admitted it.
- A writer may claim the slots free now and, after them, the declared
  future frees (:meth:`claimable`).  A flit that is ready at ``a`` and
  whose predecessor landed at ``done`` is read at ``max(a, done)`` and
  lands at ``max(read + f, slot)``.  Over the overlap of one entry run
  and one slot run that max-plus recurrence has a closed form -- the
  first flit lands at ``L0 = max(max(a, done) + f, slot)``, each later
  one ``f`` after the one before, and the reader's slots free at
  ``max(a, done)`` and then ``L0, L0+f, ...`` -- so :meth:`pull` and
  :meth:`send_burst` cost one step per run overlap, not per flit.  The
  single FIFO reader frees slots at non-decreasing times, so no slot can
  open earlier than the declared schedule.
- With nothing claimable (buffered flits the reader has not committed
  to), the writer parks until the reader frees or declares a slot, then
  places the flit at ``max(transfer done, slot time)`` (:meth:`put`).
- A reader parked on the empty buffer is woken once, at the deposited
  head's stamp -- when it could take it -- or at the not-before time it
  asked for if the flit came earlier (:meth:`empty_signal`), instead of
  at the deposit and again at the stamp.

Each link has exactly one writer (wormhole switching holds the upstream
output port; injection ports are mutex-guarded) and one reader (the
downstream router's input process or the NIC accept loop), which is what
makes the stamp and free-time bookkeeping race-free.

Both buffers are plain lists: each holds at most ``capacity`` runs, so
dropping the oldest costs no more than a deque's ``popleft``, and an
empty list costs a fraction of an empty deque on a 1024-node mesh.  For
the same reason a link holds no instance dict, and its two signals
name themselves through it (see :class:`~repro.sim.process.Named`).
"""

from repro.ckpt.protocol import Checkpointable
from repro.sim.instrument import Instrumentation
from repro.sim.process import Signal


class Link(Checkpointable):
    """A timed, bounded flit pipe."""

    __slots__ = ("sim", "params", "name", "capacity", "_flit_ns", "runs",
                 "_frees", "_held", "_owed", "_not_before", "_not_full",
                 "_not_empty", "_down", "flits_moved")

    #: Metrics registered under the link's name (see Instrumentation.register).
    METRICS = (("flits", "counter"),)

    CKPT_SKIP = {
        "runs": "encoded by ckpt_capture: one record per buffered flit",
        "_frees": "encoded by ckpt_capture: one time per future free",
        "_held": "rebuilt with the runs by ckpt_restore",
        "_owed": "rebuilt with the frees by ckpt_restore",
        "_not_before": "a parked reader's wake floor; reset by ckpt_restore",
        "_down": "fault state, re-armed from the FaultPlan",
    }

    def __init__(self, sim, params, name="link"):
        self.sim = sim
        self.params = params
        self.name = name
        self.capacity = params.input_buffer_flits
        self._flit_ns = params.link_flit_ns
        self.runs = []  # entry runs [t0, packet, lo, hi, count], oldest first
        self._frees = []  # free runs [t0, n], non-decreasing
        self._held = 0  # flits buffered: the entry runs' total length
        self._owed = 0  # consumed-ahead slots not yet free: the free runs' total
        self._not_before = 0  # the parked reader resumes no earlier than this
        self._not_full = Signal(sim, "not_full", self)
        self._not_empty = Signal(sim, "not_empty", self)
        # Fault-injection hook (repro.faults): a downed link admits no new
        # transfers; already-deposited flits remain readable (they arrived
        # before the cable was pulled).  Orchestration state owned by the
        # FaultController -- re-armed from the FaultPlan after a restore,
        # never part of a checkpoint.
        self._down = False
        (self.flits_moved,) = Instrumentation.of(sim).register(self)

    # -- occupancy accounting --------------------------------------------------

    def free_slots(self):
        """Buffer slots a writer may claim right now.

        Drops matured free records on the way (a slot consumed ahead of
        time stops counting once its declared free time passes).
        """
        frees = self._frees
        if frees and frees[0][0] <= self.sim._now:
            self._mature(frees)
        return self.capacity - self._held - self._owed

    def _mature(self, frees):
        now = self.sim._now
        f = self._flit_ns
        while frees:
            run = frees[0]
            t0, n = run
            if t0 > now:
                return
            done = n if not f else min(n, (now - t0) // f + 1)
            self._owed -= done
            if done == n:
                del frees[0]
            else:
                run[0] = t0 + done * f
                run[1] = n - done
                return

    @property
    def occupancy(self):
        """Flits buffered (deposited and not yet consumed by the reader)."""
        return self._held

    def claimable(self):
        """Slots a writer may claim now: free ones, then declared future
        frees -- every slot not holding a buffered flit.  A downed link
        has none."""
        if self._down:
            return 0
        return self.capacity - self._held

    def reset(self):
        """Empty the buffer and forget every declared free (restore path)."""
        self.ckpt_restore({"packets": [], "entries": [], "frees": []})

    # -- writer side -----------------------------------------------------------

    def _filled(self):
        """Wake the reader parked on the empty buffer at the head's stamp
        -- the instant it could take it -- or at the not-before time it
        asked for, if the flit came earlier (see :meth:`empty_signal`).
        Writers call this only while the reader is parked."""
        signal = self._not_empty
        now = self.sim._now
        wake = self._not_before
        if wake <= now:
            wake = self.runs[0][0]
        if wake > now:
            signal.fire_one(None, wake - now)
        else:
            signal.fire()

    def _append(self, land, packet, count, lo, n):
        """Buffer flits ``lo..lo+n-1`` of the ``count``-flit worm
        ``packet``, landing at ``land, land+f, ...``."""
        runs = self.runs
        self._held += n
        if runs:
            last = runs[-1]
            if (last[1] is packet and last[3] == lo
                    and last[0] + (lo - last[2]) * self._flit_ns == land):
                last[3] = lo + n
                return
        runs.append([land, packet, lo, lo + n, count])

    def _fill(self, packet, count, lo, hi, ready, done, src):
        """Place flits ``lo..hi-1`` of the ``count``-flit worm ``packet``
        (ready at ``ready, ready+f, ...``) into claimable slots, after a
        predecessor that landed at ``done``.

        Returns ``(placed, done)``.  Slots are claimed in order, free ones
        first, then the declared future frees; one closed-form step per
        (entry run, slot run) overlap.  With ``src``, the reader side of
        the flits' current link, each read time is declared there as the
        slot's free time.
        """
        f = self._flit_ns
        frees = self._frees
        if frees and frees[0][0] <= self.sim._now:
            self._mature(frees)
        placed = 0
        while lo < hi:
            free_now = self.capacity - self._held - self._owed
            if free_now > 0:
                slot = self.sim._now
                left = free_now
            elif frees:
                run = frees[0]
                slot, left = run
            else:
                break
            n = hi - lo
            if n > left:
                n = left
            read = ready if ready > done else done
            land = read + f
            if slot > land:
                land = slot
            if src is not None:
                if land == read + f:
                    src._declare(read, n)
                else:
                    src._declare(read, 1)
                    if n > 1:
                        src._declare(land, n - 1)
            self._append(land, packet, count, lo, n)
            if free_now <= 0:
                self._owed -= n
                if n == left:
                    del frees[0]
                else:
                    run[0] = slot + n * f
                    run[1] = left - n
            done = land + (n - 1) * f
            lo += n
            ready += n * f
            placed += n
        return placed, done

    def wait_claimable(self):
        """Generator: block until :meth:`claimable` is non-zero (the writer
        need not sleep to a consumed-ahead slot's maturity itself)."""
        while not self.claimable():
            yield self._not_full

    # -- fault-injection hook (see repro.faults) -------------------------------

    def set_down(self, down):
        """Pull (or reconnect) the cable.

        While down the link admits no new transfers -- writers park
        exactly as they do on a full buffer, so backpressure propagates
        upstream hop by hop just like congestion would.  Flits already
        deposited stay deliverable: they completed transfer before the
        fault.  Bringing the link back up wakes every parked writer.
        """
        down = bool(down)
        if down == self._down:
            return
        self._down = down
        if not down:
            self._not_full.fire()

    def send_burst(self, packet, count):
        """Generator: transfer the ``count``-flit worm ``packet`` run by
        run.

        Arrival times and backpressure blocking are identical to the
        per-flit reference: a transfer time, then a blocking put, per
        flit.  Each step claims every claimable slot
        (free now, or declared by a consumed-ahead reader) and places the
        flits in closed form; with nothing claimable the writer parks
        until the reader frees or declares a slot.  The single sleep at
        the end paces the sender to the last flit's landing time.
        """
        sim = self.sim
        lo = 0
        done = sim._now  # reference completion time of the previous flit
        while lo < count:
            if not self.claimable():
                yield from self.wait_claimable()
                continue
            placed, done = self._fill(packet, count, lo, count, done, done,
                                      None)
            lo += placed
            self.flits_moved.bump(placed)
            if self._not_empty._waiters:
                self._filled()
        if done > sim._now:
            yield done - sim._now

    def put(self, packet, count, index, earliest):
        """Place flit ``index`` of the ``count``-flit worm ``packet`` at
        ``max(earliest, first claimable slot)`` -- the instant the
        reference's blocked put would complete for a transfer finishing
        at ``earliest``.  Returns the landing time.

        The caller must have made sure a slot is claimable (see
        :meth:`wait_claimable`).
        """
        f = self._flit_ns
        placed, land = self._fill(packet, count, index, index + 1,
                                  earliest - f, earliest - f, None)
        if not placed:
            raise RuntimeError("%s: put with no claimable slot" % self.name)
        self.flits_moved.bump()
        if self._not_empty._waiters:
            self._filled()
        return land

    def pull(self, src, done):
        """Forward the buffered flits of the worm at the head of ``src``,
        through its tail at most, into this link's claimable slots.

        ``done`` is the landing time of the worm's previous flit.  Each
        flit is read from ``src`` at ``max(stamp, done)`` -- declared there
        as the slot's free time -- and lands here at ``max(read + f,
        slot)``.  Returns ``(done, placed)``: the last landing time and the
        number of flits moved, 0 when nothing is claimable.
        """
        if not self.claimable():
            return done, 0
        runs = src.runs
        placed = 0
        while runs:
            run = runs[0]
            t0, packet, lo, hi, count = run
            n, done = self._fill(packet, count, lo, hi, t0, done, src)
            if not n:
                break
            placed += n
            if lo + n < hi:
                run[0] = t0 + n * self._flit_ns
                run[2] = lo + n
                break
            del runs[0]
            if hi == count:
                break
        if placed:
            src._held -= placed
            if src._not_full._waiters:
                src._not_full.fire()
            self.flits_moved.bump(placed)
            if self._not_empty._waiters:
                self._filled()
        return done, placed

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_capture(self):
        """Buffered flits plus declared future-free times, one record each.

        Each record is ``[ready_at, packet_index, flit_index, is_head,
        is_tail]``.  Flits of one worm share its packet; the capture
        dedupes by identity (``packet_index`` into a side table) so the
        restore rebuilds exactly one Packet per wormhole, not one per
        flit.
        System-level safepoints require links *idle* (no entries, no
        outstanding frees), but the component capture is general so link
        state round-trips in isolation tests.
        """
        self._mature(self._frees)
        f = self._flit_ns
        state = super().ckpt_capture()
        packet_states = state["packets"] = []
        packet_index_by_id = {}
        entries = state["entries"] = []
        for t0, packet, lo, hi, count in self.runs:
            packet_index = packet_index_by_id.get(id(packet))
            if packet_index is None:
                packet_index = len(packet_states)
                packet_index_by_id[id(packet)] = packet_index
                packet_states.append(packet.to_state())
            for index in range(lo, hi):
                entries.append([t0 + (index - lo) * f, packet_index, index,
                                index == 0, index == count - 1])
        state["frees"] = [t0 + k * f for t0, n in self._frees for k in range(n)]
        return state

    def ckpt_restore(self, state):
        from repro.mesh.packet import PacketError, Packet

        super().ckpt_restore(state)
        # The counters are rebuilt with the runs, never carried over.
        self.runs = []
        self._frees = []
        self._held = 0
        self._owed = 0
        self._not_before = 0
        packets = [Packet.from_state(ps) for ps in state["packets"]]
        counts = [packet.flit_count(self.params.flit_bytes)
                  for packet in packets]
        for ready_at, packet_index, flit_index, is_head, is_tail in state["entries"]:
            count = counts[packet_index]
            if (not 0 <= flit_index < count or is_head != (flit_index == 0)
                    or is_tail != (flit_index == count - 1)):
                raise PacketError(
                    "%s: restored flit %d does not fit its packet"
                    % (self.name, flit_index)
                )
            self._append(ready_at, packets[packet_index], count, flit_index,
                         1)
        for free_at in state["frees"]:
            self._declare(free_at, 1)

    def ckpt_idle(self):
        """True when the link holds no state a safepoint would need to
        serialize: nothing buffered and every declared free matured."""
        return not self.runs and self.free_slots() == self.capacity

    # -- reader side -----------------------------------------------------------

    def _declare(self, t0, n):
        """Record ``n`` consumed-ahead slots freeing at ``t0, t0+f, ...``;
        the part not in the future is free at once."""
        f = self._flit_ns
        now = self.sim._now
        if t0 <= now:
            done = n if not f else (now - t0) // f + 1
            if done >= n:
                return
            t0 += done * f
            n -= done
        self._owed += n
        frees = self._frees
        if frees:
            last = frees[-1]
            if last[0] + last[1] * f == t0:
                last[1] += n
                return
        frees.append([t0, n])

    def arrival(self):
        """Generator: block until the oldest buffered flit's transfer-
        completion stamp matures (without taking it)."""
        while True:
            runs = self.runs
            if runs:
                ready_at = runs[0][0]
                now = self.sim._now
                if ready_at <= now:
                    return
                yield ready_at - now
            else:
                yield self._not_empty

    def empty_signal(self, not_before):
        """The signal a reader of the empty buffer parks on (``while not
        link.runs: yield signal``), to resume no earlier than
        ``not_before``.

        A flit deposited before ``not_before`` wakes the reader *at*
        ``not_before`` (its stamp may still lie ahead); one deposited
        later wakes it at its stamp.  Either way the deposit schedules
        one timed resume instead of a wake-up followed by a sleep.  The
        reader parks in its own frame, not in a nested generator.
        """
        self._not_before = not_before
        return self._not_empty

    def take(self, done):
        """Consume the oldest buffered flit as a reader that is busy until
        ``done`` would: it is read at ``max(stamp, done)``, which becomes
        its slot's free time.  Returns ``(packet, index, read_at)``.
        """
        runs = self.runs
        run = runs[0]
        t0, packet, lo, hi, _ = run
        if lo + 1 == hi:
            del runs[0]
        else:
            run[0] = t0 + self._flit_ns
            run[2] = lo + 1
        self._held -= 1
        read = t0 if t0 > done else done
        self._declare(read, 1)
        if self._not_full._waiters:
            self._not_full.fire()
        return packet, lo, read

    def receive(self):
        """Generator: take the next flit, blocking while the link is empty.

        A deposited flit is only handed over once its transfer-completion
        stamp matures.  Returns ``(packet, index)``.
        """
        yield from self.arrival()
        packet, index, _ = self.take(self.sim._now)
        return packet, index

    def drain(self, packet):
        """Consume the buffered flits of worm ``packet``, through its tail
        at most, as a reader with no think time: each is read at
        ``max(stamp, now)``, which becomes its slot's free time.

        Returns ``(last read time, tail reached)``.  Raises
        ``ValueError`` if another worm's flits come first.
        """
        runs = self.runs
        now = self.sim._now
        last = now
        taken = 0
        tail = False
        while runs:
            t0, worm, lo, hi, count = runs[0]
            if worm is not packet:
                raise ValueError("%s: interleaved worms" % self.name)
            del runs[0]
            n = hi - lo
            taken += n
            self._declare(t0, n)
            end = t0 + (n - 1) * self._flit_ns
            if end > last:
                last = end
            if hi == count:
                tail = True
                break
        self._held -= taken
        self._not_full.fire()
        return last, tail
