"""Unidirectional flit channels with bounded buffering.

A link models one physical channel between adjacent routers (or between a
NIC and its router).  It has a per-flit transfer time (setting the link
bandwidth) and a bounded receive buffer: a full buffer blocks the sender,
which is how wormhole backpressure propagates hop by hop all the way back
to a sending NIC.

Implementation: timestamped burst transfers.  The per-flit reference
behaviour is ``Timeout(link_flit_ns)`` then a blocking put -- one timed
event plus a signal round-trip per flit.  This link instead lets the
single writer deposit a *chunk* of flits up front, each stamped with the
simulated time it would have completed transfer (``ready_at``, spaced
``link_flit_ns`` apart), then sleep once for the whole chunk.  The single
reader only sees a flit once its stamp matures, so arrival times are
identical to the per-flit model.

Backpressure stays flit-exact through three rules:

- A reader that consumes flits ahead of time (the router's batched
  forwarding pops flits it will only finish forwarding later) declares a
  *future free time* per popped slot.  The slot stays counted as occupied
  until then, so an upstream writer never squeezes a flit in earlier
  than the reference model would have admitted it.
- A chunk never exceeds the *claimable* slots at chunk start: the free
  slots plus the declared future frees.  A flit routed through a future
  free lands at ``max(transfer done, declared free time)`` -- the exact
  instant the reference model's blocked put would have completed,
  because the single FIFO reader frees slots at non-decreasing times, so
  no slot can open earlier than the declared schedule.
- With no claimable slot at all (buffered flits the reader has not yet
  committed to), the writer parks until the reader frees or declares a
  slot, then places the flit arithmetically at ``max(transfer done,
  slot time)`` -- the instant the reference model's blocked put would
  have completed -- costing one wake-up per flit instead of a transfer
  sleep plus a slot wait.

Each link has exactly one writer (wormhole switching holds the upstream
output port; injection ports are mutex-guarded) and one reader (the
downstream router's input process or the NIC accept loop), which is what
makes the stamp and free-time bookkeeping race-free.
"""

from collections import deque

from repro.sim.instrument import Instrumentation
from repro.sim.process import Signal, Timeout, Wait


class Link:
    """A timed, bounded flit pipe."""

    def __init__(self, sim, params, name="link"):
        self.sim = sim
        self.params = params
        self.name = name
        self.capacity = params.input_buffer_flits
        self._entries = deque()  # (ready_at, flit), ready_at non-decreasing
        self._frees = deque()  # future slot-free times, non-decreasing
        self._not_full = Signal(sim, name + ".not_full")
        self._not_empty = Signal(sim, name + ".not_empty")
        # Wait requests are immutable; reuse one per signal instead of
        # allocating a fresh one for every park on the hot path.
        self._wait_not_full = Wait(self._not_full)
        self._wait_not_empty = Wait(self._not_empty)
        # Fault-injection hook (repro.faults): a downed link admits no new
        # transfers; already-deposited flits remain readable (they arrived
        # before the cable was pulled).  Orchestration state owned by the
        # FaultController -- re-armed from the FaultPlan after a restore,
        # never part of a checkpoint.
        self._down = False  # simlint: ignore[SL201] fault state, re-armed from the FaultPlan not the checkpoint
        self.flits_moved = Instrumentation.of(sim).counter(name + ".flits")

    # -- occupancy accounting --------------------------------------------------

    def free_slots(self):
        """Buffer slots a writer may claim right now.

        Drops matured future-free records on the way (a slot consumed
        ahead of time stops counting once its declared free time passes).
        """
        frees = self._frees
        if frees:
            now = self.sim._now
            while frees and frees[0] <= now:
                frees.popleft()
        return self.capacity - len(self._entries) - len(frees)

    @property
    def occupancy(self):
        """Flits buffered (deposited and not yet consumed by the reader)."""
        return len(self._entries)

    def is_full(self):
        return self.free_slots() <= 0

    # -- writer side -----------------------------------------------------------

    def _deposit(self, ready_at, flit):
        self._entries.append((ready_at, flit))
        self.flits_moved.bump()
        self._not_empty.fire()

    def _wait_for_slot(self):
        """Generator: block until at least one buffer slot is free *now*
        (and the link is up)."""
        while self._down or self.free_slots() <= 0:
            if self._down:
                # Slot maturity is irrelevant while the cable is pulled;
                # set_down(False) fires _not_full to resume writers.
                yield self._wait_not_full
                continue
            frees = self._frees
            if frees:
                # A consumed-ahead slot matures at a known time; no reader
                # pop can free one earlier (free times are non-decreasing).
                yield Timeout(frees[0] - self.sim._now)
            else:
                yield self._wait_not_full

    def wait_claimable(self):
        """Generator: block until :meth:`claim_times` has something to give
        (a slot free now, or a consumed-ahead slot with a declared future
        free time -- the writer need not sleep to the maturity itself)."""
        while self._down or (self.free_slots() <= 0 and not self._frees):
            yield self._wait_not_full

    # -- fault-injection hook (see repro.faults) -------------------------------

    @property
    def is_down(self):
        return self._down

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

    def send(self, flit):
        """Generator: transfer one flit (timed), blocking on a full buffer."""
        yield Timeout(self.params.link_flit_ns)
        yield from self._wait_for_slot()
        self._deposit(self.sim._now, flit)

    def send_burst(self, flits):
        """Generator: transfer ``flits`` in capacity-bounded chunks.

        Arrival times and backpressure blocking are identical to calling
        :meth:`send` once per flit; uncontended chunks just cost one timed
        event each instead of several events per flit.  A chunk may also
        run through slots claimable at known future times (declared by a
        consumed-ahead reader): each flit then lands at
        ``max(transfer done, claimed slot time)`` -- the instant the
        reference model's blocked put would have completed.  With nothing
        claimable the writer parks until the reader frees a slot; landing
        times are computed arithmetically on wake-up, so a blocked burst
        costs about one event per flit.  The single sleep at the end
        paces the sender to the last flit's landing time.
        """
        flit_ns = self.params.link_flit_ns
        sim = self.sim
        i = 0
        n = len(flits)
        done = sim._now  # reference completion time of the previous flit
        while i < n:
            claim = self.claim_times(n - i)
            if not claim:
                yield from self.wait_claimable()
                continue
            sends = []
            for slot_at in claim:
                land = done + flit_ns
                if slot_at > land:
                    land = slot_at
                sends.append((land, flits[i + len(sends)]))
                done = land
            self.deposit_scheduled(sends)
            i += len(sends)
        if done > sim._now:
            yield Timeout(done - sim._now)

    def claim_times(self, limit):
        """Times at which the writer may claim the next buffer slots.

        Returns at most ``limit`` non-decreasing times: ``now`` for each
        currently-free slot, then the declared free times of
        consumed-ahead slots (see :meth:`pop_entries`).  Because the
        single reader frees slots in FIFO order at non-decreasing times,
        no slot can become claimable earlier than this schedule says --
        which is what lets a writer *reserve* future slots and deposit
        flits stamped with their exact per-flit landing times in one
        batch, instead of blocking per flit.

        Slots currently holding undelivered flits are not claimable (the
        reader has not committed to a pop time for them), so the list may
        be shorter than ``limit``; the writer falls back to the blocking
        per-flit path for the remainder.  A downed link has no claimable
        slots at all.
        """
        if self._down:
            return []
        free = self.free_slots()
        now = self.sim._now
        if free >= limit:
            return [now] * limit
        times = [now] * free if free > 0 else []
        need = limit - len(times)
        frees = self._frees
        if need >= len(frees):
            times.extend(frees)
        else:
            for free_at in frees:
                times.append(free_at)
                need -= 1
                if not need:
                    break
        return times

    def deposit_scheduled(self, land_flit_pairs):
        """Deposit flits stamped with precomputed landing times.

        The caller must have obtained slot availability via
        :meth:`claim_times` at the current instant and computed each
        ``land`` as ``max(transfer done, claimed slot time)``; slots are
        claimed in order, currently-free ones first, so the matching
        number of future-free records is consumed here.
        """
        free = self.free_slots()
        entries = self._entries
        count = 0
        for pair in land_flit_pairs:
            entries.append(pair)
            count += 1
        claimed_future = count - free
        if claimed_future > 0:
            frees = self._frees
            if claimed_future > len(frees):
                raise RuntimeError(
                    "%s: deposited %d flits into %d claimable slots"
                    % (self.name, count, free + len(frees))
                )
            for _ in range(claimed_future):
                frees.popleft()
        self.flits_moved.bump(count)
        self._not_empty.fire()

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_capture(self):
        """Buffered flits plus declared future-free times.

        Flits of one packet share the packet object; the capture dedupes by
        identity (``packet_index`` into a side table) so the restore
        rebuilds exactly one Packet per wormhole, not one per flit.
        System-level safepoints require links *idle* (no entries, no
        outstanding frees), but the component capture is general so link
        state round-trips in isolation tests.
        """
        packet_states = []
        packet_index_by_id = {}
        entries = []
        for ready_at, flit in self._entries:
            key = id(flit.packet)
            index = packet_index_by_id.get(key)
            if index is None:
                index = len(packet_states)
                packet_index_by_id[key] = index
                packet_states.append(flit.packet.to_state())
            entries.append(
                [ready_at, index, flit.index, flit.is_head, flit.is_tail]
            )
        return {
            "packets": packet_states,
            "entries": entries,
            "frees": list(self._frees),
        }

    def ckpt_restore(self, state):
        from repro.mesh.packet import Flit, Packet

        packets = [Packet.from_state(ps) for ps in state["packets"]]
        self._entries.clear()
        for ready_at, packet_index, flit_index, is_head, is_tail in state["entries"]:
            flit = Flit(packets[packet_index], flit_index, is_head, is_tail)
            self._entries.append((ready_at, flit))
        self._frees.clear()
        self._frees.extend(state["frees"])

    def ckpt_idle(self):
        """True when the link holds no state a safepoint would need to
        serialize: nothing buffered and every declared free matured."""
        return not self._entries and self.free_slots() == self.capacity

    # -- reader side -----------------------------------------------------------

    def receive(self):
        """Generator: take the next flit, blocking while the link is empty.

        A deposited flit is only handed over once its transfer-completion
        stamp matures.
        """
        while True:
            if self._entries:
                ready_at, flit = self._entries[0]
                now = self.sim._now
                if ready_at <= now:
                    self._entries.popleft()
                    self._not_full.fire()
                    return flit
                yield Timeout(ready_at - now)
            else:
                yield self._wait_not_empty

    def try_receive(self):
        """Non-blocking receive.  Returns (True, flit) or (False, None)."""
        if self._entries and self._entries[0][0] <= self.sim._now:
            _, flit = self._entries.popleft()
            self._not_full.fire()
            return True, flit
        return False, None

    def peek_entries(self):
        """The deposited (ready_at, flit) queue, oldest first (read-only).

        Entries may carry future stamps; a batching reader must account
        for them (see :meth:`pop_entries`).
        """
        return self._entries

    def pop_entries(self, count, free_times):
        """Consume ``count`` deposited flits ahead of their hand-over times.

        ``free_times[j]`` is the simulated time the j-th slot is to be
        considered free -- the time the per-flit reference reader would
        have popped it.  Slots with future free times stay counted against
        the writer's capacity until they mature.  A parked writer is woken
        immediately even for future frees: it can *claim* the slot right
        away (see :meth:`claim_times`) and stamp its flit with the exact
        per-flit landing time, instead of sleeping to the maturity first.
        """
        entries = self._entries
        frees = self._frees
        now = self.sim._now
        for j in range(count):
            entries.popleft()
            free_at = free_times[j]
            if free_at > now:
                frees.append(free_at)
        self._not_full.fire()

