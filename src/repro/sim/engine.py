"""The event queue at the heart of the simulator.

The engine keeps the classic ``(time, seq)`` contract -- ``seq`` is a
monotonically increasing tie-breaker so that events scheduled for the same
instant fire in the order they were scheduled, which makes every
simulation run exactly deterministic.

This module is the only one that builds, re-keys, pushes or lists queue
entries.  Every entry has one shape, ``[time, seq, callback, args]``: a
:class:`ScheduledEvent` (a ``list`` subclass) when the caller may cancel
it, a bare list for :meth:`Simulator.post`.  Heap ordering compares the
list elements in C, and ``seq`` is unique, so comparison never reaches
the callback.  Entries live in two structures tuned for the hot paths:

- a binary heap, for entries scheduled with a delay;
- a same-time FIFO bucket for events scheduled *at the current instant*
  (the zero-delay fast path).  Signal fires, process joins and wake-ups
  all schedule at delay 0; appending to a deque instead of pushing
  through the heap removes two O(log n) sifts per event.  Bucket entries
  always carry ``time == now`` and, because time only moves forward,
  their sequence numbers are strictly greater than any same-time entry
  still in the heap -- so draining "heap first on ties" preserves the
  exact global (time, seq) order.

An entry is dead once its ``args`` slot is ``None``:
:meth:`ScheduledEvent.cancel` sets callback and args to ``None``, and
the run loop does the same to an entry it fires.  A dead entry stays queued until its own due
time and is skipped when popped.  Every canceller keeps at most one timer
armed (a merge window's flush, a folded spin's slice timer, a timed
resume that ``kill``/``interrupt`` withdraws), so dead entries stay
bounded by the cancels within one such window.

A parked poll (:mod:`repro.sim.poll`) keeps one *tick marker* in the
heap: a :class:`ScheduledEvent` whose callback is ``None`` and whose args
slot holds the :class:`~repro.sim.poll.Poll`.  Popping it runs no
callback and counts no event; :meth:`~repro.sim.poll.Poll.tick` decides
between resuming the process and a next tick, and the engine either
turns the marker, in place, into the process resume or re-keys it to
that tick with the sequence number the unfolded sleep would have taken.
"""

import heapq
from collections import deque

from repro.ckpt.protocol import SCALAR, Checkpointable


class SimulationError(Exception):
    """Raised for illegal use of the simulation engine."""


class ScheduledEvent(list):
    """A cancellable queue entry, ``[time, seq, callback, args]``.

    Returned by :meth:`Simulator.schedule` so callers can cancel the event
    before it fires.  The instance *is* the queue entry, which keeps
    scheduling to a single allocation.  Cancellation is O(1): the entry
    stays queued but is skipped when popped.
    """

    __slots__ = ()

    # No __init__: instances are built from a (time, seq, callback, args)
    # tuple via the C-level list constructor in the engine.  This keeps
    # event creation off the Python-frame hot path.

    @property
    def time(self):
        return self[0]

    @property
    def cancelled(self):
        """True once cancelled *or* already fired (the entry is spent)."""
        return self[3] is None

    def cancel(self):
        """Prevent the callback from running.  Idempotent."""
        self[2] = None
        self[3] = None

    def __repr__(self):
        state = "spent" if self[3] is None else "pending"
        return "ScheduledEvent(t={}, {}, {})".format(
            self[0], getattr(self[2], "__name__", self[2]), state
        )


class Simulator(Checkpointable):
    """A deterministic discrete-event simulator with integer time.

    Typical use::

        sim = Simulator()
        sim.schedule(100, fire_the_laser)
        sim.run()

    Time is an opaque integer; throughout this repository it is interpreted
    as nanoseconds.
    """

    # Clock and event accounting.  Queue contents are NOT captured here:
    # pending events hold Python callbacks and generator continuations,
    # which are not serializable.  ``SystemCheckpoint`` captures them as
    # re-schedulable *descriptors* (worker instruction-boundary resumes,
    # merge-window flushes) at a safepoint, where those are provably the
    # only live entries, and recreates them in ascending original
    # sequence order -- so tie-breaking needs no ``_seq``.
    CKPT_STATE = (("_now", SCALAR), ("_event_count", SCALAR))
    CKPT_SKIP = {
        "_seq": "only the relative order of pending events matters; "
                "capture renumbers descriptors densely at the safepoint",
        "_heap": "captured as descriptors by SystemCheckpoint",
        "_bucket": "drained empty at every safepoint (it only holds "
                   "events at time == _now, mid-run)",
        "_running": "capture inside run() is refused; always False at a "
                    "safepoint",
        "_pause_hooks": "live callables of components that account lazily "
                        "(a folded CPU spin); they settle when a run() "
                        "returns, and re-register on restore",
    }

    def __init__(self):
        self._now = 0
        self._seq = 0
        self._heap = []
        self._bucket = deque()  # events at time == _now (FIFO by seq)
        self._running = False
        self._event_count = 0
        self._pause_hooks = {}

    def add_pause_hook(self, key, hook):
        """Call ``hook()`` whenever :meth:`run` returns, until removed.

        For components that account for their work lazily between events
        (a folded CPU spin loop charges its iterations when something
        wakes it): the hook brings their counters up to ``now`` so a
        caller inspecting state after ``run()`` sees exact values.
        """
        self._pause_hooks[key] = hook

    def remove_pause_hook(self, key):
        self._pause_hooks.pop(key, None)

    @property
    def now(self):
        """Current simulation time (integer nanoseconds)."""
        return self._now

    @property
    def event_count(self):
        """Number of events executed so far (for budget guards in tests)."""
        return self._event_count

    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        Returns a :class:`ScheduledEvent` that can be cancelled.
        """
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay=%r)" % (delay,))
        seq = self._seq + 1
        self._seq = seq
        if delay == 0:
            event = ScheduledEvent((self._now, seq, callback, args))
            self._bucket.append(event)
        else:
            event = ScheduledEvent((self._now + delay, seq, callback, args))
            heapq.heappush(self._heap, event)
        return event

    def post(self, callback, *args):
        """Schedule a non-cancellable ``callback(*args)`` at the current instant.

        The wake-up fast path used by signal fires and process joins: it
        appends a bare entry to the same-time bucket, skipping the
        :class:`ScheduledEvent` wrapper since there is nothing to cancel.
        Ordering is identical to ``schedule(0, ...)``.
        """
        seq = self._seq + 1
        self._seq = seq
        self._bucket.append([self._now, seq, callback, args])

    def schedule_at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                "cannot schedule at t=%r, now is t=%r" % (time, self._now)
            )
        return self.schedule(time - self._now, callback, *args)

    def schedule_tick(self, time, poll):
        """Queue ``poll``'s tick marker at absolute ``time`` (see the
        module doc); returns it, so the poll can cancel it."""
        seq = self._seq + 1
        self._seq = seq
        marker = ScheduledEvent((time, seq, None, poll))
        heapq.heappush(self._heap, marker)
        return marker

    def _tick(self, marker):
        """Run a popped tick marker at its tick: True when it turned, in
        place, into its process's resume, False when re-keyed to the
        poll's next tick with a fresh sequence number."""
        poll = marker[3]
        due = poll.tick(marker[0])
        if due is None:
            marker[2] = poll.process._resume
            marker[3] = (None,)
            return True
        self._seq = marker[1] = self._seq + 1
        marker[0] = due
        heapq.heappush(self._heap, marker)
        return False

    def live_entries(self):
        """Every pending entry, a parked poll's tick marker included (its
        callback slot is ``None``): heap entries, then bucket entries.

        Callers needing global order sort by sequence number, which is
        unique across both containers.
        """
        return ([entry for entry in self._heap if entry[3] is not None]
                + [entry for entry in self._bucket if entry[3] is not None])

    def _next_entry(self):
        """Pop the live entry with the smallest (time, seq), or None.

        Bucket entries sit at the current time with seqs above every
        same-time heap entry, so the heap wins ties.
        """
        heap = self._heap
        bucket = self._bucket
        while True:
            if bucket:
                if heap and heap[0] < bucket[0]:
                    entry = heapq.heappop(heap)
                else:
                    entry = bucket.popleft()
            elif heap:
                entry = heapq.heappop(heap)
            else:
                return None
            if entry[2] is not None or (
                    entry[3] is not None and self._tick(entry)):
                return entry

    def peek(self):
        """Time of the next pending event, or ``None`` if the queue is empty.

        A parked poll's tick marker counts as pending: the unfolded poll
        it stands for would have a timer there.
        """
        heap = self._heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)
        bucket = self._bucket
        while bucket and bucket[0][3] is None:
            bucket.popleft()
        if bucket and not (heap and heap[0] < bucket[0]):
            return bucket[0][0]
        if heap:
            return heap[0][0]
        return None

    def step(self):
        """Execute the single next event.  Returns False if none remain."""
        entry = self._next_entry()
        if entry is None:
            return False
        self._now = entry[0]
        self._event_count += 1
        callback, args = entry[2], entry[3]
        entry[2] = None  # mark spent; late cancel() becomes a no-op
        entry[3] = None
        callback(*args)
        return True

    def run(self, until=None, max_events=None):
        """Run until the queue drains, ``until`` is reached, or the budget hits.

        ``until`` is an absolute time: events scheduled strictly after it
        are left in the queue and the clock is advanced to ``until`` -- also
        when the queue drains at or before ``until``, so a bounded run
        always ends with ``now == until`` (never earlier).
        ``max_events`` bounds the number of executed events; exceeding it
        raises :class:`SimulationError` (it is a runaway guard, not a pause).
        Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        executed = 0
        # The loop below is the single hottest code in the repository:
        # containers and the heap pop are bound to locals, and the two
        # optional bounds become always-comparable sentinels so the
        # common unbounded run pays no per-event None checks.
        heap = self._heap
        bucket = self._bucket
        heappop = heapq.heappop
        horizon = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        idle_ticks = 0  # folded-poll ticks that resumed nothing
        try:
            while True:
                if bucket:
                    if heap and heap[0] < bucket[0]:
                        entry = heappop(heap)
                    else:
                        entry = bucket.popleft()
                elif heap:
                    entry = heappop(heap)
                else:
                    break
                callback = entry[2]
                if callback is None:
                    if entry[3] is None:
                        continue  # cancelled
                    # A folded poll's tick marker (see the module doc).
                    if entry[0] > horizon:
                        heapq.heappush(heap, entry)
                        break
                    if not self._tick(entry):
                        # The runaway guard also bounds a poll that
                        # never wakes, as it bounded its unfolded ticks.
                        idle_ticks += 1
                        if executed + idle_ticks > budget:
                            raise SimulationError(
                                "exceeded max_events=%d at t=%d (folded "
                                "poll ticks)" % (max_events, entry[0]))
                        continue
                    callback = entry[2]
                time = entry[0]
                if time > horizon:
                    heapq.heappush(heap, entry)
                    break
                if executed >= budget:
                    heapq.heappush(heap, entry)
                    raise SimulationError(
                        "exceeded max_events=%d at t=%d" % (max_events, self._now)
                    )
                self._now = time
                self._event_count += 1
                executed += 1
                args = entry[3]
                entry[2] = None
                entry[3] = None
                callback(*args)
            # A bounded run always ends at `until` -- also when the queue
            # drained early (every remaining event is strictly later).
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            for hook in list(self._pause_hooks.values()):
                hook()
        return executed

    def run_until_idle(self, max_events=10_000_000):
        """Run with only the runaway guard; convenience for tests."""
        return self.run(max_events=max_events)

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_refusal(self, state):
        if state is not None and (self._heap or self._bucket):
            return ("cannot restore a simulator clock with %d events pending"
                    % (len(self._heap) + len(self._bucket)))
        return None
