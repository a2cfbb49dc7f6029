"""Folded fixed-period polls.

A runtime wait that polls a flag on a fixed period,

    while True:
        yield step
        if ready() or deadline_reached:
            break

resumes its process every ``step`` ns, and almost every resume finds
nothing to do.  :func:`poll` gives the same result without those
resumes:

- **Ticks.**  The unfolded loop looks at ``origin + k*period``
  (``origin`` = the call's instant).  A deadline ends the wait either at
  the first tick at or after it (the DSM retry and lease checks) or, with
  ``at_deadline``, at the deadline itself as the last tick (the reliable
  channel clamps its sleep to its retransmit deadline).
- **Wake sources.**  ``ready()`` may only change through the DRAM
  ``words`` (watched on ``memory``: every ``write_word``,
  ``write_words`` and ``ckpt_restore``) and the ``signals`` (watched
  synchronously on ``fire``).  When one fires, :meth:`Poll.notify`
  evaluates ``ready()`` and, if it holds, marks the poll woken.
- **Same-instant order.**  The parked process keeps one *tick marker*
  in the event heap (see :mod:`repro.sim.engine`).  At each tick the
  engine asks :meth:`Poll.tick` whether the process resumes here; if
  not, it re-keys the marker to the next tick with the sequence number
  the unfolded sleep would have taken, without running a callback or
  counting an event.  The marker of a woken (or deadline) tick turns, in
  place, into the process resume, so the resume takes the unfolded
  tick's exact place among the events of its instant: a change made at
  a tick's instant is seen at that tick exactly when the unfolded loop
  would have seen it, by construction rather than by a tie rule.
- **Reads.**  ``reads`` is the number of DRAM reads one idle tick of the
  caller's loop makes.  They are charged to ``memory.read_count`` in
  closed form -- every tick before the marker's is one slept through --
  when the poll returns or is closed, and when the memory is captured
  for a checkpoint (:meth:`Poll.settle`).  ``ready()`` itself is
  evaluated without touching the counter.

The marker of a woken poll tests ``ready()`` again at its tick, so a
poll whose change was undone by then (a write that restored the word)
sleeps on like an idle tick.  The helper returns at the tick where
``ready()`` holds or the deadline is reached; the caller's loop body
then runs exactly as it would have after the unfolded sleep.
"""


class Poll:
    """One parked :func:`poll`: the process, its tick grid and its marker.

    Yielded to :class:`~repro.sim.process.Process`, which calls
    :meth:`park`; the process keeps the poll as its ``_pending_resume``
    so ``kill`` and ``interrupt`` withdraw the marker through
    :meth:`cancel`.
    """

    __slots__ = ("sim", "origin", "period", "last", "ready", "memory",
                 "reads", "charged", "woken", "process", "entry")

    def __init__(self, sim, period, last, ready, memory, reads):
        self.sim = sim
        self.origin = sim._now
        self.period = period
        self.last = last  # the final tick: resumes whatever ready() says
        self.ready = ready
        self.memory = memory
        self.reads = reads
        self.charged = 0  # ticks whose reads are in memory.read_count
        self.woken = False
        self.process = None
        self.entry = None

    def probe(self):
        """``ready()``, leaving ``memory.read_count`` as it was."""
        memory = self.memory
        if memory is None:
            return self.ready()
        count = memory.read_count
        try:
            return self.ready()
        finally:
            memory.read_count = count

    def settle(self):
        """Charge the reads of every tick before the marker's: those the
        poll slept through (the marker's own is yet to run, or is the
        tick the poll returns at, which the caller reads itself)."""
        ticks = (self.entry.time - self.origin - 1) // self.period
        self.memory.read_count += self.reads * (ticks - self.charged)
        self.charged = ticks

    def notify(self):
        """A wake source fired: wake at the next tick if ready() holds."""
        if not self.woken and self.probe():
            self.woken = True

    def park(self, process):
        """Queue the tick marker for the next tick."""
        due = self.sim._now + self.period
        if due > self.last:
            due = self.last
        self.process = process
        self.entry = self.sim.schedule_tick(due, self)
        process._pending_resume = self

    def tick(self, time):
        """Engine hook for the marker at its tick ``time``, at the
        unfolded tick's place: ``None`` when the process resumes here,
        else the time of the next tick.  A woken poll tests ``ready()``
        again here, as the unfolded tick would."""
        last = self.last
        if time >= last or self.woken and self.probe():
            return None
        self.woken = False
        time += self.period
        return time if time < last else last

    def cancel(self):
        """Withdraw the marker (or the resume it turned into)."""
        if self.entry is not None:
            self.entry.cancel()

    def __repr__(self):
        name = self.process.name if self.process is not None else "?"
        return "Poll(%s, period=%d)" % (name, self.period)


def poll(sim, period, ready, deadline=None, at_deadline=False, memory=None,
         reads=0, words=(), signals=()):
    """Generator: sleep until the first tick where ``ready()`` holds or
    the deadline is reached (see the module doc for the tick model).

    Equivalent to the unfolded loop above, where ``step`` is ``period``
    (clamped to the time left before ``deadline`` when ``at_deadline``)
    and every tick costs ``reads`` DRAM reads.  ``ready()`` must be the
    full condition under which the caller's loop body acts at a tick, a
    function only of the watched ``words`` and ``signals``.
    """
    origin = sim._now
    if deadline is None:
        last = float("inf")
    elif at_deadline:
        last = max(deadline, origin + 1)
    else:
        last = origin + max(1, -(-(deadline - origin) // period)) * period
    waiter = Poll(sim, period, last, ready, memory, reads)
    for addr in words:
        memory.watch(addr, waiter.notify)
    for signal in signals:
        signal.watch(waiter.notify)
    if reads:
        memory.add_settler(waiter.settle)
    waiter.woken = waiter.probe()
    try:
        yield waiter
    finally:
        waiter.cancel()
        for addr in words:
            memory.unwatch(addr, waiter.notify)
        for signal in signals:
            signal.unwatch(waiter.notify)
        if reads:
            memory.remove_settler(waiter.settle)
            if waiter.entry is not None:
                waiter.settle()
