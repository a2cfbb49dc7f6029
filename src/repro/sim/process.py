"""Generator-based cooperative processes.

A simulation process is a Python generator that yields what it waits for,
one thing per kind of wait:

- an ``int`` ``dt``      -- resume ``dt`` nanoseconds later (a negative
                            ``dt`` is refused by ``Simulator.schedule``).
- a ``Signal``           -- resume when ``signal.fire(value)`` is called;
                            the fired value is sent back into the generator.
- another ``Process``    -- resume when that process finishes (join); the
                            joined process's return value is sent back.
- a ``Poll``             -- yielded only by :func:`repro.sim.poll.poll`,
                            the folded fixed-period wait.  It parks itself
                            through its ``park(process)`` method, as does
                            the NIC's ``WaitDeposit`` (a signal wait
                            filtered by deposit address).

Anything else (a ``bool``, a ``float``) raises ``TypeError``.

Anything more elaborate (bus arbitration, FIFO puts) is composed from these
with ``yield from``.  Processes can be interrupted: :meth:`Process.interrupt`
throws an :class:`Interrupt` exception into the generator at its current
yield point, which models device-raised CPU interrupts.
"""


class Named:
    """A name built when it is read.

    An object built once per link, port or queue of a large machine
    keeps its ``parent`` (any object with a ``name``) and its ``role``,
    a constant string, instead of a joined name string of its own:
    :attr:`name` is ``parent.name + "." + role``, or the role alone when
    there is no parent.
    """

    __slots__ = ("_parent", "_role")

    @property
    def name(self):
        parent = self._parent
        if parent is None:
            return self._role
        return parent.name + "." + self._role


class Signal(Named):
    """A broadcast wake-up channel.

    Processes block on a signal with ``yield sig``.  ``fire(value)`` wakes
    every process currently waiting and delivers ``value`` to each.  A
    signal can be fired any number of times; only the waiters present at
    fire time are woken (no buffering -- use
    :class:`repro.sim.resources.BoundedQueue` for buffered hand-off).

    With nobody parked, ``_waiters`` is the shared empty tuple; the first
    park builds the list.  Most signals of a large machine never see a
    waiter, so they cost no list.

    A signal built once per link, port or queue (a link's ``not_full``)
    is built with its owner as ``parent`` and its role as ``name``, and
    names itself on read (``link(0,0)->(1,0).not_full``; see
    :class:`Named`).  Without a ``parent``, ``name`` is the full name:
    signals built once per node or channel (a NIC's arrival signal, a
    DMA engine's idle signal, a channel's doorbell) are given it joined.
    """

    __slots__ = ("sim", "_waiters", "fire_count", "_watchers")

    def __init__(self, sim, name="signal", parent=None):
        self.sim = sim
        self._parent = parent
        self._role = name
        self._waiters = ()
        self.fire_count = 0
        self._watchers = None  # callbacks run synchronously by fire()

    @property
    def waiter_count(self):
        return len(self._waiters)

    def watch(self, callback):
        """Call ``callback()`` inside every later :meth:`fire`, before the
        waiters are posted (a folded poll's wake source)."""
        if self._watchers is None:
            self._watchers = []
        self._watchers.append(callback)

    def unwatch(self, callback):
        self._watchers.remove(callback)
        if not self._watchers:
            self._watchers = None

    def fire(self, value=None):
        """Wake all current waiters, delivering ``value`` to each."""
        self.fire_count += 1
        if self._watchers is not None:
            for callback in self._watchers:
                callback()
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = ()
        post = self.sim.post
        for process in waiters:
            post(process._resume, value)

    def fire_one(self, value=None, delay=0):
        """Wake only the oldest waiter (FIFO hand-off), ``delay`` ns from now.

        Used by fair resources (the ticket mutex) where exactly one
        blocked process can make progress per fire: waking the others
        would cost one event each just to re-park.  Waiters park in
        arrival order and never re-park spuriously, so the oldest waiter
        is the one entitled to run.  A delayed hand-off is a cancellable
        timed resume, like a yielded delay.
        """
        self.fire_count += 1
        waiters = self._waiters
        if waiters:
            process = waiters.pop(0)
            if delay:
                process._waiting_on = None
                process._pending_resume = self.sim.schedule(
                    delay, process._resume, value)
            else:
                self.sim.post(process._resume, value)

    def _add_waiter(self, process, request=None):
        """Park ``process``; ``request`` is the self-parking request that
        parked it (None for a yielded signal), for subclasses that filter
        whom a fire wakes."""
        if self._waiters:
            self._waiters.append(process)
        else:
            self._waiters = [process]

    def _remove_waiter(self, process):
        if process in self._waiters:
            self._waiters.remove(process)

    def __repr__(self):
        return "Signal(%s, %d waiting)" % (self.name, len(self._waiters))


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` identifies the interrupting device or reason.
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class Process:
    """Wraps a generator and drives it through the simulator.

    The generator runs until it returns (``StopIteration``) or raises.  The
    return value is recorded in :attr:`result` and any processes joined on
    this one are woken with it.  An uncaught exception is re-raised out of
    the simulator's event loop (failures must not pass silently).

    With nobody joined, ``_joiners`` is the shared empty tuple, as a
    :class:`Signal`'s ``_waiters`` is; the first join builds the list.
    """

    __slots__ = (
        "sim",
        "name",
        "_generator",
        "finished",
        "result",
        "_joiners",
        "_waiting_on",
        "_pending_resume",
        "started",
    )

    def __init__(self, sim, generator, name="process"):
        self.sim = sim
        self.name = name
        self._generator = generator
        self.finished = False
        self.result = None
        self._joiners = ()
        self._waiting_on = None  # Signal we are parked on, for interrupts
        self._pending_resume = None  # ScheduledEvent of a delay, cancellable
        self.started = False

    def start(self, delay=0):
        """Begin executing the process ``delay`` ns from now."""
        if self.started:
            raise RuntimeError("process %r already started" % self.name)
        self.started = True
        self.sim.schedule(delay, self._resume, None)
        return self

    # -- scheduler interface -------------------------------------------------

    def _resume(self, value):
        if self.finished:
            return
        self._waiting_on = None
        self._pending_resume = None
        try:
            request = self._generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        # A delay is by far the most common request (every instruction,
        # every flit transfer): park on it inline, skipping _park.
        if type(request) is int:
            self._pending_resume = self.sim.schedule(request, self._resume, None)
            return
        self._park(request)

    def _throw(self, exc):
        if self.finished:
            return
        self._waiting_on = None
        self._pending_resume = None
        try:
            request = self._generator.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._park(request)

    def _park(self, request):
        """Register the blocking request the generator just yielded."""
        if type(request) is int:
            self._pending_resume = self.sim.schedule(request, self._resume, None)
        elif isinstance(request, Signal):
            self._waiting_on = request
            request._add_waiter(self)
        elif isinstance(request, Process):  # join
            if request.finished:
                self.sim.post(self._resume, request.result)
            elif request._joiners:
                request._joiners.append(self)
            else:
                request._joiners = [self]
        elif hasattr(type(request), "park"):  # a Poll, a WaitDeposit
            request.park(self)
        else:
            raise TypeError(
                "process %r yielded unsupported request %r" % (self.name, request)
            )

    def _finish(self, result):
        self.finished = True
        self.result = result
        joiners, self._joiners = self._joiners, ()
        for joiner in joiners:
            self.sim.post(joiner._resume, result)

    # -- public operations ---------------------------------------------------

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at its current yield.

        The process must currently be parked (on a timeout, signal or join);
        interrupting a finished process is a no-op.
        """
        if self.finished:
            return
        if self._waiting_on is not None:
            self._waiting_on._remove_waiter(self)
            self._waiting_on = None
        if self._pending_resume is not None:
            self._pending_resume.cancel()
            self._pending_resume = None
        self.sim.schedule(0, self._throw, Interrupt(cause))

    def kill(self):
        """Terminate the process immediately, without running its body.

        Unlike :meth:`interrupt` the generator gets no chance to respond:
        it is closed (``GeneratorExit`` propagates through any ``finally``
        blocks), every wait registration is withdrawn, and joiners are
        woken with a ``None`` result.  Callers are responsible for killing
        only at points where the process holds no resources (the node
        crash/restore orchestration in ``repro.faults`` kills CPU workers
        at instruction boundaries and channel endpoints parked in their
        polls); a process mid-mutex would strand the lock.  Killing
        a finished process is a no-op.
        """
        if self.finished:
            return
        if self._waiting_on is not None:
            self._waiting_on._remove_waiter(self)
            self._waiting_on = None
        if self._pending_resume is not None:
            self._pending_resume.cancel()
            self._pending_resume = None
        self._generator.close()
        self._finish(None)

    def __repr__(self):
        state = "finished" if self.finished else ("running" if self.started else "new")
        return "Process(%s, %s)" % (self.name, state)
