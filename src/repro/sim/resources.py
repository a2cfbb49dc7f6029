"""Synchronisation resources composed from the process primitives.

These are deliberately simple: a FIFO mutex (models one-at-a-time hardware
resources like a bus or a single DMA engine) and a bounded queue (models
hardware FIFOs with blocking put/get).

A machine builds one mutex per router output port and one queue per
node, so both hold no instance dict.  A router port's mutex, its
``released`` signal and a queue's two signals hold no name string of
their own either: they name themselves through their parent (see
:class:`~repro.sim.process.Named`).  The other mutexes are still given
a joined name when built: the bus and EISA arbiters, a DMA engine's
lock and the backplane's injection-port mutexes.  A queue's items are
a plain list; the one queue a machine builds, each NIC's kernel inbox,
stays empty in every pinned scenario.
"""

from repro.ckpt.protocol import SCALAR, Checkpointable
from repro.sim.process import Named, Signal


class Mutex(Named):
    """A *fair* (FIFO ticket) mutual-exclusion lock.

    Fairness matters: hardware arbiters (the memory bus, the EISA channel,
    router output ports) grant requesters in order.  A naive
    release-then-race lock lets a spinning CPU re-acquire the bus in the
    same event in which it released it, starving parked devices (e.g. the
    DMA engine) indefinitely.  Tickets make the grant order the arrival
    order regardless of wake-up scheduling.

    Usage inside a process generator::

        yield from mutex.acquire(owner="cpu")
        try:
            ...critical section...
        finally:
            mutex.release()

    Like a :class:`~repro.sim.process.Signal`, a mutex built with a
    ``parent`` takes ``name`` as its role and builds its full name
    (``router(0,0).east.alloc``) when it is read.
    """

    __slots__ = ("sim", "_next_ticket", "_serving", "_free_at", "owner",
                 "_released", "acquire_count", "contention_count")

    def __init__(self, sim, name="mutex", parent=None):
        self.sim = sim
        self._parent = parent
        self._role = name
        self._next_ticket = 0
        self._serving = 0
        self._free_at = 0  # a timed release takes effect at this instant
        self.owner = None
        self._released = Signal(sim, "released", self)
        self.acquire_count = 0
        self.contention_count = 0

    @property
    def locked(self):
        return (self._serving < self._next_ticket
                or self._free_at > self.sim._now)

    def acquire(self, owner=None):
        """Generator: block until the lock is held by the caller (FIFO)."""
        ticket = self._next_ticket
        self._next_ticket += 1
        if self._serving != ticket or self._free_at > self.sim._now:
            self.contention_count += 1
        while self._serving != ticket:
            yield self._released
        # The next ticket may be served before a timed release lands.
        early = self._free_at - self.sim._now
        if early > 0:
            yield early
        self.owner = owner
        self.acquire_count += 1

    def try_acquire(self, owner=None):
        """Non-blocking acquire.  Returns True on success."""
        if self.locked:
            return False
        self._next_ticket += 1
        self.owner = owner
        self.acquire_count += 1
        return True

    def release(self):
        if not self.locked:
            raise RuntimeError("release of unlocked mutex %r" % self.name)
        self._serving += 1
        self.owner = None
        # Waiters park in ticket order (the ticket is taken and the wait
        # entered within one event), so the oldest waiter is exactly the
        # next ticket holder: hand off to it alone instead of waking the
        # whole queue to re-park.
        self._released.fire_one()

    def release_at(self, when):
        """Release at simulated time ``when`` without waking the holder.

        The lock stays held until ``when``; the oldest waiter is handed
        the lock *at* ``when`` by one timed resume, and a later acquirer
        waits until then, so grants keep FIFO ticket order.  A holder
        that would otherwise sleep only to release (a router output port
        held until a worm's tail lands) saves that wake-up.
        """
        delay = when - self.sim._now
        if delay <= 0:
            self.release()
            return
        if not self.locked:
            raise RuntimeError("release of unlocked mutex %r" % self.name)
        self._serving += 1
        self.owner = None
        self._free_at = when
        if self._released._waiters:
            self._released.fire_one(None, delay)

    def __repr__(self):
        return "Mutex(%s, %s)" % (self.name,
                                  "locked" if self.locked else "free")


class QueueClosed(Exception):
    """Raised when getting from a closed, drained queue."""


class BoundedQueue(Checkpointable):
    """A bounded FIFO with blocking ``put``/``get`` generators.

    ``capacity=None`` means unbounded.  ``put`` blocks while full, ``get``
    blocks while empty.  Items are delivered in insertion order.  Used to
    model hardware FIFOs where exact threshold behaviour is not needed; the
    NIC FIFOs (which have programmable thresholds) wrap this with extra
    bookkeeping.

    A checkpoint holds the accounting only.  Queued items are arbitrary
    payload objects, so capture refuses a non-empty queue rather than
    guessing how to serialize them; system safepoints require every
    queue empty (the NIC kernel inbox is the only long-lived one).
    """

    __slots__ = ("sim", "name", "capacity", "_items", "_not_full",
                 "_not_empty", "_closed", "put_count", "get_count",
                 "max_occupancy")

    CKPT_STATE = (("put_count", SCALAR), ("get_count", SCALAR),
                  ("max_occupancy", SCALAR), ("_closed", SCALAR))
    CKPT_SKIP = {"_items": "empty whenever a checkpoint is taken (capture "
                           "refuses otherwise)"}

    def __init__(self, sim, capacity=None, name="queue"):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items = []
        self._not_full = Signal(sim, "not_full", self)
        self._not_empty = Signal(sim, "not_empty", self)
        self._closed = False
        self.put_count = 0
        self.get_count = 0
        self.max_occupancy = 0

    def __len__(self):
        return len(self._items)

    def is_full(self):
        return self.capacity is not None and len(self._items) >= self.capacity

    def close(self):
        """No further puts; pending/ future gets drain then raise QueueClosed."""
        self._closed = True
        self._not_empty.fire()

    def put(self, item):
        """Generator: enqueue ``item``, blocking while the queue is full."""
        if self._closed:
            raise QueueClosed(self.name)
        while self.is_full():
            yield self._not_full
            if self._closed:
                raise QueueClosed(self.name)
        self._items.append(item)
        self.put_count += 1
        if len(self._items) > self.max_occupancy:
            self.max_occupancy = len(self._items)
        self._not_empty.fire()

    def try_put(self, item):
        """Non-blocking put.  Returns True if the item was enqueued."""
        if self._closed or self.is_full():
            return False
        self._items.append(item)
        self.put_count += 1
        if len(self._items) > self.max_occupancy:
            self.max_occupancy = len(self._items)
        self._not_empty.fire()
        return True

    def get(self):
        """Generator: dequeue one item, blocking while the queue is empty."""
        while not self._items:
            if self._closed:
                raise QueueClosed(self.name)
            yield self._not_empty
        item = self._items.pop(0)
        self.get_count += 1
        self._not_full.fire()
        return item

    def try_get(self):
        """Non-blocking get.  Returns (True, item) or (False, None)."""
        if not self._items:
            return False, None
        item = self._items.pop(0)
        self.get_count += 1
        self._not_full.fire()
        return True, item

    def peek(self):
        """Head item without removing it, or None if empty."""
        return self._items[0] if self._items else None

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_refusal(self, state):
        if state is None and self._items:
            return ("queue %s holds %d items at capture; checkpoints require "
                    "quiescent queues" % (self.name, len(self._items)))
        return None
