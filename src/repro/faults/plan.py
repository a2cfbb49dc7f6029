"""FaultPlan: a declarative, seeded schedule of fault events.

A plan is data, not behaviour: an ordered list of typed events, each with
an absolute injection time, serializable to JSON and back bit-for-bit.
The :class:`~repro.faults.controller.FaultController` arms a plan against
a live system by scheduling one simulator event per entry; nothing about
the machine changes until those events fire, so **an empty plan is
indistinguishable from no plan at all** (pinned by the golden-trace test
in ``tests/test_faults.py``).

Event vocabulary (mirrors the sanctioned injection hooks):

==================  ========================================================
event               hook it drives
==================  ========================================================
``link_down/up``    :meth:`repro.mesh.link.Link.set_down`
``router_stall``    :meth:`repro.mesh.router.Router.stall` / ``resume``
``corrupt``         :class:`repro.faults.injectors.CorruptEveryNth` window
``misroute``        :class:`repro.faults.injectors.MisrouteEveryNth` window
``fifo_pressure``   :meth:`repro.nic.fifo.PacketFifo.set_reserved_bytes`
==================  ========================================================

A node crash is not plan vocabulary: it needs a checkpoint, the mappings
to invalidate and the messaging layers to resynchronise, which a plan
entry cannot carry.  :func:`repro.faults.recovery.crash_restore` runs it.

Seeded generation uses an inline splitmix64 stream (never :mod:`random`:
the engine bans global-state RNGs, simlint SL101), so a ``(seed, topology)``
pair always yields the same plan on any host.
"""

_MASK64 = (1 << 64) - 1


def _splitmix64(state):
    """One splitmix64 step: returns ``(next_state, output)``."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class SeededStream:
    """A tiny deterministic integer stream over splitmix64."""

    def __init__(self, seed):
        self._state = int(seed) & _MASK64

    def next_u64(self):
        self._state, value = _splitmix64(self._state)
        return value

    def below(self, bound):
        """Uniform-ish integer in ``[0, bound)`` (bound >= 1)."""
        if bound <= 1:
            return 0
        return self.next_u64() % bound

    def between(self, lo, hi):
        """Integer in ``[lo, hi)``."""
        return lo + self.below(hi - lo)


class FaultEvent:
    """Base: one scheduled fault.  ``at`` is absolute simulated ns."""

    type_name = None
    __slots__ = ("at",)

    def __init__(self, at):
        at = int(at)
        if at < 0:
            raise ValueError("fault time must be >= 0, got %d" % at)
        self.at = at

    def _fields(self):
        """The event's fields beyond ``type`` and ``at`` (every kind has some)."""
        raise NotImplementedError

    def to_dict(self):
        payload = {"type": self.type_name, "at": self.at}
        payload.update(self._fields())
        return payload

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%r" % kv for kv in sorted(self.to_dict().items())),
        )


class LinkDown(FaultEvent):
    """Pull the cable of the named link at ``at``."""

    type_name = "link_down"
    __slots__ = ("link",)

    def __init__(self, at, link):
        super().__init__(at)
        self.link = str(link)

    def _fields(self):
        return {"link": self.link}


class LinkUp(FaultEvent):
    """Reconnect the named link at ``at``."""

    type_name = "link_up"
    __slots__ = ("link",)

    def __init__(self, at, link):
        super().__init__(at)
        self.link = str(link)

    def _fields(self):
        return {"link": self.link}


class RouterStall(FaultEvent):
    """Freeze the router at mesh ``coords`` at the next worm boundary."""

    type_name = "router_stall"
    __slots__ = ("coords",)

    def __init__(self, at, coords):
        super().__init__(at)
        self.coords = (int(coords[0]), int(coords[1]))

    def _fields(self):
        return {"coords": list(self.coords)}


class RouterResume(FaultEvent):
    """Release a stalled router."""

    type_name = "router_resume"
    __slots__ = ("coords",)

    def __init__(self, at, coords):
        super().__init__(at)
        self.coords = (int(coords[0]), int(coords[1]))

    def _fields(self):
        return {"coords": list(self.coords)}


class CorruptWindow(FaultEvent):
    """Bit-corrupt every Nth packet leaving ``node`` during [at, until)."""

    type_name = "corrupt"
    __slots__ = ("node", "every_nth", "until")

    def __init__(self, at, node, every_nth, until=None):
        super().__init__(at)
        self.node = int(node)
        self.every_nth = int(every_nth)
        if self.every_nth < 1:
            raise ValueError("every_nth must be >= 1")
        self.until = None if until is None else int(until)
        if self.until is not None and self.until <= self.at:
            raise ValueError("window must end after it starts")

    def _fields(self):
        return {"node": self.node, "every_nth": self.every_nth,
                "until": self.until}


class MisrouteWindow(FaultEvent):
    """Rewrite the routing field of every Nth packet leaving ``node``."""

    type_name = "misroute"
    __slots__ = ("node", "every_nth", "wrong_node", "until")

    def __init__(self, at, node, every_nth, wrong_node, until=None):
        super().__init__(at)
        self.node = int(node)
        self.every_nth = int(every_nth)
        if self.every_nth < 1:
            raise ValueError("every_nth must be >= 1")
        self.wrong_node = int(wrong_node)
        self.until = None if until is None else int(until)
        if self.until is not None and self.until <= self.at:
            raise ValueError("window must end after it starts")

    def _fields(self):
        return {"node": self.node, "every_nth": self.every_nth,
                "wrong_node": self.wrong_node, "until": self.until}


class FifoPressure(FaultEvent):
    """Reserve FIFO capacity on ``node`` during [at, until).

    ``fifo`` is ``"out"`` or ``"in"``; ``reserve_bytes`` phantom bytes
    push real traffic toward the threshold (flow-control pressure)
    without violating the cannot-overflow invariant.
    """

    type_name = "fifo_pressure"
    __slots__ = ("node", "reserve_bytes", "fifo", "until")

    def __init__(self, at, node, reserve_bytes, until=None, fifo="out"):
        super().__init__(at)
        self.node = int(node)
        self.reserve_bytes = int(reserve_bytes)
        if self.reserve_bytes < 0:
            raise ValueError("reserve_bytes must be >= 0")
        if fifo not in ("out", "in"):
            raise ValueError("fifo must be 'out' or 'in', got %r" % (fifo,))
        self.fifo = fifo
        self.until = None if until is None else int(until)
        if self.until is not None and self.until <= self.at:
            raise ValueError("window must end after it starts")

    def _fields(self):
        return {"node": self.node, "reserve_bytes": self.reserve_bytes,
                "fifo": self.fifo, "until": self.until}


EVENT_TYPES = {
    cls.type_name: cls
    for cls in (LinkDown, LinkUp, RouterStall, RouterResume, CorruptWindow,
                MisrouteWindow, FifoPressure)
}


def _event_from_dict(payload):
    cls = EVENT_TYPES.get(payload.get("type"))
    if cls is None:
        raise ValueError("unknown fault event type %r" % (payload.get("type"),))
    kwargs = {k: v for k, v in payload.items() if k != "type"}
    if "coords" in kwargs:
        kwargs["coords"] = tuple(kwargs["coords"])
    return cls(**kwargs)


class FaultPlan:
    """An ordered, serializable schedule of :class:`FaultEvent`\\ s."""

    def __init__(self, events=(), seed=None):
        self.seed = seed
        self._events = []
        for event in events:
            self.add(event)

    def add(self, event):
        if not isinstance(event, FaultEvent):
            raise TypeError("expected a FaultEvent, got %r" % (event,))
        self._events.append(event)
        return event

    @property
    def events(self):
        """Events sorted by injection time (stable for same-time entries)."""
        return sorted(self._events, key=lambda e: e.at)

    def __len__(self):
        return len(self._events)

    def __iter__(self):
        return iter(self.events)

    # -- serialization ---------------------------------------------------------

    def to_dict(self):
        return {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            events=[_event_from_dict(p) for p in payload.get("events", ())],
            seed=payload.get("seed"),
        )

    # -- seeded generation -----------------------------------------------------

    @classmethod
    def seeded(cls, seed, duration_ns, link_names=(), router_coords=(),
               nodes=(), flaps_per_link=1, stalls_per_router=1,
               corrupt_every_nth=0, misroute_every_nth=0, misroute_to=None,
               pressure_bytes=0):
        """Generate a deterministic plan for the given topology slice.

        Every disruptive state change is paired within ``duration_ns``:
        each ``link_down`` gets its ``link_up``, each ``router_stall`` its
        ``router_resume``, each injector/pressure window its end -- so a
        seeded plan always leaves the substrate healthy, and (combined
        with the reliable channel's retransmission) every payload is
        eventually deliverable.  A plan holds no crashes (see the module
        docstring); pair one with
        :func:`~repro.faults.recovery.crash_restore`.
        """
        duration_ns = int(duration_ns)
        if duration_ns < 2:
            raise ValueError("duration_ns must be >= 2")
        stream = SeededStream(seed)
        plan = cls(seed=seed)
        for name in link_names:
            for _ in range(flaps_per_link):
                down = stream.between(0, duration_ns - 1)
                up = stream.between(down + 1, duration_ns + 1)
                plan.add(LinkDown(down, name))
                plan.add(LinkUp(up, name))
        for coords in router_coords:
            for _ in range(stalls_per_router):
                stall = stream.between(0, duration_ns - 1)
                resume = stream.between(stall + 1, duration_ns + 1)
                plan.add(RouterStall(stall, coords))
                plan.add(RouterResume(resume, coords))
        for node in nodes:
            if corrupt_every_nth:
                start = stream.between(0, duration_ns - 1)
                end = stream.between(start + 1, duration_ns + 1)
                plan.add(CorruptWindow(start, node, corrupt_every_nth, end))
            if misroute_every_nth:
                wrong = misroute_to
                if wrong is None or wrong == node:
                    continue
                start = stream.between(0, duration_ns - 1)
                end = stream.between(start + 1, duration_ns + 1)
                plan.add(MisrouteWindow(start, node, misroute_every_nth,
                                        wrong, end))
            if pressure_bytes:
                start = stream.between(0, duration_ns - 1)
                end = stream.between(start + 1, duration_ns + 1)
                plan.add(FifoPressure(start, node, pressure_bytes, end))
        return plan
