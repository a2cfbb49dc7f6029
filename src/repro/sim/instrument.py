"""The unified instrumentation hub: metrics registry + structured event bus.

Every :class:`~repro.sim.engine.Simulator` owns (lazily) one
:class:`Instrumentation` hub.  Hardware models register their metrics with
the hub at construction time instead of hand-rolling free-floating
counters, and emit *typed* events through it instead of ad-hoc callbacks:

- **Metrics registry** -- namespaced counters
  (:class:`~repro.sim.trace.Counter`), time series
  (:class:`~repro.sim.trace.TimeSeries`), latency histograms
  (:class:`Histogram`) and *probes* (zero-cost derived metrics read at
  query time).  A component class declares its metrics once, in a
  class-level ``METRICS`` table of ``(leaf, kind)`` rows, and each
  instance registers itself with one call, ``hub.register(self)``, under
  its ``name``.  The call returns the new metric objects, so components
  keep a direct attribute handle for their hot paths -- bumping a
  counter is exactly as cheap as before -- and a probe row reads the
  attribute or property its leaf names.  The hub stores the owner's
  name, the shared table and the metric objects in flat lists; a full
  name such as ``node3.cache.hits`` is built only when a query reads
  it, so analysis code still resolves every metric by name.  One-off
  metrics (``workload.*``, ``dsm.*``, ``faults.*``) register by full
  name through :meth:`Instrumentation.counter` and friends, as one-leaf
  entries of the same store.

- **Event bus** -- records with the stable schema ``(time, source, kind,
  fields)`` where ``fields`` is a flat dict of named values.  Consumers
  either *collect* records (with optional kind filter and limit) or
  *subscribe* live callbacks.
  Emission is strictly zero-cost when off: producers guard every emit with
  a single attribute check (``if hub.active: hub.emit(...)``), and
  ``active`` only becomes true once someone enables collection or
  subscribes.  Emitting never touches the event queue, so simulated
  timing is bit-for-bit identical with instrumentation on and off.

Metric namespace convention (see ``docs/observability.md``): metric names
are dot-joined paths rooted at the owning component's instance name, e.g.
``node3.nic.delivered``, ``node3.cache.hits``, ``router(1,2).packets``,
``link(0,0)->(1,0).flits``.  Event kinds are ``<layer>.<what>``:
``nic.delivered``, ``bus.write``, ``os.rpc_send``, ``cpu.interrupt``.
"""

import json
from functools import partial
from operator import itemgetter

from repro.ckpt.protocol import PAIRS, SCALAR, Checkpointable, CkptError
from repro.sim.trace import Counter, TimeSeries


class MetricError(Exception):
    """Raised for registry misuse (kind clash on an existing name)."""


def nearest_rank(sorted_values, p):
    """The nearest-rank ``p``-th percentile of a sorted sequence.

    Rank ``ceil(p / 100 * n)`` (1-based, clamped to at least 1) -- the
    classic definition: the smallest value with at least ``p`` percent of
    the observations at or below it.  ``None`` on an empty sequence.
    This is the one percentile definition used across the tree
    (:meth:`Histogram.percentile`, ``repro.analysis.packets``).
    """
    n = len(sorted_values)
    if n == 0:
        return None
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100], got %r" % (p,))
    rank = -(-p * n // 100)  # ceil without float error at n ~ 10**6
    if rank < 1:
        rank = 1
    return sorted_values[int(rank) - 1]


class Histogram(Checkpointable):
    """A power-of-two-bucketed value histogram (latencies, sizes).

    ``observe(v)`` files ``v`` into the bucket ``[2**(k-1), 2**k)`` and
    tracks count/sum/min/max, so a long run costs O(log max) memory.
    """

    __slots__ = ("count", "total", "min", "max", "_buckets")

    CKPT_STATE = (("count", SCALAR), ("total", SCALAR), ("min", SCALAR),
                  ("max", SCALAR), ("_buckets", PAIRS))

    def __init__(self):
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self._buckets = {}

    def observe(self, value):
        if value < 0:
            raise ValueError("negative observation %r" % (value,))
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = int(value).bit_length()
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def mean(self):
        return self.total / self.count if self.count else None

    def buckets(self):
        """Sorted ``(lower_bound, count)`` pairs for occupied buckets."""
        return [
            (0 if index == 0 else 1 << (index - 1), self._buckets[index])
            for index in sorted(self._buckets)
        ]

    def percentile(self, p):
        """Nearest-rank ``p``-th percentile, resolved to bucket precision.

        Finds the bucket holding the observation of rank
        ``ceil(p / 100 * count)`` (see :func:`nearest_rank`) and reports
        that bucket's inclusive upper bound -- the tightest value the
        power-of-two buckets can guarantee the rank-th observation does
        not exceed, which is the conservative direction for latency SLOs.
        ``None`` while empty.  Exact min/max are tracked separately, so
        the reported value never strays outside ``[min, max]``.
        """
        if self.count == 0:
            return None
        if not 0 < p <= 100:
            raise ValueError("percentile must be in (0, 100], got %r" % (p,))
        rank = -(-p * self.count // 100)
        if rank < 1:
            rank = 1
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                upper = 0 if index == 0 else (1 << index) - 1
                if upper > self.max:
                    upper = self.max
                if upper < self.min:
                    upper = self.min
                return upper
        return self.max  # unreachable unless counts drift; stay safe

    def __repr__(self):
        return "Histogram(n=%d, mean=%s)" % (self.count, self.mean())


class Event:
    """One structured instrumentation event."""

    __slots__ = ("time", "source", "kind", "fields")

    def __init__(self, time, source, kind, fields):
        self.time = time
        self.source = source
        self.kind = kind
        self.fields = fields

    def to_dict(self):
        """A JSON-safe dict with the stable record schema."""
        return {
            "time": self.time,
            "source": self.source,
            "kind": self.kind,
            "fields": {key: _jsonable(value)
                       for key, value in self.fields.items()},
        }

    def __repr__(self):
        return "[{:>10d}ns] {:<20s} {:<18s} {}".format(
            self.time, self.source, self.kind, self.fields
        )


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return str(value)


_COUNTER = "counter"
_TIMESERIES = "timeseries"
_HISTOGRAM = "histogram"
_PROBE = "probe"

_FACTORIES = {_COUNTER: Counter, _TIMESERIES: TimeSeries,
              _HISTOGRAM: Histogram}

# A one-off metric is an entry whose prefix is its whole name and whose
# table is one leafless row.  Its kind follows from its type; any other
# callable is a probe.
_ONE_LEAF = {kind: ((None, kind),) for kind in
             (_COUNTER, _TIMESERIES, _HISTOGRAM, _PROBE)}
_KIND_OF_TYPE = {Counter: _COUNTER, TimeSeries: _TIMESERIES,
                 Histogram: _HISTOGRAM}


def _kind_of(metric):
    return _KIND_OF_TYPE.get(type(metric), _PROBE)


def _probe_value(slot, leaf):
    """A probe's reading: a one-off calls its callable, a component's
    reads the attribute or property its leaf names."""
    return slot() if leaf is None else getattr(slot, leaf)


def _summary(kind, metric, leaf):
    if kind == _COUNTER:
        return {"kind": kind, "value": metric.value}
    if kind == _PROBE:
        return {"kind": kind, "value": _jsonable(_probe_value(metric, leaf))}
    if kind == _TIMESERIES:
        return {
            "kind": kind,
            "samples": len(metric.samples),
            "last": metric.samples[-1][1] if metric.samples else None,
            "min": metric.min(),
            "max": metric.max(),
            "mean": metric.mean(),
        }
    return {
        "kind": kind,
        "count": metric.count,
        "min": metric.min,
        "max": metric.max,
        "mean": metric.mean(),
        "p50": metric.percentile(50),
        "p99": metric.percentile(99),
        "p999": metric.percentile(99.9),
        "buckets": [list(pair) for pair in metric.buckets()],
    }


class _Store:
    """The registry's entries, in registration order, named on read.

    Entry ``i`` names its metrics from ``prefixes[i]`` and the rows of
    ``tables[i]``; its slots follow the previous entries' in ``slots``.
    A slot holds the metric object, or, for a component's probe, its
    owner.  No name string exists until a read builds it.  This is
    naming, not machine state: an identically built machine rebuilds it
    identically, and the hub's checkpoint captures the metric objects'
    state by name.
    """

    __slots__ = ("prefixes", "tables", "slots", "one_offs", "index")

    def __init__(self):
        self.prefixes = []
        self.tables = []
        self.slots = []
        self.one_offs = {}  # one-off name -> its slot's position
        self.index = None  # prefix -> [(table, first slot)], built on read

    def add(self, prefix, table, slots):
        self.prefixes.append(prefix)
        self.tables.append(table)
        self.slots.extend(slots)
        self.index = None

    def entries(self, prefix=None):
        """``(name, kind, slot, leaf)`` for every (matching) metric,
        sorted by name: the one place full names are built in bulk."""
        slots = self.slots
        dotted = None if prefix is None else prefix + "."
        found = []
        at = 0
        for owner_name, table in zip(self.prefixes, self.tables):
            for leaf, kind in table:
                name = owner_name if leaf is None else owner_name + "." + leaf
                if dotted is None or name == prefix or name.startswith(dotted):
                    found.append((name, kind, slots[at], leaf))
                at += 1
        found.sort(key=itemgetter(0))
        for before, after in zip(found, found[1:]):
            if before[0] == after[0]:
                raise MetricError("metric %r is registered twice" % before[0])
        return found

    def lookup(self, name):
        """``(kind, slot, leaf)`` for ``name``.  A one-off resolves
        through its own dict; a component metric's first by-name lookup
        builds the prefix index."""
        at = self.one_offs.get(name)
        if at is not None:
            slot = self.slots[at]
            return _kind_of(slot), slot, None
        if self.index is None:
            self.index = {}
            at = 0
            for owner_name, table in zip(self.prefixes, self.tables):
                if table[0][0] is not None:
                    self.index.setdefault(owner_name, []).append((table, at))
                at += len(table)
        owner_name, _, leaf = name.rpartition(".")
        found = [(kind, self.slots[first + offset], leaf)
                 for table, first in self.index.get(owner_name, ())
                 for offset, (row_leaf, kind) in enumerate(table)
                 if row_leaf == leaf]
        if not found:
            raise MetricError("no metric registered under %r" % name)
        if len(found) > 1:
            raise MetricError("metric %r is registered twice" % name)
        return found[0]


class Instrumentation(Checkpointable):
    """Per-simulator metrics registry and event bus.

    Obtain the hub for a simulator with :meth:`Instrumentation.of` -- the
    instance is created on first use and cached on the simulator, so every
    component of a machine shares one hub.
    """

    # Observer configuration and output are deliberately outside the
    # checkpoint: the hub captures *metric* state only, and a restored
    # run re-attaches its own consumers (see docs/checkpoint.md).
    CKPT_SKIP = {
        "_store": "encoded by ckpt_capture: metric state by name",
        "active": "observer wiring",
        "_collecting": "observer wiring",
        "_only_kinds": "observer wiring",
        "_limit": "observer wiring",
        "_records": "observer output",
        "_by_kind": "observer output",
        "dropped": "observer output",
        "_subscribers": "observer wiring (live callables)",
    }

    def __init__(self, sim):
        self.sim = sim
        # True iff at least one event consumer exists.  Producers guard
        # emission with this single attribute check; it is the whole cost
        # of the event bus when instrumentation is off.
        self.active = False
        self._store = _Store()
        self._collecting = False
        self._only_kinds = None
        self._limit = None
        self._records = []
        self._by_kind = {}  # kind -> [Event], same objects as _records
        self.dropped = 0
        self._subscribers = []  # (kinds or None, callback)

    @classmethod
    def of(cls, sim):
        """The simulator's hub, created on first use."""
        hub = getattr(sim, "instrumentation", None)
        if hub is None:
            hub = cls(sim)
            sim.instrumentation = hub
        return hub

    # -- metric registration ---------------------------------------------------

    def register(self, owner):
        """Register a component's metrics under its ``name``.

        ``type(owner).METRICS`` is the class's table of ``(leaf, kind)``
        rows; row ``(leaf, kind)`` is the metric ``owner.name + "." +
        leaf``.  Returns the new counter, time series and histogram
        handles in table order, for the component's hot paths.  A probe
        row gets no handle: a read calls ``getattr(owner, leaf)``.  The
        hub stores the owner's name and the shared table, not a name per
        metric, so a clash with another registration of the same full
        name raises :class:`MetricError` at the first read that meets
        both.
        """
        table = type(owner).METRICS
        slots = []
        handles = []
        for leaf, kind in table:
            if kind == _PROBE:
                slots.append(owner)
                continue
            factory = _FACTORIES.get(kind)
            if factory is None:
                raise MetricError("%s.%s: unknown metric kind %r"
                                  % (owner.name, leaf, kind))
            metric = factory()
            slots.append(metric)
            handles.append(metric)
        self._store.add(owner.name, table, slots)
        return handles

    def _one_off(self, name, kind, metric):
        """Register ``metric`` as the one-off ``name``, or fetch the one
        already registered under it."""
        store = self._store
        at = store.one_offs.get(name)
        if at is None:
            store.one_offs[name] = len(store.slots)
            store.add(name, _ONE_LEAF[kind], (metric,))
            return metric
        have = _kind_of(store.slots[at])
        if have != kind:
            raise MetricError("metric %r already registered as %s, not %s"
                              % (name, have, kind))
        return store.slots[at]

    def counter(self, name):
        """Register (or fetch) the named one-off monotonic counter."""
        return self._one_off(name, _COUNTER, Counter())

    def timeseries(self, name):
        """Register (or fetch) the named one-off (time, value) series."""
        return self._one_off(name, _TIMESERIES, TimeSeries())

    def histogram(self, name):
        """Register (or fetch) the named one-off histogram."""
        return self._one_off(name, _HISTOGRAM, Histogram())

    def probe(self, name, fn):
        """Register a one-off derived metric: ``fn()`` is evaluated at
        query time.  Re-registering a probe name rebinds it."""
        self._one_off(name, _PROBE, fn)
        store = self._store
        store.slots[store.one_offs[name]] = fn
        return fn

    # -- metric queries ----------------------------------------------------------

    def names(self, prefix=None):
        """Sorted metric names, optionally filtered by dotted prefix:
        ``names("node1")`` matches ``node1`` and ``node1.*``, never
        ``node10.*``."""
        return [entry[0] for entry in self._store.entries(prefix)]

    def kind(self, name):
        return self._store.lookup(name)[0]

    def get(self, name):
        """The registered metric object for ``name``; for a probe, a
        callable that reads it."""
        kind, slot, leaf = self._store.lookup(name)
        if kind == _PROBE and leaf is not None:
            return partial(getattr, slot, leaf)
        return slot

    def value(self, name):
        """The scalar reading of a metric: counter value, probe result,
        last time-series sample, or histogram observation count."""
        kind, metric, leaf = self._store.lookup(name)
        if kind == _COUNTER:
            return metric.value
        if kind == _PROBE:
            return _probe_value(metric, leaf)
        if kind == _TIMESERIES:
            return metric.samples[-1][1] if metric.samples else None
        return metric.count

    def summary(self, name):
        """A JSON-safe summary dict for one metric."""
        return _summary(*self._store.lookup(name))

    def snapshot(self, prefix=None):
        """{name: summary dict} for every (matching) registered metric."""
        return {name: _summary(kind, metric, leaf)
                for name, kind, metric, leaf in self._store.entries(prefix)}

    def metrics_jsonl(self, prefix=None):
        """One JSON line per metric, sorted by name (offline tooling)."""
        for name, kind, metric, leaf in self._store.entries(prefix):
            record = {"name": name}
            record.update(_summary(kind, metric, leaf))
            yield json.dumps(record, sort_keys=True)

    # -- event bus: consumer side ---------------------------------------------

    def enable_events(self, only_kinds=None, limit=None):
        """Start collecting emitted events into the record buffer.

        ``only_kinds`` restricts collection to a set of event kinds;
        ``limit`` caps the buffer (overflow counts into :attr:`dropped`).
        Live subscribers are independent of this switch.
        """
        self._collecting = True
        self._only_kinds = set(only_kinds) if only_kinds else None
        self._limit = limit
        self.active = True

    def disable_events(self):
        self._collecting = False
        self.active = bool(self._subscribers)

    def subscribe(self, callback, kinds=None):
        """Call ``callback(event)`` live for every (matching) emitted event."""
        self._subscribers.append((set(kinds) if kinds else None, callback))
        self.active = True
        return callback

    def unsubscribe(self, callback):
        self._subscribers = [
            (kinds, cb) for kinds, cb in self._subscribers if cb is not callback
        ]
        self.active = self._collecting or bool(self._subscribers)

    # -- event bus: producer side ------------------------------------------------

    def emit(self, source, kind, **fields):
        """Emit one structured event.

        Hot-path producers must guard the call with ``if hub.active:`` so
        that disabled instrumentation costs exactly one attribute check.
        Calling emit while inactive is still safe (it returns None).
        """
        if not self.active:
            return None
        event = Event(self.sim.now, source, kind, fields)
        if self._collecting and (
            self._only_kinds is None or kind in self._only_kinds
        ):
            if self._limit is not None and len(self._records) >= self._limit:
                self.dropped += 1
            else:
                self._records.append(event)
                by_kind = self._by_kind.get(kind)
                if by_kind is None:
                    by_kind = self._by_kind[kind] = []
                by_kind.append(event)
        for kinds, callback in self._subscribers:
            if kinds is None or kind in kinds:
                callback(event)
        return event

    # -- event queries ----------------------------------------------------------

    def events(self, kind=None):
        """Collected events, all or of one kind (via the per-kind index)."""
        if kind is None:
            return list(self._records)
        return list(self._by_kind.get(kind, ()))

    def event_kinds(self):
        return sorted(self._by_kind)

    def events_jsonl(self, kind=None):
        """One JSON line per collected event, in emission order."""
        records = self._records if kind is None else self._by_kind.get(kind, ())
        for event in records:
            yield json.dumps(event.to_dict(), sort_keys=True)

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_capture(self):
        """Every registered counter, time series and histogram, by name.

        Probes are skipped: they are derived views over state their owning
        components capture themselves.  Collected event records are also
        skipped -- they are observer output, not machine state.
        """
        state = super().ckpt_capture()
        state["metrics"] = {
            name: {"kind": kind, "state": metric.ckpt_capture()}
            for name, kind, metric, _leaf in self._store.entries()
            if kind != _PROBE
        }
        return state

    def ckpt_restore(self, state):
        """Restore by name into the already-registered metric objects.

        A captured name missing from this hub's registry means the
        restored machine is configured differently from the captured one
        (different topology or params); that is a hard error, not
        something to skip silently.
        """
        super().ckpt_restore(state)
        captured = state["metrics"]
        restored = 0
        for name, kind, metric, _leaf in self._store.entries():
            entry = captured.get(name)
            if entry is None:
                continue
            if kind != entry["kind"]:
                raise CkptError(
                    "metric %r is a %s in the checkpoint but a %s here"
                    % (name, entry["kind"], kind)
                )
            metric.ckpt_restore(entry["state"])
            restored += 1
        if restored != len(captured):
            known = set(self.names())
            missing = next(name for name in captured if name not in known)
            raise CkptError(
                "checkpoint names metric %r that this machine does not "
                "register (configuration mismatch)" % missing
            )
