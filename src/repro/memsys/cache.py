"""A snooping set-associative CPU cache with per-access policy.

On the Xpress PC, "memory can be cached as write-through or write-back on a
per-virtual-page basis, as specified in process page tables" (paper section
3).  The MMU therefore supplies the caching policy on every access; the
cache itself is policy-agnostic.

The cache also snoops the memory bus: "the caches snoop DMA transactions
and automatically invalidate corresponding cache lines, keeping consistent
with *all* main memory updates."  That property is what lets SHRIMP deposit
incoming network data straight into DRAM with no CPU involvement.

A CPU whose spin loop is folded (:mod:`repro.cpu.core`) stops issuing its
read hits and *watches* the line it spins on instead.  Every other access
first settles the folded reads up to now, so hit counts and LRU ticks
interleave exactly as they would have; anything about to change the
watched line (a snoop invalidation, a write, an eviction, ``flush_page``,
``ckpt_restore``) wakes the CPU before it does.
"""

from repro.ckpt.protocol import SCALAR, Checkpointable
from repro.sim.instrument import Instrumentation


class CachePolicy:
    """Per-page caching policies (values stored in page-table entries)."""

    WRITE_BACK = "WB"
    WRITE_THROUGH = "WT"
    UNCACHED = "UC"

    ALL = (WRITE_BACK, WRITE_THROUGH, UNCACHED)


# Returned by :meth:`Cache.read_hit` when the access cannot be served as a
# plain cache hit (miss or uncached) and must take the generator path.
CACHE_MISS = object()


class _Line:
    """One way of a set.  ``data`` is None until the first fill, which
    always replaces it."""

    __slots__ = ("tag", "valid", "dirty", "data", "lru")

    def __init__(self):
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.data = None
        self.lru = 0


class Cache(Checkpointable):
    """Set-associative cache in front of the Xpress bus.

    ``read``/``write`` are generators used by the CPU via ``yield from``;
    the ``policy`` argument comes from the page-table entry for the page
    being touched.  Write-through uses no-write-allocate (i486 behaviour);
    write-back allocates on both read and write misses.
    """

    #: Metrics registered under the cache's name (``node0.cache.hits``).
    METRICS = (("hits", "counter"), ("misses", "counter"),
               ("writebacks", "counter"), ("snoop_invalidations", "counter"))

    # ``lru`` values are absolute ticks of ``_lru_clock``, so the clock is
    # captured with the lines: restoring both reproduces every future
    # victim choice.
    CKPT_STATE = (("_lru_clock", SCALAR),)
    CKPT_SKIP = {
        "_sets": "encoded by ckpt_capture: the valid lines by (set, way)",
        "_watch": "the folded spin's registration; a parked fold is "
                  "captured by its Cpu and re-registers on restore",
        "_watch_line": "set and cleared with _watch",
        "_gen": "change generation, compared only within one unfolded "
                "spin iteration",
    }

    def __init__(self, sim, bus, params, name="cache"):
        self.sim = sim
        self.bus = bus
        self.params = params
        self.name = name
        self.line_bytes = params.cache_line_bytes
        self.words_per_line = self.line_bytes // 4
        self.n_sets = params.cache_sets
        self.assoc = params.cache_assoc
        # Each set starts with no ways; _victim appends one per fill until
        # the set holds ``assoc``.  A fill always takes the first invalid
        # way, so the ways ever used are a prefix of the set and a missing
        # way is indistinguishable from an invalid one.  An untouched set
        # is the shared empty tuple: its list is built by its first fill.
        self._sets = [()] * self.n_sets
        self._lru_clock = 0
        self._watch = None  # Cpu folding a spin on _watch_line, or None
        self._watch_line = None
        self._gen = 0  # bumped on every line data/validity change
        self.instr = Instrumentation.of(sim)
        (self.hits, self.misses, self.writebacks,
         self.snoop_invalidations) = self.instr.register(self)
        bus.add_snooper(self._snoop)

    # -- geometry -------------------------------------------------------------

    def _index(self, addr):
        line_number = addr // self.line_bytes
        return line_number % self.n_sets, line_number // self.n_sets

    def _line_base(self, addr):
        return addr - (addr % self.line_bytes)

    def _word_in_line(self, addr):
        return (addr % self.line_bytes) // 4

    def _lookup(self, addr):
        set_index, tag = self._index(addr)
        for line in self._sets[set_index]:
            if line.valid and line.tag == tag:
                return line
        return None

    def _touch(self, line):
        self._lru_clock += 1
        line.lru = self._lru_clock

    def watch(self, cpu, line):
        """Register ``cpu``'s folded spin on ``line`` (None: unregister)."""
        self._watch = cpu if line is not None else None
        self._watch_line = line

    def _changing(self, line, fills=None):
        """Call before ``line``'s data or validity changes (None: all lines).

        ``fills`` is the address a fill is about to load into ``line``.
        Wakes a fold watching the line, or the address (a second copy in
        an earlier way would take over its hits); settles it otherwise,
        since the caller may go on to touch the LRU clock.
        """
        self._gen += 1
        watch = self._watch
        if watch is not None:
            if (line is None or line is self._watch_line or (
                    fills is not None
                    and self._lookup(fills) is self._watch_line)):
                watch.fold_wake()
            else:
                watch.fold_settle()

    def _victim(self, set_index):
        lines = self._sets[set_index]
        for line in lines:
            if not line.valid:
                return line
        if len(lines) < self.assoc:
            line = _Line()
            if lines:
                lines.append(line)
            else:
                self._sets[set_index] = [line]
            return line
        return min(lines, key=lambda line: line.lru)

    # -- fill / evict ----------------------------------------------------------

    def _fill(self, addr):
        """Generator: bring the line containing ``addr`` in; returns the line."""
        if self._watch is not None:
            self._watch.fold_settle()  # the victim choice reads LRU ticks
        set_index, tag = self._index(addr)
        victim = self._victim(set_index)
        if victim.valid and victim.dirty:
            victim_base = (
                (victim.tag * self.n_sets + set_index) * self.line_bytes
            )
            yield from self.bus.write(victim_base, list(victim.data), self.name)
            self.writebacks.bump()
            hub = self.instr
            if hub.active:
                hub.emit(self.name, "cache.writeback", addr=victim_base,
                         words=self.words_per_line)
        line_base = self._line_base(addr)
        data = yield from self.bus.read(line_base, self.words_per_line, self.name)
        self._changing(victim, line_base)
        victim.tag = tag
        victim.valid = True
        victim.dirty = False
        victim.data = list(data)
        self._touch(victim)
        return victim

    # -- CPU-facing operations ---------------------------------------------------

    def read_hit(self, addr, policy):
        """Plain-call fast path: the word at ``addr`` on a cache hit.

        Returns :data:`CACHE_MISS` when the access cannot be served from
        the cache (miss, or an uncached page) and must take the
        :meth:`read` generator.  On a hit the caller owes the simulated
        hit latency: it must ``yield params.cache_hit_ns``.  The hot
        instruction executes use this to skip a generator frame on the
        overwhelmingly common hit.
        """
        if policy == CachePolicy.UNCACHED:
            return CACHE_MISS
        line = self._lookup(addr)
        if line is None:
            return CACHE_MISS
        self.hits.bump()
        self._touch(line)
        return line.data[self._word_in_line(addr)]

    def read(self, addr, policy):
        """Generator: read one word at ``addr`` under the given page policy."""
        if policy == CachePolicy.UNCACHED:
            data = yield from self.bus.read(addr, 1, self.name)
            return data[0]
        if self._watch is not None:
            self._watch.fold_settle()
        line = self._lookup(addr)
        if line is not None:
            self.hits.bump()
            self._touch(line)
            yield self.params.cache_hit_ns
            return line.data[self._word_in_line(addr)]
        self.misses.bump()
        line = yield from self._fill(addr)
        return line.data[self._word_in_line(addr)]

    def write(self, addr, value, policy):
        """Generator: write one word at ``addr`` under the given page policy."""
        if policy == CachePolicy.UNCACHED:
            yield from self.bus.write(addr, [value], self.name)
            return
        line = self._lookup(addr)
        if policy == CachePolicy.WRITE_THROUGH:
            # Update the line if present (never dirty), always write the bus:
            # this bus write is exactly what the NIC snoops for automatic
            # update (paper section 4).
            if line is not None:
                self._changing(line)
                self.hits.bump()
                line.data[self._word_in_line(addr)] = value
                self._touch(line)
            else:
                self.misses.bump()  # no-write-allocate
            yield from self.bus.write(addr, [value], self.name)
            return
        # write-back
        if line is None:
            self.misses.bump()
            line = yield from self._fill(addr)
        else:
            if self._watch is not None:
                self._watch.fold_settle()
            self.hits.bump()
            self._touch(line)
            yield self.params.cache_hit_ns
            self._changing(line)
        line.data[self._word_in_line(addr)] = value
        line.dirty = True

    def flush_page(self, page_base_addr, page_size):
        """Generator: write back and invalidate all lines of one page.

        The kernel uses this when converting a page from write-back to
        write-through during ``map`` (section 3.1), so DRAM holds the
        current data before the NIC starts relying on bus snooping.
        """
        for line_base in range(page_base_addr, page_base_addr + page_size,
                               self.line_bytes):
            line = self._lookup(line_base)
            if line is None:
                continue
            if line.dirty:
                yield from self.bus.write(line_base, list(line.data), self.name)
                self.writebacks.bump()
            self._changing(line)
            line.valid = False
            line.dirty = False

    # -- bus snooping -----------------------------------------------------------

    def _snoop(self, txn):
        """Invalidate lines overlapping writes by other bus masters."""
        if txn.kind != "write" or txn.originator == self.name:
            return
        start = self._line_base(txn.addr)
        end = txn.end_addr()
        for line_base in range(start, end, self.line_bytes):
            line = self._lookup(line_base)
            if line is not None:
                self._changing(line)
                line.valid = False
                line.dirty = False
                self.snoop_invalidations.bump()
                hub = self.instr
                if hub.active:
                    hub.emit(self.name, "cache.snoop_invalidate",
                             addr=line_base, originator=txn.originator)

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_capture(self):
        """The LRU clock, plus the valid lines addressed by (set, way)."""
        if self._watch is not None:
            self._watch.fold_settle()
        state = super().ckpt_capture()
        lines = state["lines"] = []
        for set_index, ways in enumerate(self._sets):
            for way, line in enumerate(ways):
                if line.valid:
                    lines.append([
                        set_index,
                        way,
                        {
                            "tag": line.tag,
                            "dirty": line.dirty,
                            "lru": line.lru,
                            "data": list(line.data),
                        },
                    ])
        return state

    def ckpt_restore(self, state):
        # Wake or settle a parked spin first: settling ticks the LRU clock
        # the walker then overwrites.
        self._changing(None)
        super().ckpt_restore(state)
        sets = self._sets = [()] * self.n_sets
        for set_index, way, entry in state["lines"]:
            ways = sets[set_index]
            if not ways:
                ways = sets[set_index] = []
            while len(ways) <= way:
                ways.append(_Line())
            line = ways[way]
            line.tag = entry["tag"]
            line.valid = True
            line.dirty = entry["dirty"]
            line.lru = entry["lru"]
            line.data = list(entry["data"])

    # -- introspection ------------------------------------------------------------

    def contains(self, addr):
        """True if the word at ``addr`` is currently cached (for tests)."""
        return self._lookup(addr) is not None

    def is_dirty(self, addr):
        line = self._lookup(addr)
        return bool(line and line.dirty)
