"""Unit tests for the snooping cache."""

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator, Process
from repro.memsys import (
    PhysicalMemory,
    XpressBus,
    DramDevice,
    Cache,
    CachePolicy,
    MemsysParams,
)
from repro.memsys.cache import _Line

WB = CachePolicy.WRITE_BACK
WT = CachePolicy.WRITE_THROUGH
UC = CachePolicy.UNCACHED


def make_system(dram_bytes=64 * 1024, cache_class=Cache, **param_overrides):
    sim = Simulator()
    params = MemsysParams(**param_overrides)
    bus = XpressBus(sim, params)
    mem = PhysicalMemory(dram_bytes)
    bus.attach(0, dram_bytes, DramDevice(mem, params.dram_access_ns))
    cache = cache_class(sim, bus, params, name="cache")
    return sim, bus, mem, cache, params


def run(sim, gen):
    p = Process(sim, gen, "test").start()
    sim.run_until_idle()
    assert p.finished
    return p.result


class TestWriteThrough:
    def test_write_reaches_memory_immediately(self):
        sim, bus, mem, cache, _p = make_system()

        def proc():
            yield from cache.write(0x100, 7, WT)

        run(sim, proc())
        assert mem.read_word(0x100) == 7

    def test_write_is_visible_on_bus(self):
        """The property the NIC snooper depends on (paper section 4)."""
        sim, bus, mem, cache, _p = make_system()
        writes = []
        bus.add_snooper(
            lambda t: writes.append(t.addr) if t.kind == "write" else None
        )

        def proc():
            for i in range(4):
                yield from cache.write(0x200 + 4 * i, i, WT)

        run(sim, proc())
        assert writes == [0x200, 0x204, 0x208, 0x20C]

    def test_no_write_allocate(self):
        sim, _bus, _mem, cache, _p = make_system()

        def proc():
            yield from cache.write(0x300, 1, WT)

        run(sim, proc())
        assert not cache.contains(0x300)

    def test_updates_present_line(self):
        sim, _bus, mem, cache, _p = make_system()

        def proc():
            yield from cache.read(0x400, WT)  # allocate via read
            yield from cache.write(0x400, 9, WT)
            return (yield from cache.read(0x400, WT))

        assert run(sim, proc()) == 9
        assert cache.contains(0x400)
        assert not cache.is_dirty(0x400)


class TestWriteBack:
    def test_write_does_not_reach_memory(self):
        sim, _bus, mem, cache, _p = make_system()

        def proc():
            yield from cache.write(0x100, 7, WB)

        run(sim, proc())
        assert mem.read_word(0x100) == 0
        assert cache.is_dirty(0x100)

    def test_read_after_write_hits(self):
        sim, _bus, _mem, cache, _p = make_system()

        def proc():
            yield from cache.write(0x100, 7, WB)
            return (yield from cache.read(0x100, WB))

        assert run(sim, proc()) == 7
        assert cache.hits.value >= 1

    def test_eviction_writes_back_dirty_line(self):
        # Direct-mapped tiny cache forces conflict eviction.
        sim, _bus, mem, cache, _p = make_system(cache_sets=2, cache_assoc=1)
        line = 32
        conflict = 0x100 + 2 * line * 2  # same set (2 sets)

        def proc():
            yield from cache.write(0x100, 7, WB)
            yield from cache.read(conflict, WB)  # evicts dirty line

        run(sim, proc())
        assert mem.read_word(0x100) == 7
        assert cache.writebacks.value == 1

    def test_flush_page_writes_back_and_invalidates(self):
        sim, _bus, mem, cache, _p = make_system()

        def proc():
            yield from cache.write(0x1000, 11, WB)
            yield from cache.write(0x1040, 22, WB)
            yield from cache.flush_page(0x1000, 4096)

        run(sim, proc())
        assert mem.read_word(0x1000) == 11
        assert mem.read_word(0x1040) == 22
        assert not cache.contains(0x1000)


class TestUncached:
    def test_bypasses_cache(self):
        sim, _bus, mem, cache, _p = make_system()

        def proc():
            yield from cache.write(0x100, 5, UC)
            return (yield from cache.read(0x100, UC))

        assert run(sim, proc()) == 5
        assert not cache.contains(0x100)
        assert cache.hits.value == 0


class TestSnooping:
    def test_dma_write_invalidates_cached_line(self):
        """Paper section 3: caches snoop DMA and invalidate, so incoming
        network data deposited in DRAM is seen by subsequent CPU reads."""
        sim, bus, mem, cache, _p = make_system()

        def proc():
            first = yield from cache.read(0x500, WB)
            # Another master (the EISA DMA) overwrites memory.
            yield from bus.write(0x500, [123], "eisa")
            second = yield from cache.read(0x500, WB)
            return first, second

        first, second = run(sim, proc())
        assert first == 0
        assert second == 123
        assert cache.snoop_invalidations.value >= 1

    def test_own_writes_do_not_self_invalidate(self):
        sim, _bus, _mem, cache, _p = make_system()

        def proc():
            yield from cache.read(0x500, WT)
            yield from cache.write(0x500, 1, WT)

        run(sim, proc())
        assert cache.contains(0x500)

    def test_dirty_line_dropped_on_snoop(self):
        sim, bus, mem, cache, _p = make_system()

        def proc():
            yield from cache.write(0x600, 7, WB)  # dirty in cache only
            yield from bus.write(0x600, [99], "eisa")
            return (yield from cache.read(0x600, WB))

        # DMA wins: the stale dirty line is dropped, memory value is read.
        assert run(sim, proc()) == 99


class TestTiming:
    def test_hit_faster_than_miss(self):
        sim, _bus, _mem, cache, params = make_system()
        times = []

        def proc():
            t0 = sim.now
            yield from cache.read(0x700, WB)
            times.append(sim.now - t0)
            t1 = sim.now
            yield from cache.read(0x700, WB)
            times.append(sim.now - t1)

        run(sim, proc())
        miss_time, hit_time = times
        assert hit_time == params.cache_hit_ns
        assert miss_time > hit_time


@settings(max_examples=30, deadline=None)
@given(
    page_policies=st.lists(
        st.sampled_from([WB, WT, UC]), min_size=4, max_size=4
    ),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["r", "w"]),
            st.integers(min_value=0, max_value=4095),  # word index, 4 pages
            st.integers(min_value=0, max_value=0xFFFF),
        ),
        max_size=50,
    ),
)
def test_cache_is_transparent(page_policies, ops):
    """Property: under per-page policies (as the MMU provides), any access
    sequence returns the last-written data -- the cache is invisible."""
    sim, _bus, _mem, cache, _p = make_system(
        dram_bytes=4 * 4096, cache_sets=4, cache_assoc=1
    )
    model = {}
    results = []

    def proc():
        for op, word_index, value in ops:
            addr = word_index * 4
            policy = page_policies[addr // 4096]
            if op == "w":
                yield from cache.write(addr, value, policy)
                model[addr] = value
            else:
                got = yield from cache.read(addr, policy)
                results.append((got, model.get(addr, 0)))

    run(sim, proc())
    for got, expected in results:
        assert got == expected


# -- lazily built ways against an eager all-ways reference ---------------------


class _EagerCache(Cache):
    """Reference: every set holds all ``assoc`` ways from the start, and
    the victim is the first invalid way, else the least recently used."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._build_all_ways()

    def ckpt_restore(self, state):
        super().ckpt_restore(state)
        self._build_all_ways()

    def _build_all_ways(self):
        self._sets = [
            list(ways) + [_Line() for _ in range(self.assoc - len(ways))]
            for ways in self._sets
        ]

    def _victim(self, set_index):
        lines = self._sets[set_index]
        invalid = [line for line in lines if not line.valid]
        if invalid:
            return invalid[0]
        return min(lines, key=lambda line: line.lru)


def _record_victims(cache):
    """Wrap ``cache._victim`` to log each chosen (set, way)."""
    chosen = []
    victim = cache._victim

    def recording(set_index):
        line = victim(set_index)
        chosen.append((set_index, cache._sets[set_index].index(line)))
        return line

    cache._victim = recording
    return chosen


GEOMETRY = dict(dram_bytes=4 * 4096, cache_sets=2, cache_assoc=4)


def _drive(cache_class, ops, state=None):
    """Run ``ops`` through a fresh cache; everything observable."""
    sim, bus, mem, cache, params = make_system(cache_class=cache_class,
                                               **GEOMETRY)
    if state is not None:
        cache.ckpt_restore(state)
    chosen = _record_victims(cache)
    reads = []

    def proc():
        for op, line_number, value in ops:
            addr = line_number * params.cache_line_bytes + 4 * (value % 8)
            if op == "read":
                reads.append((yield from cache.read(addr, WB)))
            elif op == "write_wb":
                yield from cache.write(addr, value, WB)
            elif op == "write_wt":
                yield from cache.write(addr, value, WT)
            elif op == "dma":  # another bus master: the cache snoops it
                yield from bus.write(addr, [value], "nic")
            else:
                yield from cache.flush_page(addr - addr % 4096, 4096)

    run(sim, proc())
    return {
        "victims": chosen,
        "reads": reads,
        "counters": [c.value for c in (cache.hits, cache.misses,
                                       cache.writebacks,
                                       cache.snoop_invalidations)],
        "dram": mem.dump_bytes(0, GEOMETRY["dram_bytes"]),
        "capture": cache.ckpt_capture(),
    }


_cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "read", "write_wb", "write_wb", "write_wt",
                         "dma", "flush"]),
        # 25 lines over all four pages, alternating between the two sets.
        st.sampled_from(range(0, 4 * 4096 // 32, 21)),
        st.integers(min_value=0, max_value=0xFFFF),
    ),
    max_size=60,
)


@settings(max_examples=40, deadline=None)
@given(ops=_cache_ops)
def test_lazy_ways_match_eager_reference(ops):
    """Property: building ways on demand picks the same (set, way) victim
    on every fill, and so the same hits, misses, writebacks and DRAM, as a
    cache whose every way exists from the start -- across snoop
    invalidations and page flushes that leave holes in a set."""
    assert _drive(Cache, ops) == _drive(_EagerCache, ops)


@settings(max_examples=20, deadline=None)
@given(ops=_cache_ops)
def test_restore_into_untouched_sets_matches_eager_reference(ops):
    """Untouched sets are one shared empty tuple until their first fill.
    A capture that fills one set leaves the other untouched; restoring it
    and then running ops matches the eager reference, whose every way
    exists from the start."""
    sim, _bus, _mem, cache, _p = make_system(**GEOMETRY)
    assert cache._sets[0] is cache._sets[1] == ()
    assert cache.ckpt_capture() == {"lru_clock": 0, "lines": []}
    state = {"lru_clock": 4, "lines": [
        [1, 1, {"tag": 2, "dirty": True, "lru": 4, "data": [5] * 8}],
    ]}
    cache.ckpt_restore(state)
    assert cache._sets[0] == () and len(cache._sets[1]) == 2
    assert cache.ckpt_capture() == state
    assert _drive(Cache, ops, state) == _drive(_EagerCache, ops, state)


@settings(max_examples=20, deadline=None)
@given(ops=_cache_ops)
def test_restore_builds_ways_up_to_captured_index(ops):
    """A capture whose valid line sits in a way the restoring cache never
    built: restore creates the ways below it, and later fills fill the
    holes first, exactly like the eager reference."""
    state = {"lru_clock": 7, "lines": [
        [0, 2, {"tag": 3, "dirty": True, "lru": 7, "data": list(range(8))}],
        [1, 3, {"tag": 1, "dirty": False, "lru": 5, "data": [9] * 8}],
    ]}
    sim, _bus, _mem, cache, _p = make_system(**GEOMETRY)
    cache.ckpt_restore(state)
    assert [len(ways) for ways in cache._sets] == [3, 4]
    assert cache.ckpt_capture() == state
    assert _drive(Cache, ops, state) == _drive(_EagerCache, ops, state)
