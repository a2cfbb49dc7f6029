"""Spin folding is exact: a folded spin loop ends in the state, and at
the time, the unfolded interpreter reaches.

Each test runs one program twice on identical machines: once as
assembled (its spin loops marked, so the CPU folds them) and once as a
``Program`` rebuilt from the same code without the marks (every
iteration executes).  Another bus master, a Python process using the
cache, interrupts, ``preempt()`` and bounded slices act on both runs at
the same instants, and every observable must match: time, pc, registers,
flags, instruction counts per region, retired cycles, cache counters, the
LRU clock and every line, and the bus transaction log.

The property test (``slow``) draws the changes at random; the smoke tests
cover each idiom once, with a bus write landing exactly on a read instant
of the loop.  ``mov_add`` is not one of the repo's idioms: its registers
differ mid-iteration, which the three idioms' do not.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import Asm, Cpu, Context, Mem, R1, R3, R4, R5
from repro.cpu.assembler import Program
from repro.memsys import (
    Cache,
    CachePolicy,
    DramDevice,
    MemsysParams,
    PhysicalMemory,
    XpressBus,
)
from repro.sim import Process, Simulator

FLAG = 0x8000  # the word every idiom spins on
PAGE = 4096
HORIZON = 30_000
BUS_WRITE_NS = 120  # arbitration + one word + DRAM latency, uncontended


class _FlatMmu:
    def translate(self, vaddr, access):
        return vaddr, CachePolicy.WRITE_BACK


def _cmp_imm():
    """``cmp [m], imm; jz`` -- the paper's flag wait (pingpong)."""
    asm = Asm("cmp_imm")
    asm.mov(R4, 3)
    asm.label("round")
    asm.label("spin")
    asm.cmp(Mem(disp=FLAG), 0)
    asm.jz("spin")
    asm.mov(Mem(disp=FLAG), 0)
    asm.dec(R4)
    asm.jnz("round")
    asm.halt()
    return asm.build()


def _mov_test():
    """``mov r, [m]; test r, r; jz`` inside a region (single-buffer recv)."""
    asm = Asm("mov_test")
    asm.mov(R4, 3)
    asm.label("round")
    asm.region_begin("recv")
    asm.label("spin")
    asm.mov(R3, Mem(disp=FLAG))
    asm.test(R3, R3)
    asm.jz("spin")
    asm.mov(Mem(disp=FLAG), 0)
    asm.region_end("recv")
    asm.dec(R4)
    asm.jnz("round")
    asm.halt()
    return asm.build()


def _cmp_reg():
    """``cmp [base], reg; jne`` -- NX/2 crecv's sequence-number wait."""
    asm = Asm("cmp_reg")
    asm.mov(R5, FLAG)
    asm.mov(R4, 1)
    asm.label("round")
    asm.cmp(Mem(base=R5), R4)
    asm.jne("round")
    asm.add(R4, 1)
    asm.cmp(R4, 4)
    asm.jnz("round")
    asm.halt()
    return asm.build()


def _mov_add():
    """A body whose registers differ mid-iteration: r1 is the flag just
    after the read, the flag plus one at the loop head."""
    asm = Asm("mov_add")
    asm.mov(R4, 3)
    asm.label("round")
    asm.mov(R1, Mem(disp=FLAG))
    asm.add(R1, 1)
    asm.cmp(R1, 1)
    asm.jz("round")
    asm.mov(Mem(disp=FLAG), 0)
    asm.dec(R4)
    asm.jnz("round")
    asm.halt()
    return asm.build()


IDIOMS = {"cmp_imm": _cmp_imm, "mov_test": _mov_test, "cmp_reg": _cmp_reg,
          "mov_add": _mov_add}


def _stripped(program):
    """The same code with no spin marks: every iteration executes."""
    return Program(program.name, program.code, program.labels)


def _run(program, actions, max_ns=None, read_log=None):
    """Run ``program`` against ``actions``; return (observables, events).

    ``actions`` is a list of ``(delay_ns, kind, address, value)`` applied
    in order by one driver process, each ``delay_ns`` after the previous
    one finished.
    """
    sim = Simulator()
    params = MemsysParams()
    bus = XpressBus(sim, params)
    memory = PhysicalMemory(64 * 1024)
    bus.attach(0, 64 * 1024, DramDevice(memory, params.dram_access_ns))
    cache = Cache(sim, bus, params)
    cpu = Cpu(sim, cache, _FlatMmu(), params)
    bus_log = []
    bus.add_snooper(lambda txn: bus_log.append(
        (sim.now, txn.kind, txn.addr, txn.originator, tuple(txn.data))))
    ticks = []
    finished = []  # when each action completed

    def tick():
        ticks.append(sim.now)
        yield 40

    cpu.register_interrupt_handler("tick", tick)
    if read_log is not None:
        read_hit = cache.read_hit

        def logged(addr, policy):
            if addr == FLAG:
                read_log.append(sim.now)
            return read_hit(addr, policy)

        cache.read_hit = logged
    context = Context(stack_top=0x3F00)

    def body():
        while (yield from cpu.run_slice(program, context, max_ns)) != "halt":
            pass

    def driver():
        for delay, kind, addr, value in actions:
            yield delay
            if kind == "bus":
                yield from bus.write(addr, [value], "dma")
            elif kind == "write":
                yield from cache.write(addr, value, CachePolicy.WRITE_BACK)
            elif kind == "read":
                yield from cache.read(addr, CachePolicy.WRITE_BACK)
            elif kind == "flush":
                yield from cache.flush_page(addr - addr % PAGE, PAGE)
            elif kind == "irq":
                cpu.post_interrupt("tick")
            elif kind == "preempt":
                cpu.preempt()
            finished.append(sim.now)

    Process(sim, body(), "cpu").start()
    Process(sim, driver(), "driver").start()
    sim.run(until=HORIZON)
    lines = [
        (set_index, way, line.tag, line.valid, line.dirty, line.lru,
         tuple(line.data) if line.data is not None else None)
        for set_index, ways in enumerate(cache._sets)
        for way, line in enumerate(ways)
    ]
    observed = {
        "now": sim.now,
        "pc": context.pc,
        "registers": tuple(context.reg_values),
        "flags": dict(context.flags),
        "halted": context.halted,
        "total": cpu.counts.total,
        "by_region": dict(cpu.counts.by_region),
        "cycles_retired": cpu.cycles_retired,
        "hits": cache.hits.value,
        "misses": cache.misses.value,
        "snoop_invalidations": cache.snoop_invalidations.value,
        "lru_clock": cache._lru_clock,
        "lines": lines,
        "bus": bus_log,
        "interrupts": ticks,
        "actions": finished,
    }
    return observed, sim.event_count


def _assert_exact(idiom, actions, max_ns=None):
    program = IDIOMS[idiom]()
    folded, folded_events = _run(program, actions, max_ns)
    unfolded, unfolded_events = _run(_stripped(program), actions, max_ns)
    assert folded == unfolded
    return folded, folded_events, unfolded_events


def _with_write_on_a_read(idiom, actions, addr, value, after):
    """``actions`` plus a bus write to ``addr`` that completes exactly
    when the unfolded loop reads its flag, the first such read at least
    ``after`` ns past the last action."""
    instants = []
    observed, _ = _run(_stripped(IDIOMS[idiom]()), actions,
                       read_log=instants)
    done = observed["actions"][-1]
    tie = next(t for t in instants if t >= done + after)
    return actions + [(tie - BUS_WRITE_NS - done, "bus", addr, value)], tie


def test_every_idiom_is_marked_and_listed():
    for idiom, build in IDIOMS.items():
        program = build()
        assert len(program.spins) == 1, idiom
        (spin,) = program.spins.values()
        assert "; folds: read-only spin on %r" % (spin.operand,) \
            in program.listing()
        assert _stripped(program).spins == {}


def test_loops_that_store_or_read_twice_are_not_marked():
    asm = Asm("not_spins")
    asm.label("store")
    asm.mov(Mem(disp=FLAG), R4)  # a store in the body
    asm.cmp(Mem(disp=FLAG), 0)
    asm.jz("store")
    asm.label("twice")
    asm.mov(R3, Mem(disp=FLAG))
    asm.cmp(Mem(disp=FLAG + 4), R3)  # a second read
    asm.jz("twice")
    asm.label("forward")
    asm.cmp(Mem(disp=FLAG), 0)
    asm.jz("forward")  # a branch inside the body of the loop below
    asm.jnz("forward")
    asm.halt()
    program = asm.build()
    assert set(program.spins) == {program.index_of("forward")}
    assert "folds" not in program.listing().split("forward:")[0]


@pytest.mark.parametrize("idiom", sorted(IDIOMS))
def test_smoke_each_idiom_against_its_unfolded_run(idiom):
    """A false-sharing bus write, a Python cache write and read, an
    interrupt, a preemption and the releasing bus writes, with one bus
    write landing exactly on a read instant of the loop."""
    releases = [1, 2, 3] if idiom == "cmp_reg" else [5, 6, 7]
    actions = [
        (900, "bus", FLAG + 4, 11),  # another word of the line
        (700, "write", FLAG + 8, 12),
        (500, "read", FLAG + 2 * PAGE, 0),  # same set, another line
        (600, "irq", 0, 0),
        (500, "preempt", 0, 0),
        (900, "bus", FLAG, releases[0]),
        (3000, "bus", FLAG, releases[1]),
    ]
    # The last release completes exactly on one of the loop's reads.
    actions, tie = _with_write_on_a_read(idiom, actions, FLAG, releases[2],
                                         2000)
    observed, folded_events, unfolded_events = _assert_exact(idiom, actions)
    assert (tie, "write", FLAG, "dma", (releases[2],)) in observed["bus"]
    assert folded_events * 4 < unfolded_events


@pytest.mark.parametrize("idiom", sorted(IDIOMS))
def test_write_during_the_watched_iteration_is_not_folded_over(idiom):
    """A write that lands between an iteration's read and its end: that
    iteration must not start a fold (the line is no longer what it
    read)."""
    release = 1 if idiom == "cmp_reg" else 4
    for offset in range(0, 400, 5):
        _assert_exact(idiom, [(300, "bus", FLAG + 4, 5),
                              (offset, "write", FLAG, release)])


@pytest.mark.parametrize("actions, max_ns", [
    # A foreign fill of the spun-on address into an earlier way takes
    # over the loop's hits.
    ([(25, "irq", FLAG, 0), (20, "read", FLAG + 2 * PAGE, 0),
      (45, "flush", FLAG + 2 * PAGE, 2), (60, "read", FLAG, 0),
      (20, "irq", FLAG, 0), (25, "bus", FLAG + PAGE, 0)], None),
    # An interrupt posted at the slice's last boundary.
    ([(31, "bus", FLAG + PAGE, 0), (282, "bus", FLAG, 0),
      (1001, "irq", FLAG, 0), (363, "write", FLAG + PAGE, 0),
      (363, "read", FLAG, 0), (101, "irq", FLAG, 0)], 196),
    # A victim chosen at the instant of the step before the slice ends.
    ([(25, "irq", FLAG, 2), (575, "read", FLAG, 2), (45, "bus", FLAG, 3),
      (308, "bus", FLAG + 2 * PAGE, 0), (60, "read", FLAG + PAGE, 3),
      (30, "read", FLAG + 2 * PAGE, 2), (45, "read", FLAG, 0),
      (21, "bus", FLAG, 1)], 101),
])
def test_found_cases(actions, max_ns):
    _assert_exact("cmp_imm", actions, max_ns)


@pytest.mark.parametrize("idiom", sorted(IDIOMS))
def test_smoke_bounded_slices_and_flush(idiom):
    releases = [1, 2, 3] if idiom == "cmp_reg" else [9, 9, 9]
    actions = [
        (1500, "flush", FLAG, 0),
        (800, "bus", FLAG, releases[0]),
        (2500, "write", FLAG, releases[1]),
        (4000, "bus", FLAG, releases[2]),
    ]
    _assert_exact(idiom, actions, max_ns=777)


_ACTION = st.tuples(
    st.integers(min_value=20, max_value=2500),
    st.sampled_from(["bus", "bus", "write", "read", "flush", "irq",
                     "preempt"]),
    st.sampled_from([FLAG, FLAG, FLAG + 4, FLAG + PAGE, FLAG + 2 * PAGE]),
    st.sampled_from([0, 1, 2, 3]),
)


@pytest.mark.slow
@given(
    idiom=st.sampled_from(sorted(IDIOMS)),
    actions=st.lists(_ACTION, min_size=1, max_size=8),
    max_ns=st.one_of(st.none(), st.integers(min_value=100, max_value=3000)),
)
@settings(max_examples=200, deadline=None)
def test_folded_spin_matches_unfolded_run(idiom, actions, max_ns):
    _assert_exact(idiom, actions, max_ns)


@pytest.mark.slow
@given(idiom=st.sampled_from(sorted(IDIOMS)),
       nth=st.integers(min_value=2, max_value=40),
       false_sharing=st.booleans())
@settings(max_examples=60, deadline=None)
def test_bus_write_on_a_read_instant(idiom, nth, false_sharing):
    """A bus write completing exactly when the loop reads its line."""
    addr = FLAG + 4 if false_sharing else FLAG
    actions, tie = _with_write_on_a_read(
        idiom, [(300, "bus", FLAG + 4, 5)], addr, 1, 700 + 45 * nth)
    observed, _, _ = _assert_exact(idiom, actions)
    assert (tie, "write", addr, "dma", (1,)) in observed["bus"]


def test_run_until_settles_a_parked_spin():
    """``Simulator.run(until=...)`` returns with the spin's counts
    charged up to ``until``, exactly as the unfolded run leaves them."""
    program = _cmp_imm()
    for until in (2_000, 2_001, 2_015, 5_432):
        states = []
        for variant in (program, _stripped(program)):
            sim = Simulator()
            params = MemsysParams()
            bus = XpressBus(sim, params)
            memory = PhysicalMemory(64 * 1024)
            bus.attach(0, 64 * 1024, DramDevice(memory, params.dram_access_ns))
            cache = Cache(sim, bus, params)
            cpu = Cpu(sim, cache, _FlatMmu(), params)
            context = Context()
            Process(sim, cpu.run_to_halt(variant, context), "cpu").start()
            sim.run(until=until)
            states.append((cpu.counts.total, cpu.cycles_retired,
                           cache.hits.value, cache._lru_clock, context.pc,
                           dict(context.flags)))
        assert states[0] == states[1], until
