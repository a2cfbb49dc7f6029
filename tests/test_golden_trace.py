"""Golden-trace determinism: the optimized kernel reproduces the seed.

The hot-path performance pass (slot-based event entries, the same-time
FIFO bucket, the list register file, batched link transfers) must not
change any *observable* of the simulation.  The ``GOLDEN`` values below
were recorded by running these exact scenarios on the seed code path
(commit c671168, before the optimization) via::

    PYTHONPATH=src python -m tests.test_golden_trace

and are asserted bit-for-bit here.

What counts as observable:

- simulated time, instruction counts (total and per region), packet and
  word delivery counters, per-link flit counters, delivered memory
  contents -- pinned for every scenario;
- the engine's executed-event count -- pinned only for the CPU/engine
  scenario, which has no spin loop.  Two layers deliberately fold work
  into fewer engine events.  The mesh moves flits as runs in closed
  form, and a router input wakes once per idle head (at its stamp) and
  hands its output port over at the tail's landing time without
  waking.  The CPU folds a read-only spin loop (the ping-pong flag
  waits) once an iteration repeats, and charges its iterations in
  closed form when the line it reads changes.  So the *event count* of
  mesh-heavy and spinning runs shrinks while every physical observable
  above stays identical; the event count is engine-internal
  bookkeeping, not part of the timing model.  ``docs/simulation.md``
  ("How the mesh stays flit-exact", "How spin loops fold") lists the
  other tests that hold both to the unfolded model.
"""

from repro.cpu import Asm, Context, Mem, R1, R2, R3, R4
from repro.machine import ShrimpSystem, mapping
from repro.memsys.address import PAGE_SIZE
from repro.msg.layout import MessagingPair, PairLayout as L
from repro.nic.nipt import MappingMode
from repro.sim import Process

PONG_SBUF = 0x2A000
PONG_RBUF = 0x2C000
PONG_FLAG = L.FLAGS + 0x20


def _link_flits(backplane):
    """{link name: flits moved} for every link in the mesh."""
    links = {}
    for router in backplane.routers.values():
        for link in router.inputs.values():
            links[link.name] = link.flits_moved.value
    for node_id in range(backplane.node_count):
        link = backplane.ejection_link(node_id)
        links[link.name] = link.flits_moved.value
    return links


def _router_flits(backplane):
    return {
        "(%d,%d)" % coords: router.flits_forwarded.value
        for coords, router in sorted(backplane.routers.items())
    }


# -- scenario 1: CPU + engine only (no mesh traffic) -------------------------


def scenario_cpu_engine():
    """Pure compute: ALU loop, call/ret, rep movs, accounting regions.

    No packets move, so the event count itself is a hard golden: the
    engine and CPU refactors execute exactly the seed's events.
    """
    system = ShrimpSystem(1, 1)
    system.start()
    node = system.nodes[0]
    node.memory.write_words(0x31000, [(13 * i + 7) & 0xFFFF for i in range(64)])

    asm = Asm("compute")
    asm.mov(R4, 40)
    asm.region_begin("alu")
    asm.label("loop")
    asm.mov(R1, R4)
    asm.shl(R1, 3)
    asm.xor(R1, 0x5A)
    asm.add(R2, R1)
    asm.mov(Mem(disp=0x30000), R2)
    asm.cmp(Mem(disp=0x30000), 0)
    asm.call("leaf")
    asm.dec(R4)
    asm.jnz("loop")
    asm.region_end("alu")
    # Block copy: 64 words from 0x31000 to 0x32000.
    asm.region_begin("copy")
    asm.mov(R1, 0x31000)
    asm.mov(R2, 0x32000)
    asm.mov(R3, 64)
    asm.rep_movs()
    asm.region_end("copy")
    asm.halt()
    asm.label("leaf")
    asm.push(R1)
    asm.inc(R1)
    asm.pop(R1)
    asm.ret()

    Process(
        system.sim,
        node.cpu.run_to_halt(asm.build(), Context(stack_top=0x3F000)),
        "compute",
    ).start()
    system.run()
    counts = node.cpu.counts
    return {
        "now": system.sim.now,
        "event_count": system.sim.event_count,
        "instructions": counts.total,
        "by_region": dict(sorted(counts.by_region.items())),
        "copy_words": counts.copy_words,
        "cycles_retired": node.cpu.cycles_retired,
        "copied": tuple(node.memory.read_words(0x32000, 8)),
    }


# -- scenario 2: 2-node ping-pong --------------------------------------------


def scenario_ping_pong(rounds=8):
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    MessagingPair(system, a, b, data_mode=MappingMode.AUTO_SINGLE)
    mapping.establish(b, PONG_SBUF, a, PONG_RBUF, PAGE_SIZE,
                      MappingMode.AUTO_SINGLE)

    asm = Asm("pinger")
    asm.mov(R4, rounds)
    asm.label("round")
    asm.mov(Mem(disp=L.SBUF0), 0xABCD)
    asm.mov(Mem(disp=L.flag(L.F_NBYTES)), 4)
    asm.label("echo_wait")
    asm.cmp(Mem(disp=PONG_FLAG), 0)
    asm.jz("echo_wait")
    asm.mov(Mem(disp=PONG_FLAG), 0)
    asm.dec(R4)
    asm.jnz("round")
    asm.halt()
    pinger = asm.build()

    asm = Asm("ponger")
    asm.mov(R4, rounds)
    asm.label("round")
    asm.label("ping_wait")
    asm.cmp(Mem(disp=L.flag(L.F_NBYTES)), 0)
    asm.jz("ping_wait")
    asm.mov(Mem(disp=L.flag(L.F_NBYTES)), 0)
    asm.mov(Mem(disp=PONG_SBUF), 0xDCBA)
    asm.mov(Mem(disp=PONG_FLAG), 1)
    asm.dec(R4)
    asm.jnz("round")
    asm.halt()
    ponger = asm.build()

    Process(system.sim,
            a.cpu.run_to_halt(pinger, Context(stack_top=0x3F000)),
            "pinger").start()
    Process(system.sim,
            b.cpu.run_to_halt(ponger, Context(stack_top=0x3F000)),
            "ponger").start()
    system.run()
    return {
        "now": system.sim.now,
        "instructions_a": a.cpu.counts.total,
        "instructions_b": b.cpu.counts.total,
        "packets_delivered_a": a.nic.packets_delivered.value,
        "packets_delivered_b": b.nic.packets_delivered.value,
        "words_delivered_a": a.nic.words_delivered.value,
        "words_delivered_b": b.nic.words_delivered.value,
        "rbuf_b": tuple(b.memory.read_words(L.RBUF0, 2)),
        "pong_rbuf_a": tuple(a.memory.read_words(PONG_RBUF, 2)),
        "link_flits": _link_flits(system.backplane),
        "router_flits": _router_flits(system.backplane),
    }


# -- scenario 3: 4x4 contention ----------------------------------------------


def scenario_contention(words_per_sender=8):
    system = ShrimpSystem(4, 4)
    system.start()
    hot = system.nodes[15]
    src_base = 0x10000
    for i, node in enumerate(system.nodes[:15]):
        dest = 0x100000 + i * PAGE_SIZE
        mapping.establish(node, src_base, hot, dest, PAGE_SIZE,
                          MappingMode.AUTO_SINGLE)
        asm = Asm("storm%d" % i)
        for j in range(words_per_sender):
            asm.mov(Mem(disp=src_base + 4 * j), (i << 16) | j)
        asm.halt()
        Process(
            system.sim,
            node.cpu.run_to_halt(asm.build(), Context(stack_top=0x3F000)),
            "storm%d" % i,
        ).start()
    system.run()
    deposits = []
    for i in range(15):
        deposits.append(tuple(
            hot.memory.read_words(0x100000 + i * PAGE_SIZE, words_per_sender)
        ))
    return {
        "now": system.sim.now,
        "instructions": tuple(n.cpu.counts.total for n in system.nodes[:15]),
        "packets_delivered": hot.nic.packets_delivered.value,
        "words_delivered": hot.nic.words_delivered.value,
        "deposits": tuple(deposits),
        "link_flits": _link_flits(system.backplane),
        "router_flits": _router_flits(system.backplane),
    }


# -- goldens recorded on the seed code path ----------------------------------

GOLDEN = {'contention': {'deposits': ((0, 1, 2, 3, 4, 5, 6, 7),
                             (65536,
                              65537,
                              65538,
                              65539,
                              65540,
                              65541,
                              65542,
                              65543),
                             (131072,
                              131073,
                              131074,
                              131075,
                              131076,
                              131077,
                              131078,
                              131079),
                             (196608,
                              196609,
                              196610,
                              196611,
                              196612,
                              196613,
                              196614,
                              196615),
                             (262144,
                              262145,
                              262146,
                              262147,
                              262148,
                              262149,
                              262150,
                              262151),
                             (327680,
                              327681,
                              327682,
                              327683,
                              327684,
                              327685,
                              327686,
                              327687),
                             (393216,
                              393217,
                              393218,
                              393219,
                              393220,
                              393221,
                              393222,
                              393223),
                             (458752,
                              458753,
                              458754,
                              458755,
                              458756,
                              458757,
                              458758,
                              458759),
                             (524288,
                              524289,
                              524290,
                              524291,
                              524292,
                              524293,
                              524294,
                              524295),
                             (589824,
                              589825,
                              589826,
                              589827,
                              589828,
                              589829,
                              589830,
                              589831),
                             (655360,
                              655361,
                              655362,
                              655363,
                              655364,
                              655365,
                              655366,
                              655367),
                             (720896,
                              720897,
                              720898,
                              720899,
                              720900,
                              720901,
                              720902,
                              720903),
                             (786432,
                              786433,
                              786434,
                              786435,
                              786436,
                              786437,
                              786438,
                              786439),
                             (851968,
                              851969,
                              851970,
                              851971,
                              851972,
                              851973,
                              851974,
                              851975),
                             (917504,
                              917505,
                              917506,
                              917507,
                              917508,
                              917509,
                              917510,
                              917511)),
                'instructions': (9,
                                 9,
                                 9,
                                 9,
                                 9,
                                 9,
                                 9,
                                 9,
                                 9,
                                 9,
                                 9,
                                 9,
                                 9,
                                 9,
                                 9),
                'link_flits': {'eject(0)': 0,
                               'eject(1)': 0,
                               'eject(10)': 0,
                               'eject(11)': 0,
                               'eject(12)': 0,
                               'eject(13)': 0,
                               'eject(14)': 0,
                               'eject(15)': 1320,
                               'eject(2)': 0,
                               'eject(3)': 0,
                               'eject(4)': 0,
                               'eject(5)': 0,
                               'eject(6)': 0,
                               'eject(7)': 0,
                               'eject(8)': 0,
                               'eject(9)': 0,
                               'inject(0)': 88,
                               'inject(1)': 88,
                               'inject(10)': 88,
                               'inject(11)': 88,
                               'inject(12)': 88,
                               'inject(13)': 88,
                               'inject(14)': 88,
                               'inject(15)': 0,
                               'inject(2)': 88,
                               'inject(3)': 88,
                               'inject(4)': 88,
                               'inject(5)': 88,
                               'inject(6)': 88,
                               'inject(7)': 88,
                               'inject(8)': 88,
                               'inject(9)': 88,
                               'link(0,0)->(0,1)': 0,
                               'link(0,0)->(1,0)': 88,
                               'link(0,1)->(0,0)': 0,
                               'link(0,1)->(0,2)': 0,
                               'link(0,1)->(1,1)': 88,
                               'link(0,2)->(0,1)': 0,
                               'link(0,2)->(0,3)': 0,
                               'link(0,2)->(1,2)': 88,
                               'link(0,3)->(0,2)': 0,
                               'link(0,3)->(1,3)': 88,
                               'link(1,0)->(0,0)': 0,
                               'link(1,0)->(1,1)': 0,
                               'link(1,0)->(2,0)': 176,
                               'link(1,1)->(0,1)': 0,
                               'link(1,1)->(1,0)': 0,
                               'link(1,1)->(1,2)': 0,
                               'link(1,1)->(2,1)': 176,
                               'link(1,2)->(0,2)': 0,
                               'link(1,2)->(1,1)': 0,
                               'link(1,2)->(1,3)': 0,
                               'link(1,2)->(2,2)': 176,
                               'link(1,3)->(0,3)': 0,
                               'link(1,3)->(1,2)': 0,
                               'link(1,3)->(2,3)': 176,
                               'link(2,0)->(1,0)': 0,
                               'link(2,0)->(2,1)': 0,
                               'link(2,0)->(3,0)': 264,
                               'link(2,1)->(1,1)': 0,
                               'link(2,1)->(2,0)': 0,
                               'link(2,1)->(2,2)': 0,
                               'link(2,1)->(3,1)': 264,
                               'link(2,2)->(1,2)': 0,
                               'link(2,2)->(2,1)': 0,
                               'link(2,2)->(2,3)': 0,
                               'link(2,2)->(3,2)': 264,
                               'link(2,3)->(1,3)': 0,
                               'link(2,3)->(2,2)': 0,
                               'link(2,3)->(3,3)': 264,
                               'link(3,0)->(2,0)': 0,
                               'link(3,0)->(3,1)': 352,
                               'link(3,1)->(2,1)': 0,
                               'link(3,1)->(3,0)': 0,
                               'link(3,1)->(3,2)': 704,
                               'link(3,2)->(2,2)': 0,
                               'link(3,2)->(3,1)': 0,
                               'link(3,2)->(3,3)': 1056,
                               'link(3,3)->(2,3)': 0,
                               'link(3,3)->(3,2)': 0},
                'now': 67775,
                'packets_delivered': 120,
                'router_flits': {'(0,0)': 88,
                                 '(0,1)': 88,
                                 '(0,2)': 88,
                                 '(0,3)': 88,
                                 '(1,0)': 176,
                                 '(1,1)': 176,
                                 '(1,2)': 176,
                                 '(1,3)': 176,
                                 '(2,0)': 264,
                                 '(2,1)': 264,
                                 '(2,2)': 264,
                                 '(2,3)': 264,
                                 '(3,0)': 352,
                                 '(3,1)': 704,
                                 '(3,2)': 1056,
                                 '(3,3)': 1320},
                'words_delivered': 120},
 'cpu_engine': {'by_region': {'alu': 520, 'copy': 4},
                'copied': (0, 0, 0, 0, 0, 0, 0, 0),
                'copy_words': 64,
                'cycles_retired': 606,
                'event_count': 900,
                'instructions': 526,
                'now': 20610},
 'ping_pong': {'instructions_a': 1530,
               'instructions_b': 1430,
               'link_flits': {'eject(0)': 264,
                              'eject(1)': 264,
                              'inject(0)': 264,
                              'inject(1)': 264,
                              'link(0,0)->(1,0)': 264,
                              'link(1,0)->(0,0)': 264},
               'now': 40661,
               'packets_delivered_a': 24,
               'packets_delivered_b': 24,
               'pong_rbuf_a': (56506, 0),
               'rbuf_b': (43981, 0),
               'router_flits': {'(0,0)': 528, '(1,0)': 528},
               'words_delivered_a': 24,
               'words_delivered_b': 24}}


def test_cpu_engine_matches_seed_golden():
    assert scenario_cpu_engine() == GOLDEN["cpu_engine"]


def test_ping_pong_matches_seed_golden():
    assert scenario_ping_pong() == GOLDEN["ping_pong"]


def test_contention_matches_seed_golden():
    assert scenario_contention() == GOLDEN["contention"]


if __name__ == "__main__":
    import pprint

    pprint.pprint({
        "cpu_engine": scenario_cpu_engine(),
        "ping_pong": scenario_ping_pong(),
        "contention": scenario_contention(),
    }, width=78, sort_dicts=True)
