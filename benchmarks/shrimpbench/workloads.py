"""The four benchmark workloads, built only through public entry points.

Each workload is a class with the same life cycle:

- ``__init__(seed, params)`` derives every input from the seed; nothing
  is simulated yet;
- ``setup()`` constructs and starts the machine, mappings, channels,
  DSM runtime and programs -- the phase ``setup_s`` times;
- ``observe()`` attaches the benchmark's outside probes (forwarding
  wrappers on public hooks); it adds no simulation events;
- ``run()`` runs the simulation to idle -- the phase ``wall_s`` times;
- ``check()`` returns ``(attempted, failed)`` operations by the
  workload's oracle;
- ``latencies_ns`` / ``gen_late_ns`` hold the raw per-operation samples
  (empty where the workload has no per-operation latency).

Why each workload exists, and its parameters, live in ``spec.json``.
"""

import random

from repro.cpu import Asm, Context, Mem, R4, R5
from repro.machine import ShrimpSystem, mapping
from repro.memsys.address import PAGE_SIZE, WORD_SIZE
from repro.msg.layout import MessagingPair, PairLayout as L
from repro.nic.nipt import MappingMode
from repro.sim.process import Process
from repro.workload import DatacenterWorkload, WorkloadParams
from repro.workload.dsm_apps import SCRATCH_PROGRESS, DsmWorkload

STACK_TOP = 0x3F000
PAGE_WORDS = PAGE_SIZE // WORD_SIZE


class _CpuWorkload:
    """Shared plumbing for the two CPU-interpreted workloads."""

    latencies_ns = ()
    gen_late_ns = ()

    def _spawn(self, node, program, name):
        context = Context(stack_top=STACK_TOP)
        process = Process(self.system.sim,
                          node.cpu.run_to_halt(program, context), name)
        process.start()
        self._programs.append((process, context))

    def _all_halted(self):
        return all(process.finished and context.halted
                   for process, context in self._programs)

    def observe(self):
        pass

    def run(self):
        self.system.run()


class Pingpong(_CpuWorkload):
    """Automatic-update single-buffer round trips between two spin loops.

    The pinger sends ``base + r`` for round counter ``r``; the ponger
    reads it, XORs a seeded key into it and echoes it back.  Seeds pick
    data words only, so the timing is the same for every seed.
    """

    PONG_SBUF = 0x2A000  # on the ponger
    PONG_RBUF = 0x2C000  # on the pinger
    PONG_FLAG = L.FLAGS + 0x20

    def __init__(self, seed, params):
        rng = random.Random(seed)
        self.rounds = params["rounds"]
        self.width, self.height = params["width"], params["height"]
        self.base = rng.getrandbits(31)
        self.key = rng.getrandbits(32)

    def _pinger(self):
        asm = Asm("pinger")
        asm.mov(R4, self.rounds)
        asm.label("round")
        asm.mov(R5, R4)
        asm.add(R5, self.base)
        asm.mov(Mem(disp=L.SBUF0), R5)
        asm.mov(Mem(disp=L.flag(L.F_NBYTES)), 4)
        asm.label("echo_wait")
        asm.cmp(Mem(disp=self.PONG_FLAG), 0)
        asm.jz("echo_wait")
        asm.mov(Mem(disp=self.PONG_FLAG), 0)
        asm.dec(R4)
        asm.jnz("round")
        asm.halt()
        return asm.build()

    def _ponger(self):
        asm = Asm("ponger")
        asm.mov(R4, self.rounds)
        asm.label("round")
        asm.label("ping_wait")
        asm.cmp(Mem(disp=L.flag(L.F_NBYTES)), 0)
        asm.jz("ping_wait")
        asm.mov(Mem(disp=L.flag(L.F_NBYTES)), 0)
        asm.mov(R5, Mem(disp=L.RBUF0))
        asm.xor(R5, self.key)
        asm.mov(Mem(disp=self.PONG_SBUF), R5)
        asm.mov(Mem(disp=self.PONG_FLAG), 1)
        asm.dec(R4)
        asm.jnz("round")
        asm.halt()
        return asm.build()

    def setup(self):
        self.system = ShrimpSystem(self.width, self.height)
        self.system.start()
        self.a, self.b = self.system.nodes[:2]
        MessagingPair(self.system, self.a, self.b,
                      data_mode=MappingMode.AUTO_SINGLE)
        mapping.establish(self.b, self.PONG_SBUF, self.a, self.PONG_RBUF,
                          PAGE_SIZE, MappingMode.AUTO_SINGLE)
        self._programs = []
        self._spawn(self.a, self._pinger(), "pinger")
        self._spawn(self.b, self._ponger(), "ponger")

    def check(self):
        """Every round completes and both echo words land."""
        # The pinger counts rounds down in r4 and only decrements after
        # the echo arrived, so r4 is the number of rounds not completed.
        _, pinger = self._programs[0]
        failed = pinger.registers["r4"]
        last_ping = self.base + 1
        landed = (
            self.b.memory.read_word(L.RBUF0) == last_ping
            and self.a.memory.read_word(self.PONG_RBUF)
            == last_ping ^ self.key
        )
        if not (landed and self._all_halted()) and failed == 0:
            failed = 1  # the final round's words are wrong
        return self.rounds, failed


class Storm(_CpuWorkload):
    """Fifteen nodes storm automatic-update stores into the sixteenth.

    Sender ``i`` writes seeded words to consecutive slots of its own
    mapped page, wrapping after one page; each lands in its own page on
    the hot node.
    """

    SRC = 0x10000
    DEST = 0x100000

    def __init__(self, seed, params):
        rng = random.Random(seed)
        self.width, self.height = params["width"], params["height"]
        self.stores = params["stores"]
        self.senders = self.width * self.height - 1
        self.values = [[rng.getrandbits(32) for _ in range(self.stores)]
                       for _ in range(self.senders)]

    def setup(self):
        self.system = ShrimpSystem(self.width, self.height)
        self.system.start()
        self.hot = self.system.nodes[self.senders]
        self._programs = []
        for i, node in enumerate(self.system.nodes[:self.senders]):
            mapping.establish(node, self.SRC, self.hot,
                              self.DEST + i * PAGE_SIZE, PAGE_SIZE,
                              MappingMode.AUTO_SINGLE)
            asm = Asm("storm%d" % i)
            for j, value in enumerate(self.values[i]):
                asm.mov(Mem(disp=self.SRC + WORD_SIZE * (j % PAGE_WORDS)),
                        value)
            asm.halt()
            self._spawn(node, asm.build(), "storm%d" % i)

    def expected_page(self, sender):
        """The last value written to each slot of one destination page."""
        page = [0] * PAGE_WORDS
        for j, value in enumerate(self.values[sender]):
            page[j % PAGE_WORDS] = value
        return page

    def check(self):
        """Each destination page holds the last value written per slot."""
        attempted = self.senders * self.stores
        failed = max(0, attempted - self.hot.nic.words_delivered.value)
        for i in range(self.senders):
            got = self.hot.memory.read_words(self.DEST + i * PAGE_SIZE,
                                             PAGE_WORDS)
            failed += sum(1 for g, e in zip(got, self.expected_page(i))
                          if g != e)
        if not self._all_halted() and failed == 0:
            failed = 1
        return attempted, failed


class DcStrided:
    """The open-loop Poisson/Zipf datacenter workload, strided placement.

    Each response channel's public ``on_deliver`` hook is wrapped to time
    every request from its due time (its schedule arrival) and to record
    how late the generator sent it.
    """

    def __init__(self, seed, params):
        self.params = WorkloadParams(seed=seed, **params)

    def setup(self):
        self.workload = DatacenterWorkload(self.params).start()
        self.system = self.workload.system

    def observe(self):
        self.latencies_ns = []
        self.gen_late_ns = []
        self.answered = []
        schedule = self.workload.schedule
        sim = self.system.sim

        def wrap(inner):
            def on_deliver(channel, seq, payload):
                due = schedule[payload[0]].arrival_ns
                self.answered.append(payload[0])
                self.latencies_ns.append(sim.now - due)
                self.gen_late_ns.append(payload[1] - due)
                inner(channel, seq, payload)
            return on_deliver

        for channel in self.workload.resp_channels.values():
            channel.on_deliver = wrap(channel.on_deliver)

    def run(self):
        self.workload.run()

    def check(self):
        """Responses equal remote requests; each index answered once."""
        schedule = self.workload.schedule
        remote = {r.index for r in schedule if r.home_node != r.src_node}
        hub = self.system.instrumentation
        answered = set(self.answered)
        failed = len(remote - answered) + len(answered - remote)
        failed += len(self.answered) - len(answered)  # duplicates
        if (hub.value("workload.responses") != len(remote)
                or hub.value("workload.requests") != len(remote)) \
                and failed == 0:
            failed = 1
        return len(schedule), failed


class _LatencyProxy:
    """Forwards ``observe`` to a histogram, keeping every raw value."""

    def __init__(self, histogram, samples):
        self._histogram = histogram
        self._samples = samples

    def observe(self, value):
        self._samples.append(value)
        self._histogram.observe(value)


class DsmStencil:
    """The DSM stencil app: each node writes its own shared page, then
    reads a boundary word from every mesh neighbour's, with a barrier
    between phases.

    It has no random input: the seed is unused, so the work is the same
    for every seed.  Forwarding proxies on ``DsmRuntime.fetch_ns`` and
    ``upgrade_ns`` keep the raw fault-resolution times.
    """

    gen_late_ns = ()

    def __init__(self, seed, params):
        self.params = params

    def setup(self):
        self.workload = DsmWorkload(kind="stencil", **self.params).start()
        self.system = self.workload.system

    def observe(self):
        self.latencies_ns = []
        runtime = self.workload.runtime
        runtime.fetch_ns = _LatencyProxy(runtime.fetch_ns, self.latencies_ns)
        runtime.upgrade_ns = _LatencyProxy(runtime.upgrade_ns,
                                           self.latencies_ns)

    def run(self):
        self.workload.run()

    def check(self):
        """Every node finished every iteration, and every shared data page
        holds its closed-form final pattern."""
        wl = self.workload
        progress = wl.layout.scratch_addr(SCRATCH_PROGRESS)
        attempted = wl.node_count * wl.iterations
        failed = sum(max(0, wl.iterations - node.memory.read_word(progress))
                     for node in wl.system.nodes)
        wrong_pages = sum(1 for got, expected in zip(
            wl.final_shared_bytes(), wl.expected_stencil()) if got != expected)
        return attempted, failed + wrong_pages


WORKLOADS = {
    "pingpong": Pingpong,
    "storm": Storm,
    "dc_strided": DcStrided,
    "dsm_stencil": DsmStencil,
}
