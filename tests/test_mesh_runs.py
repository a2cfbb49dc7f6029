"""The run-length mesh against the per-flit model it replaces.

`repro.mesh` keeps link buffers as runs and forwards them in closed form,
and a router hands its output port over at the tail's landing time
instead of sleeping until then.  These tests hold that machinery to:

- a per-flit reference chain of routers -- a sleep plus a blocking
  put for every flit on every hop -- flit for flit and nanosecond for
  nanosecond, under ejection backpressure and a link flap;
- the router stall instants of the per-flit router;
- checkpoints captured in the per-flit link's format.
"""

from collections import deque, namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.memsys.params import MeshParams
from repro.mesh import Backplane, Packet
from repro.mesh.link import Link
from repro.mesh.topology import EAST, WEST
from repro.sim import Mutex, Process, Simulator
from repro.sim.process import Signal

FLIT_NS = 10
HOP_NS = 40

#: One flit of the per-flit reference: head is index 0, tail the last.
_Flit = namedtuple("_Flit", "packet index is_head is_tail")


def _flits(packet, flit_bytes):
    count = packet.flit_count(flit_bytes)
    return [_Flit(packet, index, index == 0, index == count - 1)
            for index in range(count)]


# -- the per-flit reference --------------------------------------------------


class _RefLink:
    """Per-flit reference link: transfer time, then a blocking put that
    also waits out a pulled cable."""

    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = capacity
        self.items = deque()
        self.changed = Signal(sim, "ref.changed")
        self.down = False
        self.spans = []  # [first transfer start, last landing] per worm

    def send(self, flit):
        if flit.is_head:
            self.spans.append([self.sim.now, None])
        yield FLIT_NS
        while self.down or len(self.items) >= self.capacity:
            yield self.changed
        self.items.append(flit)
        self.changed.fire()
        if flit.is_tail:
            self.spans[-1][1] = self.sim.now

    def receive(self):
        while not self.items:
            yield self.changed
        flit = self.items.popleft()
        self.changed.fire()
        return flit

    def set_down(self, down):
        self.down = down
        if not down:
            self.changed.fire()


def _ref_router(in_link, out_link):
    while True:
        flit = yield from in_link.receive()
        assert flit.is_head
        yield HOP_NS
        yield from out_link.send(flit)
        while not flit.is_tail:
            flit = yield from in_link.receive()
            yield from out_link.send(flit)


def _packets(hops, words, flit_bytes):
    return [Packet((0, 0), (hops - 1, 0), 0x1000 * (i + 1), list(range(n)))
            for i, n in enumerate(words)]


def _run_reference(hops, capacity, flit_bytes, words, gaps, thinks, flap):
    """Per-flit chain: NIC -> router 0 -> ... -> router hops-1 -> reader."""
    sim = Simulator()
    links = [_RefLink(sim, capacity) for _ in range(hops + 1)]
    for k in range(hops):
        Process(sim, _ref_router(links[k], links[k + 1]), "ref%d" % k).start()
    log = []

    def sender():
        for i, packet in enumerate(_packets(hops, words, flit_bytes)):
            for flit in _flits(packet, flit_bytes):
                yield from links[0].send(flit)
            log.append(("sent", i, sim.now))
            yield gaps[i]

    def reader():
        for i in range(len(words)):
            while True:
                flit = yield from links[-1].receive()
                log.append(("flit", i, flit.index, sim.now))
                if flit.is_tail:
                    break
            yield thinks[i]

    Process(sim, sender(), "sender").start()
    Process(sim, reader(), "reader").start()
    if flap is not None:
        which, down_at, up_at = flap
        sim.schedule(down_at, links[which].set_down, True)
        sim.schedule(up_at, links[which].set_down, False)
    sim.run_until_idle()
    return log, links


def _run_mesh(hops, capacity, flit_bytes, words, gaps, thinks, flap,
              per_packet):
    params = MeshParams(flit_bytes=flit_bytes, link_flit_ns=FLIT_NS,
                        router_hop_ns=HOP_NS, input_buffer_flits=capacity)
    sim = Simulator()
    mesh = Backplane(sim, params, hops, 1)
    mesh.start()
    dest = hops - 1
    log = []

    def sender():
        for i, packet in enumerate(_packets(hops, words, flit_bytes)):
            yield from mesh.inject(0, packet)
            log.append(("sent", i, sim.now))
            yield gaps[i]

    def reader():
        link = mesh.ejection_link(dest)
        for i in range(len(words)):
            if per_packet:
                packet = yield from mesh.receive_packet(dest)
                log.append(("flit", i, packet.flit_count(flit_bytes) - 1,
                            sim.now))
            else:
                while True:
                    packet, index = yield from link.receive()
                    log.append(("flit", i, index, sim.now))
                    if index == packet.flit_count(flit_bytes) - 1:
                        break
            yield thinks[i]

    Process(sim, sender(), "sender").start()
    Process(sim, reader(), "reader").start()
    if flap is not None:
        which, down_at, up_at = flap
        link = (mesh.injection_link(0) if which == 0
                else mesh.routers[(0, 0)].outputs[EAST].link)
        sim.schedule(down_at, link.set_down, True)
        sim.schedule(up_at, link.set_down, False)
    sim.run_until_idle()
    return log


def _idle_instants(spans, horizon):
    """Instants strictly between worms on a reference link: no flit in
    flight and none placed ahead, so pulling the cable there means the
    same thing to a per-flit writer and to a run-placing one."""
    idle = []
    start = 0
    for first, last in spans:
        idle.extend(range(start, first))
        start = last + 1
    idle.extend(range(start, horizon))
    return idle


@pytest.mark.slow
@settings(deadline=None, max_examples=200)
@given(
    hops=st.sampled_from([2, 3]),
    capacity=st.integers(min_value=2, max_value=5),
    flit_bytes=st.sampled_from([4, 8, 32]),
    raw_words=st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                       max_size=5),
    gap_seed=st.lists(st.integers(min_value=0, max_value=300), min_size=5,
                      max_size=5),
    think_seed=st.lists(st.integers(min_value=0, max_value=200), min_size=5,
                        max_size=5),
    flap_link=st.sampled_from([0, 1]),
    flap_pick=st.integers(min_value=0, max_value=10**6),
    flap_ns=st.integers(min_value=1, max_value=400),
    per_packet=st.booleans(),
)
def test_multi_hop_chain_matches_per_flit_routers(
    hops, capacity, flit_bytes, raw_words, gap_seed, think_seed, flap_link,
    flap_pick, flap_ns, per_packet,
):
    # Worms from one flit up to three buffers long.
    max_words = max(1, (3 * capacity * flit_bytes - 18) // 4)
    words = [min(n, max_words) for n in raw_words]
    count = len(words)
    gaps, thinks = gap_seed[:count], think_seed[:count]

    _, links = _run_reference(hops, capacity, flit_bytes, words, gaps,
                              thinks, None)
    idle = _idle_instants(links[flap_link].spans,
                          links[flap_link].spans[-1][1] + 200)
    down_at = idle[flap_pick % len(idle)]
    flap = (flap_link, down_at, down_at + flap_ns)

    ref, _ = _run_reference(hops, capacity, flit_bytes, words, gaps, thinks,
                            flap)
    if per_packet:  # receive_packet reports only each tail's arrival
        tails = [packet.flit_count(flit_bytes) - 1
                 for packet in _packets(hops, words, flit_bytes)]
        ref = [entry for entry in ref
               if entry[0] == "sent" or entry[2] == tails[entry[1]]]
    got = _run_mesh(hops, capacity, flit_bytes, words, gaps, thinks, flap,
                    per_packet)
    # Same-instant log entries of the sender and the reader may land in
    # either order; each entry carries its own time.
    assert sorted(got) == sorted(ref)


# -- router stalls -----------------------------------------------------------


def _stall_run(words, gaps, stall_at, resume_at, probes=()):
    """3x1 mesh, node 0 -> node 2 through router (1,0), which stalls.

    Returns the delivery log and, per probe instant, whether the west
    input process of router (1,0) was parked on the stall and how many
    flits had moved into its input buffer.
    """
    sim = Simulator()
    mesh = Backplane(sim, MeshParams(), 3, 1)
    mesh.start()
    router = mesh.routers[(1, 0)]
    west = next(p for p in router.processes if p.name.endswith(".west"))
    west_link = router.inputs[WEST]
    log = []

    def sender():
        for i, n in enumerate(words):
            yield from mesh.inject(
                0, Packet((0, 0), (2, 0), 0x1000 * (i + 1), list(range(n))))
            if gaps[i]:
                yield gaps[i]

    def receiver():
        for _ in words:
            packet = yield from mesh.receive_packet(2)
            log.append((sim.now, packet.dest_addr))

    Process(sim, sender(), "sender").start()
    Process(sim, receiver(), "receiver").start()
    sim.schedule(stall_at, router.stall)
    sim.schedule(resume_at, router.resume)
    parked = []
    for probe in probes:
        sim.run(until=probe)
        parked.append((west._waiting_on is router._resume_signal,
                       west_link.flits_moved.value))
    sim.run_until_idle()
    return log, parked


def test_stall_while_tail_lands_parks_next_head_at_the_landing():
    # Router (1,0) finishes forwarding the first worm at t=160 but its
    # tail only lands at t=590; the second head is buffered by then.
    # Stalling at t=300 must park that head at t=590 -- where the
    # per-flit router, asleep until the landing, checks for a stall --
    # and route it hop_ns after the resume.  The parked head keeps its
    # input slot until then, so only one more flit (the third worm's
    # head) gets in.  Figures from the per-flit router.
    log, parked = _stall_run((20, 3, 9), (0, 0, 0), 300, 800,
                             probes=(589, 591, 799))
    assert parked == [(False, 64), (True, 64), (True, 65)]
    assert log == [(640, 0x1000), (1040, 0x2000), (1350, 0x3000)]


def test_stall_at_late_head_stamp_parks_it_there():
    # The second worm arrives long after the first's tail landed: the
    # input process is idle, so the per-flit router checks for a stall
    # only once the head's stamp matures (t=1150).
    log, parked = _stall_run((20, 3, 9), (600, 40, 0), 1100, 1400,
                             probes=(1149, 1151))
    assert parked == [(False, 64), (True, 64)]
    assert log == [(640, 0x1000), (1640, 0x2000), (1950, 0x3000)]


# -- the timed port hand-off -------------------------------------------------


def test_release_at_grants_in_fifo_ticket_order():
    sim = Simulator()
    mutex = Mutex(sim, "port")
    grants = []

    def holder():
        yield from mutex.acquire("a")
        grants.append(("a", sim.now))
        yield 10
        mutex.release_at(100)  # the port stays held until t=100

    def contender(name, arrive, hold):
        yield arrive
        yield from mutex.acquire(name)
        grants.append((name, sim.now))
        yield hold
        mutex.release()

    Process(sim, holder(), "a").start()
    Process(sim, contender("b", 5, 30), "b").start()  # parked before
    Process(sim, contender("c", 8, 0), "c").start()  # parked before
    Process(sim, contender("d", 50, 0), "d").start()  # arrives in between

    sim.run(until=60)
    assert mutex.locked  # released only at t=100
    sim.run_until_idle()
    assert grants == [("a", 0), ("b", 100), ("c", 130), ("d", 130)]
    assert not mutex.locked


def test_release_at_without_waiters_holds_until_then():
    sim = Simulator()
    mutex = Mutex(sim, "port")
    grants = []

    def holder():
        yield from mutex.acquire("a")
        mutex.release_at(70)

    def late(arrive):
        yield arrive
        yield from mutex.acquire(arrive)
        grants.append((arrive, sim.now))
        mutex.release()

    Process(sim, holder(), "a").start()
    Process(sim, late(20), "early").start()
    Process(sim, late(90), "after").start()
    sim.run_until_idle()
    assert grants == [(20, 70), (90, 90)]


# -- checkpoint compatibility ------------------------------------------------

#: A busy link captured by the per-flit link (one record per flit, one
#: future-free time per consumed-ahead slot): 7 flits of a 1-word packet
#: buffered, 4 slots consumed ahead and freeing at 230..320, at t=210.
PER_FLIT_CAPTURE = {
    "packets": [{"src": [0, 0], "dest": [1, 0], "dest_addr": 4096,
                 "payload": [1], "kind": 0, "created_ns": 0, "crc": 48358,
                 "corrupted": False}],
    "entries": [[50, 0, 4, False, False], [60, 0, 5, False, False],
                [70, 0, 6, False, False], [80, 0, 7, False, False],
                [90, 0, 8, False, False], [100, 0, 9, False, False],
                [110, 0, 10, False, True]],
    "frees": [230, 260, 290, 320],
}


def test_per_flit_capture_restores_into_runs():
    params = MeshParams()
    sim = Simulator()
    sim.schedule(210, lambda: None)
    sim.run_until_idle()
    link = Link(sim, params, "probe")
    link.ckpt_restore(PER_FLIT_CAPTURE)
    assert link.ckpt_capture() == PER_FLIT_CAPTURE
    assert link.occupancy == 7
    assert link.free_slots() == 16 - 7 - 4

    # Resume as the per-flit link did: a 33-flit worm written in, read
    # out by a reader that spends 15 ns per flit.
    log = []
    packet = Packet((1, 1), (1, 0), 0x3000, list(range(12)))

    def writer():
        yield from link.send_burst(packet, packet.flit_count(params.flit_bytes))
        log.append(("written", sim.now))

    def reader():
        for _ in range(7 + 33):
            worm, index = yield from link.receive()
            log.append((sim.now, worm.dest_addr, index))
            yield 15

    Process(sim, writer(), "writer").start()
    Process(sim, reader(), "reader").start()
    sim.run_until_idle()
    expected = [(210 + 15 * k, 0x1000, 4 + k) for k in range(7)]
    expected += [(315 + 15 * k, 0x3000, k) for k in range(33)]
    assert [entry for entry in log if entry[0] != "written"] == expected
    assert ("written", 560) in log
