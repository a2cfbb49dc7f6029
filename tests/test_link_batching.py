"""Property tests: the run-length link is equivalent to the per-flit model.

`repro.mesh.link.Link` transfers bursts of flits with one timed event per
chunk, keeping them as runs stamped with the simulated times their
individual transfers would have completed.  These tests pit it against an inline reference link
that does exactly what the pre-batching implementation did -- one
sleep plus a blocking bounded-queue put per flit -- under randomised
consumer backpressure, and require identical delivery order *and identical
delivery times*, with buffer capacity respected throughout.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.link import Link
from repro.sim import Simulator
from repro.sim.process import Process
from repro.sim.resources import BoundedQueue

FLIT_NS = 10
WORM = object()  # the packet a worm carries; these tests only count flits


class _Params:
    def __init__(self, capacity):
        self.input_buffer_flits = capacity
        self.link_flit_ns = FLIT_NS


class _RefLink:
    """The per-flit reference: transfer time, then a blocking put."""

    def __init__(self, sim, params):
        self.params = params
        self._buffer = BoundedQueue(sim, capacity=params.input_buffer_flits)

    def send(self, flit):
        yield self.params.link_flit_ns
        yield from self._buffer.put(flit)

    def send_burst(self, worm, count):
        for index in range(count):
            yield from self.send((worm, index))

    def receive(self):
        flit = yield from self._buffer.get()
        return flit


def _run_eager_consumer(link_cls, n_flits, think_times, capacity):
    """Producer bursts n flits; consumer takes each, then thinks.

    Returns [(delivery_time, flit index), ...] in delivery order.
    """
    sim = Simulator()
    link = link_cls(sim, _Params(capacity))
    log = []

    def produce():
        yield from link.send_burst(WORM, n_flits)

    def consume():
        for i in range(n_flits):
            worm, index = yield from link.receive()
            assert worm is WORM
            if isinstance(link, Link):
                assert link.occupancy <= capacity
                assert link.free_slots() >= 0
            log.append((sim.now, index))
            if think_times[i]:
                yield think_times[i]

    Process(sim, produce(), "producer").start()
    Process(sim, consume(), "consumer").start()
    sim.run_until_idle()
    return log


@pytest.mark.slow
@settings(deadline=None, max_examples=80)
@given(
    n_flits=st.integers(min_value=1, max_value=40),
    capacity=st.integers(min_value=1, max_value=6),
    think_seed=st.lists(st.integers(min_value=0, max_value=50), min_size=40,
                        max_size=40),
)
def test_burst_matches_per_flit_model_under_backpressure(
    n_flits, capacity, think_seed
):
    think_times = think_seed[:n_flits]
    got = _run_eager_consumer(Link, n_flits, think_times, capacity)
    ref = _run_eager_consumer(_RefLink, n_flits, think_times, capacity)
    assert [flit for _, flit in got] == list(range(n_flits))  # FIFO order
    assert got == ref  # identical delivery times, flit by flit


@pytest.mark.slow
@settings(deadline=None, max_examples=60)
@given(
    n_flits=st.integers(min_value=2, max_value=36),
    capacity=st.integers(min_value=1, max_value=5),
    service_seed=st.lists(st.integers(min_value=0, max_value=120), min_size=36,
                          max_size=36),
)
def test_consume_ahead_reader_does_not_loosen_backpressure(
    n_flits, capacity, service_seed
):
    """A consume-ahead reader must not let the writer run ahead of the model.

    The reference reader pops one flit at a time, then is busy for that
    flit's service time before popping the next.  The batching reader
    (the pattern the ejection path and router forwarding use) consumes
    every buffered run at once with ``Link.take``, which reads each flit
    when the reference reader would have popped it -- ``max(arrival
    stamp, reader free)`` -- and declares the slot free then.  Delivery order,
    delivery times, and writer progress must match the per-flit
    reference exactly: a slot consumed ahead of time stays counted
    against capacity until the reference reader would have freed it.
    """
    services = service_seed[:n_flits]

    # Reference: per-flit reader; pop each flit, then service it.
    ref = _run_eager_consumer(_RefLink, n_flits, services, capacity)

    sim = Simulator()
    link = Link(sim, _Params(capacity))
    arrivals = []

    def produce():
        yield from link.send_burst(WORM, n_flits)

    def consume():
        taken = 0
        while taken < n_flits:
            if not link.runs:
                _, index = yield from link.receive()  # pops at the arrival stamp
                arrivals.append((sim.now, index))
                assert link.free_slots() >= 0
                service = services[taken]
                taken += 1
                if service:
                    yield service
                continue
            # Replay the reference reader's pop schedule for every
            # buffered run: each flit popped once both it and the reader
            # are ready, the reader busy for its service time afterwards.
            reader_free = sim.now
            while link.runs:
                _, index, pop_at = link.take(reader_free)
                arrivals.append((pop_at, index))
                reader_free = pop_at + services[taken]
                taken += 1
            assert link.free_slots() >= 0
            if reader_free > sim.now:
                yield reader_free - sim.now

    Process(sim, produce(), "producer").start()
    Process(sim, consume(), "consumer").start()
    sim.run_until_idle()

    assert [flit for _, flit in arrivals] == list(range(n_flits))  # FIFO order
    assert arrivals == ref  # identical pop times, flit by flit
