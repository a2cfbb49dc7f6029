"""Unit tests for generator processes, signals, timeouts and interrupts.

A process yields what it waits for: an ``int`` (sleep that many ns), a
``Signal``, a ``Process`` (join) or a ``Poll``.
"""

import pytest

from repro.sim import Simulator, SimulationError, Process, Signal, Interrupt
from repro.sim.poll import poll


def spawn(sim, gen, name="p"):
    return Process(sim, gen, name).start()


def test_timeout_advances_time():
    sim = Simulator()
    log = []

    def proc():
        yield 100
        log.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert log == [100]


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    log = []

    def proc():
        yield 10
        log.append(sim.now)
        yield 20
        log.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert log == [10, 30]


def test_negative_timeout_rejected():
    # Simulator.schedule refuses the delay at the instant of the yield.
    sim = Simulator()
    log = []

    def proc():
        yield 30
        log.append(sim.now)
        yield -5
        log.append("resumed")  # pragma: no cover

    spawn(sim, proc())
    with pytest.raises(SimulationError, match="past"):
        sim.run()
    assert log == [30]
    assert sim.now == 30


def test_int_requests_resume_in_schedule_order():
    """A yielded delay takes its sequence number at the yield, exactly as
    a ``schedule`` call made at that point would."""
    sim = Simulator()
    log = []

    def sleeper(name, delay):
        yield delay
        log.append((sim.now, name))

    def marker(name, delay):
        sim.schedule(delay, lambda: log.append((sim.now, name)))

    for i, delay in enumerate((5, 0, 5, 0)):
        spawn(sim, sleeper("p%d" % i, delay))
        sim.schedule(0, marker, "s%d" % i, delay)
    sim.run()
    assert log == [(0, "p1"), (0, "s1"), (0, "p3"), (0, "s3"),
                   (5, "p0"), (5, "s0"), (5, "p2"), (5, "s2")]


def test_each_request_kind_resumes_with_its_value():
    sim = Simulator()
    sig = Signal(sim, "s")
    wake = Signal(sim, "wake")
    state = {"ready": False}
    log = []

    def child():
        yield 7
        return "joined"

    def ready_at_43():
        state["ready"] = True
        wake.fire()

    def proc():
        log.append(("int", (yield 10), sim.now))
        log.append(("signal", (yield sig), sim.now))
        log.append(("process", (yield spawn(sim, child(), "child")), sim.now))
        sim.schedule(13, ready_at_43)
        yield from poll(sim, 10, lambda: state["ready"], signals=(wake,))
        log.append(("poll", sim.now))

    spawn(sim, proc())
    sim.schedule(20, sig.fire, "fired")
    sim.run()
    assert log == [("int", None, 10), ("signal", "fired", 20),
                   ("process", "joined", 27), ("poll", 47)]


@pytest.mark.parametrize("request_", [True, 1.5, "x"])
def test_non_int_delay_raises_type_error(request_):
    sim = Simulator()

    def proc():
        yield request_

    spawn(sim, proc())
    with pytest.raises(TypeError, match="unsupported request"):
        sim.run()


def test_process_result_recorded():
    sim = Simulator()

    def proc():
        yield 1
        return 42

    p = spawn(sim, proc())
    sim.run()
    assert p.finished
    assert p.result == 42


def test_signal_wakes_waiter_with_value():
    sim = Simulator()
    got = []
    sig = Signal(sim, "s")

    def waiter():
        value = yield sig
        got.append(value)

    spawn(sim, waiter())

    def firer():
        yield 50
        sig.fire("hello")

    spawn(sim, firer())
    sim.run()
    assert got == ["hello"]


def test_signal_shorthand_yield():
    sim = Simulator()
    got = []
    sig = Signal(sim, "s")

    def waiter():
        value = yield sig
        got.append(value)

    spawn(sim, waiter())
    sim.schedule(10, sig.fire, 7)
    sim.run()
    assert got == [7]


def test_signal_broadcasts_to_all_waiters():
    sim = Simulator()
    got = []
    sig = Signal(sim, "s")

    def waiter(i):
        value = yield sig
        got.append((i, value))

    for i in range(3):
        spawn(sim, waiter(i))
    sim.schedule(5, sig.fire, "x")
    sim.run()
    assert sorted(got) == [(0, "x"), (1, "x"), (2, "x")]


def test_signal_does_not_buffer():
    sim = Simulator()
    got = []
    sig = Signal(sim, "s")
    sig.fire("lost")  # nobody waiting: value is dropped

    def waiter():
        value = yield sig
        got.append(value)

    spawn(sim, waiter())
    sim.schedule(5, sig.fire, "kept")
    sim.run()
    assert got == ["kept"]


def test_join_returns_child_result():
    sim = Simulator()
    log = []

    def child():
        yield 30
        return "done"

    def parent(c):
        result = yield c
        log.append((sim.now, result))

    c = spawn(sim, child(), "child")
    spawn(sim, parent(c), "parent")
    sim.run()
    assert log == [(30, "done")]


def test_join_already_finished_process():
    sim = Simulator()
    log = []

    def child():
        return "early"
        yield  # pragma: no cover

    def parent(c):
        result = yield c
        log.append(result)

    c = spawn(sim, child())

    def late_parent():
        yield 100
        result = yield c
        log.append(result)

    spawn(sim, late_parent())
    sim.run()
    assert log == ["early"]


def test_double_start_rejected():
    sim = Simulator()

    def proc():
        yield 1

    p = spawn(sim, proc())
    with pytest.raises(RuntimeError):
        p.start()


def test_yield_bad_request_raises():
    sim = Simulator()

    def proc():
        yield "not a request"

    spawn(sim, proc())
    with pytest.raises(TypeError):
        sim.run()


def test_interrupt_during_timeout():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 1000
            log.append("slept")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, sim.now))

    p = spawn(sim, sleeper())
    sim.schedule(100, p.interrupt, "alarm")
    sim.run()
    assert log == [("interrupted", "alarm", 100)]
    # The cancelled timeout must not resume the process later.
    assert sim.now == 100 or sim.peek() is None


def test_interrupt_during_signal_wait_removes_waiter():
    sim = Simulator()
    sig = Signal(sim, "s")
    log = []

    def waiter():
        try:
            yield sig
            log.append("woke")
        except Interrupt:
            log.append("interrupted")

    p = spawn(sim, waiter())
    sim.schedule(10, p.interrupt)
    sim.schedule(20, sig.fire)
    sim.run()
    assert log == ["interrupted"]
    assert sig.waiter_count == 0


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def proc():
        yield 1

    p = spawn(sim, proc())
    sim.run()
    p.interrupt()  # must not raise
    sim.run()


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def worker():
        while True:
            try:
                yield 100
                log.append(("tick", sim.now))
                if sim.now >= 300:
                    return
            except Interrupt:
                log.append(("intr", sim.now))

    p = spawn(sim, worker())
    sim.schedule(50, p.interrupt)
    sim.run()
    assert ("intr", 50) in log
    assert log[-1] == ("tick", 350)  # timeout restarted after interrupt


def test_exception_in_process_propagates():
    sim = Simulator()

    def proc():
        yield 5
        raise RuntimeError("process blew up")

    spawn(sim, proc())
    with pytest.raises(RuntimeError, match="blew up"):
        sim.run()
