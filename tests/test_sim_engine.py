"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator, SimulationError


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 10


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(5, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(50, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(10, fired.append, "x")
    sim.schedule(5, ev.cancel)
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.schedule(10, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 30


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "a")
    sim.schedule(100, fired.append, "b")
    sim.run(until=50)
    assert fired == ["a"]
    assert sim.now == 50
    sim.run()
    assert fired == ["a", "b"]
    assert sim.now == 100


def test_run_until_includes_boundary_event():
    sim = Simulator()
    fired = []
    sim.schedule(50, fired.append, "edge")
    sim.run(until=50)
    assert fired == ["edge"]


def test_max_events_guard_raises():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_peek_skips_cancelled():
    sim = Simulator()
    ev = sim.schedule(5, lambda: None)
    sim.schedule(10, lambda: None)
    ev.cancel()
    assert sim.peek() == 10


def test_peek_empty_is_none():
    sim = Simulator()
    assert sim.peek() is None


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_event_count_increments():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.event_count == 5


def test_exception_in_callback_propagates():
    sim = Simulator()

    def boom():
        raise ValueError("boom")

    sim.schedule(1, boom)
    with pytest.raises(ValueError):
        sim.run()


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(7, lambda: sim.schedule(0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [7]


def test_run_until_advances_clock_on_empty_queue():
    # Regression: run(until=T) on an empty queue used to leave now at 0.
    sim = Simulator()
    sim.run(until=100)
    assert sim.now == 100


def test_run_until_advances_clock_when_queue_drains_early():
    # Regression: the clock used to stop at the last event's time instead
    # of advancing to `until` when the queue drained before the horizon.
    sim = Simulator()
    fired = []
    sim.schedule(50, fired.append, "a")
    sim.run(until=100)
    assert fired == ["a"]
    assert sim.now == 100


def test_run_until_never_moves_clock_backwards():
    sim = Simulator()
    sim.schedule(80, lambda: None)
    sim.run()
    assert sim.now == 80
    sim.run(until=40)  # horizon already passed: no-op, clock stays put
    assert sim.now == 80


def test_run_until_drain_then_resume_orders_later_events():
    # After a drained bounded run advanced the clock, newly scheduled
    # events must land relative to the advanced time.
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.run(until=100)
    sim.schedule(5, fired.append, "late")
    sim.run()
    assert fired == ["early", "late"]
    assert sim.now == 105


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    ev = sim.schedule(10, fired.append, "x")
    sim.run()
    ev.cancel()  # event already fired; late cancel must not corrupt state
    assert fired == ["x"]
    assert ev.cancelled  # spent entries report as cancelled


def test_run_until_fires_bucket_event_at_boundary():
    # The tie case on the *bucket* path: an event scheduled with delay 0
    # at t == until (so it lands in the same-time bucket) must fire within
    # the same bounded run, matching the heap-path contract.
    sim = Simulator()
    fired = []
    sim.schedule(50, lambda: sim.schedule(0, fired.append, "bucket-edge"))
    sim.run(until=50)
    assert fired == ["bucket-edge"]
    assert sim.now == 50


def test_run_until_past_horizon_preserves_pending_bucket_events():
    # run(until < now) is a no-op for the clock, and any same-instant
    # events left in the bucket must survive (the first one migrates to
    # the heap) and still fire, in order, on the next unbounded run.  The
    # migrated entry is cancelled once in the heap and must stay dead.
    sim = Simulator()
    fired = []
    doomed = []

    def leave_bucket_pending():
        doomed.append(sim.schedule(0, fired.append, "dead"))
        sim.schedule(0, fired.append, "a")
        sim.schedule(0, fired.append, "b")
        raise _StopRun

    class _StopRun(Exception):
        pass

    sim.schedule(80, leave_bucket_pending)
    try:
        sim.run()
    except _StopRun:
        pass
    assert sim.now == 80
    sim.run(until=40)  # horizon already passed: clock stays put
    assert sim.now == 80
    assert not doomed[0].cancelled
    doomed[0].cancel()
    sim.run()
    assert fired == ["a", "b"]
    assert doomed[0].cancelled


def test_many_cancellations_lose_no_live_event():
    # Far more dead than live entries: the dead ones are skipped as they
    # come due, and every live one still fires in order.
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(10_000 + i, fired.append, "dead") for i in range(2000)]
    sim.schedule(20_001, fired.append, "live")
    for ev in doomed:
        ev.cancel()
    sim.schedule(30_000, fired.append, "tail")
    sim.run()
    assert fired == ["live", "tail"]
    assert sim.now == 30_000
