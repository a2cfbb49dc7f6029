"""Folded polls are exact: :func:`repro.sim.poll.poll` resumes at the
tick, and in the same-instant order, that the unfolded loop reaches.

The reference is the unfolded loop itself, :func:`unfolded_poll`: a
sleep per tick, ``ready()`` tested at each one.  Two layers check
the helper against it:

- **Helper level.**  Pollers on one or more tick grids wait for a DRAM
  word or a signalled generation while scripted changes land between
  ticks and exactly on them -- from timed events scheduled before or
  after the tick was allocated (``sched`` = how long before landing the
  change was scheduled), and from posted events.  Both runs log every
  resume and change as ``(now, name)``; the logs and ``read_count``
  must match.  The smoke tests pin one case per loop shape; the
  ``slow`` property draws them at random.
- **Call-site level.**  The five runtime loops (``DsmRuntime.fault``,
  ``_push_page``'s drain wait, ``DsmBarrier.wait``, ``DsmLock.acquire``,
  ``ReliableChannel._sender_body``) run with the reference patched in
  place of the helper; the fingerprint, the clock and every node's
  ``read_count`` must match the folded run.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.dsm.runtime
import repro.dsm.sync
import repro.msg.reliable
from repro.ckpt.divergence import fingerprint
from repro.machine import ShrimpSystem
from repro.memsys import PhysicalMemory
from repro.msg.reliable import ReliableChannel
from repro.scenarios import build
from repro.sim import Process, Signal, Simulator
from repro.sim.poll import poll

WORD = 0x100
OTHER = 0x200


def unfolded_poll(sim, period, ready, deadline=None, at_deadline=False,
                  memory=None, reads=0, words=(), signals=()):
    """The loop :func:`poll` folds: one sleep per tick."""
    while True:
        step = period
        if at_deadline and deadline is not None and deadline - sim.now < step:
            step = max(1, deadline - sim.now)
        yield step
        if deadline is not None and sim.now >= deadline:
            return
        if memory is None:
            if ready():
                return
            continue
        count = memory.read_count
        done = ready()
        memory.read_count = count + (0 if done else reads)
        if done:
            return


# -- helper level ---------------------------------------------------------------


def _run(wait, pollers, changes, rounds=3, horizon=None):
    """Run ``pollers`` -- ``(origin, period, deadline_after, at_deadline,
    word)`` -- through ``rounds`` waits each, with ``changes`` --
    ``(at, sched, kind, value)`` -- applied; return the log and the read
    count.

    Round ``r`` of a poller is ready once its word reaches ``r + 1`` or
    the generation passes ``r``.  ``kind`` is ``"word"`` (``write_word``
    of ``value`` to WORD), ``"words"`` (a ``write_words`` covering both
    words), ``"other"`` (a write next to WORD), ``"gen"`` (bump the
    generation and fire its signal) or ``"post"`` (a ``word`` change
    posted from an event at ``at``).
    """
    sim = Simulator()
    memory = PhysicalMemory(4096)
    gen_signal = Signal(sim, "gen")
    state = {"gen": 0}
    log = []

    def poller(name, period, deadline_after, at_deadline, word):
        for r in range(rounds):
            def ready():
                return memory.read_word(word) >= r + 1 or state["gen"] > r

            deadline = (None if deadline_after is None
                        else sim.now + deadline_after)
            yield from wait(sim, period, ready, deadline, at_deadline,
                            memory=memory, reads=1, words=(word,),
                            signals=(gen_signal,))
            memory.read_word(word)  # the caller's own read at the tick
            log.append((sim.now, name, r))

    def apply(index, kind, value):
        log.append((sim.now, "change", index))
        if kind in ("word", "post"):
            memory.write_word(WORD, value)
        elif kind == "words":
            memory.write_words(WORD, [value, value])
        elif kind == "other":
            memory.write_word(WORD + 4, value)
        else:
            state["gen"] += 1
            gen_signal.fire()

    for index, (origin, period, deadline_after, at_deadline, word) in \
            enumerate(pollers):
        Process(sim, poller("p%d" % index, period, deadline_after,
                            at_deadline, word), "p%d" % index).start(origin)
    for index, (at, sched, kind, value) in enumerate(changes):
        if kind == "post":
            sim.schedule_at(at, sim.post, apply, index, kind, value)
        else:
            sim.schedule_at(max(0, at - sched), lambda i=index, a=at, k=kind,
                            v=value: sim.schedule_at(a, apply, i, k, v))
    if horizon is not None:
        # Paused mid-poll: the captured read count is already exact.
        sim.run(until=horizon)
        log.append((sim.now, "paused", memory.ckpt_capture()["read_count"]))
    sim.run(max_events=200_000)
    return log, memory.read_count


def _check(pollers, changes, rounds=3, horizon=None):
    folded = _run(poll, pollers, changes, rounds, horizon)
    unfolded = _run(unfolded_poll, pollers, changes, rounds, horizon)
    assert folded == unfolded
    return folded


def test_dsm_form_change_on_a_tick_from_early_late_and_posted_events():
    """Ticks at 10 + 40k.  Changes land exactly on ticks 90, 130 and 170:
    scheduled 100 ns ahead (before the tick was allocated, so the tick
    sees it), 10 ns ahead (after: the next tick sees it) and posted."""
    log, _ = _check([(10, 40, None, False, WORD)],
                    [(90, 100, "word", 1), (130, 10, "word", 2),
                     (170, 0, "post", 3)])
    resumes = [entry for entry in log if entry[1] == "p0"]
    assert resumes == [(90, "p0", 0), (170, "p0", 1), (210, "p0", 2)]


def test_change_scheduled_exactly_one_period_ahead_ties_by_sequence():
    """A change scheduled at the previous tick's instant: before that
    tick ran (a timer set at 0) or after it (set from an event at 50)."""
    _check([(10, 40, None, False, WORD)],
           [(90, 40, "word", 1), (130, 40, "word", 2), (170, 40, "word", 3)])


def test_deadline_ends_at_the_first_tick_at_or_after_it():
    log, reads = _check([(0, 40, 100, False, WORD)], [], rounds=2)
    assert [entry[0] for entry in log] == [120, 240]
    assert reads == 2 * 3  # two slept-through ticks and the caller's read


def test_clamped_deadline_is_the_last_tick():
    log, _ = _check([(0, 40, 100, True, WORD)], [(230, 5, "word", 3)],
                    rounds=3)
    assert [entry[0] for entry in log if entry[1] == "p0"] == [100, 200, 240]


def test_writes_that_leave_ready_false_change_nothing():
    """A write of 0, a neighbouring word and an undone change all keep
    the poll asleep (or re-park it) exactly like idle ticks."""
    _check([(0, 30, None, False, WORD)],
           [(45, 1, "word", 0), (61, 1, "other", 9), (75, 1, "word", 1),
            (80, 1, "word", 0), (200, 1, "words", 1), (400, 1, "word", 3)])


def test_several_pollers_share_one_grid_and_a_second_grid():
    _check([(0, 25, None, False, WORD), (0, 25, 300, False, WORD),
            (5, 25, 170, True, OTHER), (0, 50, None, False, WORD)],
           [(50, 50, "word", 1), (100, 3, "words", 2), (150, 0, "post", 3),
            (175, 200, "gen", 0), (250, 25, "gen", 0), (325, 1, "gen", 0)])


def test_generation_signal_wakes_at_the_next_tick():
    log, _ = _check([(0, 40, None, False, OTHER)],
                    [(60, 5, "gen", 0), (120, 40, "gen", 0),
                     (200, 0, "gen", 0)])
    assert [entry[0] for entry in log if entry[1] == "p0"] == [80, 120, 240]


def test_capture_mid_poll_charges_the_slept_through_reads():
    """A capture while paused mid-poll (``run(until)`` on a tick) sees
    the read count the unfolded loop has."""
    _check([(0, 40, None, False, WORD)], [(500, 1, "word", 3)],
           horizon=250)


def test_kill_mid_poll_leaves_no_watch_and_no_marker():
    sim = Simulator()
    memory = PhysicalMemory(4096)
    signal = Signal(sim, "s")

    def waiter():
        yield from poll(sim, 40, lambda: memory.read_word(WORD) != 0, 1000,
                        memory=memory, reads=2, words=(WORD,),
                        signals=(signal,))

    process = Process(sim, waiter(), "w").start()
    sim.run(until=130)
    process.kill()
    assert memory._watches == {} and signal._watchers is None
    assert memory._settlers == () and sim.peek() is None
    assert memory.read_count == 2 * 3  # ticks 40, 80 and 120
    memory.write_word(WORD, 1)
    signal.fire()
    assert sim.run() == 0


def test_interrupt_mid_poll_propagates_and_unwatches():
    sim = Simulator()
    memory = PhysicalMemory(4096)
    seen = []

    def waiter():
        try:
            yield from poll(sim, 40, lambda: False, memory=memory,
                            words=(WORD,))
        except Exception as exc:  # the Interrupt thrown at the park
            seen.append((sim.now, type(exc).__name__))

    process = Process(sim, waiter(), "w").start()
    sim.schedule(90, process.interrupt)
    sim.run()
    assert seen == [(90, "Interrupt")]
    assert memory._watches == {}


def test_runaway_guard_bounds_a_poll_that_never_wakes():
    sim = Simulator()

    def waiter():
        yield from poll(sim, 10, lambda: False)

    Process(sim, waiter(), "w").start()
    with pytest.raises(Exception, match="max_events"):
        sim.run(max_events=50)


_PERIODS = st.integers(min_value=1, max_value=60)


@st.composite
def _cases(draw):
    pollers = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=80), _PERIODS,
                  st.one_of(st.none(), st.integers(min_value=-10,
                                                   max_value=400)),
                  st.booleans(), st.sampled_from([WORD, OTHER])),
        min_size=1, max_size=4))
    # Changes land on the first poller's grid about half the time.
    origin, period = pollers[0][0], pollers[0][1]
    on_tick = st.builds(lambda k: origin + k * period,
                        st.integers(min_value=1, max_value=12))
    changes = draw(st.lists(
        st.tuples(st.one_of(on_tick, st.integers(min_value=0, max_value=700)),
                  st.one_of(st.just(period), st.integers(min_value=0,
                                                         max_value=150)),
                  st.sampled_from(["word", "words", "other", "gen", "post"]),
                  st.integers(min_value=0, max_value=4)),
        max_size=10))
    # Three final generation bumps end every poller's rounds.
    return pollers, changes + [(1000, 0, "gen", 0)] * 3


@pytest.mark.slow
@given(_cases())
@settings(max_examples=200, deadline=None)
def test_folded_poll_matches_the_unfolded_loop(case):
    pollers, changes = case
    _check(pollers, changes)


# -- call-site level ----------------------------------------------------------

_CALL_SITES = (repro.dsm.runtime, repro.dsm.sync, repro.msg.reliable)


def _observe(system):
    return (fingerprint(system),
            [node.memory.read_count for node in system.nodes])


def _both(monkeypatch, make):
    """``make()`` run folded, then with the unfolded reference patched
    into every call site; both observations."""
    folded = _observe(make())
    with monkeypatch.context() as patch:
        for module in _CALL_SITES:
            patch.setattr(module, "poll", unfolded_poll)
        unfolded = _observe(make())
    return folded, unfolded


def _scenario(name, **kwargs):
    def make():
        system = build(name, **kwargs)
        system.run(max_events=2_000_000)
        return system
    return make


@pytest.mark.parametrize("name,kwargs", [
    ("dsm", {"kind": "homecrash", "iterations": 1}),  # barrier, lock, fault
    ("dsm_homecrash", {}),  # lease expiry, replay, rebuild, crash
    ("fault_storm", {}),  # retransmits under link flaps
    ("workload", {"seed": 2}),  # many channels, doorbell parks
])
def test_call_sites_match_the_unfolded_loops(monkeypatch, name, kwargs):
    folded, unfolded = _both(monkeypatch, _scenario(name, **kwargs))
    assert folded[0]["event_count"] < unfolded[0]["event_count"]
    folded[0].pop("event_count")
    unfolded[0].pop("event_count")
    assert folded == unfolded


def test_send_during_a_resend_pass_is_not_missed(monkeypatch):
    """Frames appended while the sender is inside a go-back-N resend
    pass (its poll not yet parked) go out at the next tick, folded or
    not.  The receiver's first frames are dropped so a resend happens."""
    def make():
        system = ShrimpSystem(2, 1)
        system.start()
        channel = ReliableChannel(system, 0, 1, src_base=0x10000,
                                  dest_base=0x40000, window_slots=2,
                                  retransmit_timeout_ns=4_000)
        for word in range(4):
            channel.send([word])
        memory = system.nodes[1].memory
        sim = system.sim

        def meddle():
            # Stall acks by wiping the receiver's ring head as frames
            # land, then append frames while the resends are in flight.
            for step in range(12):
                yield 1_500
                memory.write_word(0x40000, 0)
                if step in (3, 5, 6):
                    channel.send([100 + step])
            channel.close()

        Process(sim, meddle(), "meddle").start()
        channel.start()
        system.run(max_events=500_000)
        assert channel.complete and channel.retransmits.value > 0
        return system

    folded, unfolded = _both(monkeypatch, make)
    assert folded[0]["now"] == unfolded[0]["now"]
    assert folded[1] == unfolded[1]
    folded[0].pop("event_count")
    unfolded[0].pop("event_count")
    assert folded == unfolded


def test_safepoint_refuses_a_parked_poll():
    """A system checkpoint cannot describe a parked poll: its marker is
    a live entry that classify_entries refuses by name."""
    from repro.ckpt.safepoint import check_safepoint

    system = ShrimpSystem(2, 1)
    system.start()

    def waiter():
        yield from poll(system.sim, 400, lambda: False)

    Process(system.sim, waiter(), "parked").start()
    system.run(until=1_000)
    assert "Poll(parked" in check_safepoint(system)


def test_restore_wakes_a_polling_sender_but_not_an_idle_one():
    """node_restored rings the doorbell only for a sender polling its
    ack word: a sender parked idle on the doorbell sleeps on (as it did
    before polls folded) until the next send()."""
    system = ShrimpSystem(2, 1)
    system.start()
    channel = ReliableChannel(system, 0, 1, src_base=0x10000,
                              dest_base=0x40000)
    channel.send([1])
    channel.send([2])
    channel.start()
    system.run(max_events=100_000)
    assert channel.base == 2 and channel._doorbell.waiter_count == 1
    # Roll the receiver back one frame, as a node restore would.
    system.nodes[1].memory.write_word(channel.layout.state_addr, 1)
    channel.node_restored(1)
    system.run(max_events=100_000)
    assert channel.retransmits.value == 0
    assert channel._doorbell.waiter_count == 1
    channel.send([3])
    system.run(max_events=100_000)
    assert channel.retransmits.value == 1
    assert [seq for seq, _ in channel.delivered] == [0, 1, 2]
