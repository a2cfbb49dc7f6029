"""Fetch-on-fault DSM (:mod:`repro.dsm`): protocol, apps, faults.

The acceptance surface of the DSM subsystem:

- layout / page-state / directory codecs (pure DRAM state);
- the section 4.4 ordering contract: a write grant is issued only after
  every reader copy acknowledged its invalidation, visible on the event
  bus as ``dsm.inval_walk`` / ``dsm.inval`` strictly before the
  writer's ``dsm.grant``;
- the app family (stencil / bfs / kv) against closed-form expectations,
  with every node provably fetching pages across the mesh (the ``dsm``
  scenario, 4x4 fast and 8x8 slow);
- the sync primitives (combining-tree barrier, home lock);
- crash/restore + seeded link-flap convergence: the shared space ends
  byte-identical to the fault-free run (hypothesis property);
- home-crash recovery (leases + directory rebuild, always on): a
  crashed *home* rebuilds its directory from survivor claims and every
  app kind still converges, a crashed lock holder's tenure is revoked
  by the lease detector, the ``dsm_homecrash`` scenario rebuilds and
  replays end to end, and the fault-free ``dsm`` scenario never trips
  the detector;
- the ``python -m repro.dsm`` command line, with and without a home
  crash.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ckpt.safepoint import seek_node_quiescence
from repro.ckpt.system import NodeCheckpoint
from repro.dsm import (
    FETCHING,
    INVALID,
    READ,
    WRITE,
    Directory,
    DsmBarrier,
    DsmError,
    DsmLayout,
    DsmLock,
    DsmRuntime,
    DsmSegment,
    PageStateTable,
)
from repro.faults.controller import FaultController
from repro.faults.plan import FaultPlan
from repro.faults.recovery import crash_node, crash_restore
from repro.machine import ShrimpSystem
from repro.memsys.address import PAGE_SIZE, WORD_SIZE, page_number
from repro.scenarios import build
from repro.sim.instrument import Instrumentation
from repro.sim.process import Process
from repro.workload.dsm_apps import (
    SCRATCH_PROGRESS,
    DsmWorkload,
    stencil_value,
)


def make_system(width=2, height=2):
    system = ShrimpSystem(width, height)
    system.start()
    return system


def make_runtime(system, pages_per_node=1, pairs=None, **kwargs):
    layout = DsmLayout(len(system.nodes), pages_per_node,
                       system.nodes[0].memory.size_bytes)
    if pairs is None:
        n = len(system.nodes)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return DsmRuntime(system, layout, pairs, **kwargs)


def drive(system, *bodies):
    """Run generator bodies to completion as simulation processes."""
    procs = [Process(system.sim, body, "t%d" % i).start()
             for i, body in enumerate(bodies)]
    system.run()
    for proc in procs:
        assert proc.finished
    return procs


# -- layout and DRAM codecs ---------------------------------------------------


class TestDsmLayout:
    def test_blocked_homes_and_frame_identity(self):
        layout = DsmLayout(4, 2, 1 << 22)
        assert layout.npages == 8
        # Blocked placement: pages 2i, 2i+1 homed at node i.
        assert [layout.home_of(p) for p in range(8)] == \
            [0, 0, 1, 1, 2, 2, 3, 3]
        # Identity frame layout: same local address on every node.
        assert layout.frame_addr(3) == layout.dsm_base + 3 * PAGE_SIZE
        assert layout.frame_page(3) == page_number(layout.frame_addr(3))
        assert layout.page_of(3 * PAGE_SIZE + 16) == 3
        assert layout.contains_frame(layout.frame_addr(7))
        assert not layout.contains_frame(layout.meta_base)

    def test_metadata_sits_below_frames(self):
        layout = DsmLayout(4, 2, 1 << 22)
        assert layout.meta_base < layout.dsm_base
        assert layout.pstate_base < layout.dir_base < layout.scratch_base
        assert layout.scratch_addr(0) >= layout.dir_base

    def test_bounds_are_checked(self):
        layout = DsmLayout(2, 1, 1 << 22)
        with pytest.raises(DsmError):
            layout.check_page(2)
        with pytest.raises(DsmError):
            layout.page_of(layout.space_bytes)
        with pytest.raises(DsmError):
            layout.scratch_addr(99)
        with pytest.raises(DsmError):
            DsmLayout(2, 4096, 1 << 22)  # does not fit

    def test_layout_is_a_pure_function_of_parameters(self):
        a = DsmLayout(8, 2, 1 << 22)
        b = DsmLayout(8, 2, 1 << 22)
        assert (a.dsm_base, a.meta_base, a.scratch_base) == \
            (b.dsm_base, b.meta_base, b.scratch_base)
        assert [a.home_of(p) for p in range(a.npages)] == \
            [b.home_of(p) for p in range(b.npages)]


class TestStateCodecs:
    def test_page_state_roundtrip_in_dram(self):
        system = make_system(2, 1)
        layout = DsmLayout(2, 1, system.nodes[0].memory.size_bytes)
        table = PageStateTable(layout, system.nodes[0])
        assert table.get(0) == INVALID
        for state in (FETCHING, READ, WRITE, INVALID):
            table.set(0, state)
            assert table.get(0) == state
        # The word really is in DRAM (checkpoint/fingerprint coverage).
        table.set(1, READ)
        assert system.nodes[0].memory.read_word(layout.pstate_addr(1)) == READ

    def test_directory_owner_and_sorted_readers(self):
        system = make_system(2, 1)
        layout = DsmLayout(2, 1, system.nodes[0].memory.size_bytes)
        directory = Directory(layout, system.nodes[0])
        assert directory.owner(0) is None
        directory.set_owner(0, 1)
        assert directory.owner(0) == 1
        directory.set_owner(0, None)
        assert directory.owner(0) is None
        for reader in (1, 0):
            directory.add_reader(0, reader)
        assert directory.readers(0) == [0, 1]  # sorted: the 4.4 walk order
        assert directory.is_reader(0, 1)
        directory.discard_reader(0, 0)
        assert directory.readers(0) == [1]
        directory.clear_readers(0)
        assert directory.readers(0) == []


# -- the coherence protocol ---------------------------------------------------


class TestProtocol:
    def test_write_invalidates_every_reader_before_the_grant(self):
        """Section 4.4: the inval walk completes before the writer runs."""
        system = make_system(2, 2)
        runtime = make_runtime(system)
        hub = Instrumentation.of(system.sim)
        hub.enable_events()
        segments = [DsmSegment(runtime, i) for i in range(4)]
        runtime.start()

        def body():
            yield from segments[1].load_word(0)   # page 0 (home 0)
            yield from segments[2].load_word(0)
            yield from segments[3].store_word(0, 0xD5)

        drive(system, body())

        kinds = [(e.kind, e.fields) for e in hub.events()
                 if e.kind.startswith("dsm.")]
        walk = [f for k, f in kinds if k == "dsm.inval_walk"]
        assert walk == [{"page": 0, "targets": [1, 2], "req": 3}]
        order = [k for k, f in kinds
                 if k in ("dsm.inval_walk", "dsm.inval") or
                 (k == "dsm.grant" and f.get("write"))]
        # Walk, then both reader invalidations, and only then the grant.
        assert order == ["dsm.inval_walk", "dsm.inval", "dsm.inval",
                         "dsm.grant"]
        assert runtime._pstates[1].get(0) == INVALID
        assert runtime._pstates[2].get(0) == INVALID
        assert runtime._pstates[3].get(0) == WRITE
        assert runtime._dirs[0].owner(0) == 3
        assert runtime.invalidations.value == 2

    def test_read_recalls_writer_who_keeps_a_copy(self):
        system = make_system(2, 2)
        runtime = make_runtime(system)
        segments = [DsmSegment(runtime, i) for i in range(4)]
        runtime.start()
        seen = []

        def body():
            yield from segments[1].store_word(0, 0xABC)
            value = yield from segments[2].load_word(0)
            seen.append(value)

        drive(system, body())
        assert seen == [0xABC]
        assert runtime.recalls.value >= 1
        assert runtime._dirs[0].owner(0) is None
        assert runtime._pstates[1].get(0) == READ   # recalled writer keeps
        assert runtime._pstates[2].get(0) == READ
        # The home's frame is the memory copy: the recall pushed the data.
        assert system.nodes[0].memory.read_word(
            runtime.layout.frame_addr(0)) == 0xABC

    def test_write_guard_blocks_rightless_scribbles(self):
        system = make_system(2, 2)
        runtime = make_runtime(system)
        segments = [DsmSegment(runtime, i) for i in range(4)]
        runtime.start()

        def body():
            yield from segments[3].store_word(0, 7)

        drive(system, body())
        frame = runtime.layout.frame_addr(0)
        # Node 1 holds no rights on page 0: a direct DRAM write bypasses
        # the directory protocol, and this guard catches it.
        with pytest.raises(DsmError):
            system.nodes[1].memory.write_word(frame, 99)
        # The owner and the home stay legal.
        system.nodes[3].memory.write_word(frame, 8)
        system.nodes[0].memory.write_word(frame, 9)

    def test_missing_channel_is_an_eager_error(self):
        system = make_system(2, 1)
        runtime = make_runtime(system, pairs=[])
        runtime.start()
        with pytest.raises(DsmError, match="no channel"):
            next(runtime.fault(1, 0, False))


# -- the app family -----------------------------------------------------------


class TestDsmApps:
    def test_stencil_matches_closed_form(self):
        w = DsmWorkload(kind="stencil", width=2, height=2, iterations=2,
                        words=4).start()
        w.run()
        assert w.final_shared_bytes() == w.expected_stencil()
        assert w.runtime.faults.value > 0
        assert w.runtime.fetches.value > 0
        # Iteration 2's writes hit pages read in iteration 1: the 4.4
        # walk must have fired.
        assert w.runtime.invalidations.value > 0

    @pytest.mark.parametrize("width,height", [
        (2, 2), (3, 2),
        pytest.param(4, 4, marks=pytest.mark.slow),
    ])
    def test_bfs_distances_are_manhattan(self, width, height):
        # 2x2 is the regression shape for the duplicate-request filter:
        # the farthest node's final store used to race its own retried
        # WRITE_REQ, whose re-grant re-pushed the home's stale copy over
        # the freshly written distance.
        w = DsmWorkload(kind="bfs", width=width, height=height).start()
        w.run()
        distances = w.final_shared_bytes()[0][:w.node_count]
        assert distances == w.expected_bfs()

    def test_kv_completes_every_scheduled_request(self):
        w = DsmWorkload(kind="kv", width=2, height=2, seed=3,
                        requests=24).start()
        w.run()
        for node_id in range(w.node_count):
            mine = sum(1 for r in w.schedule if r.src_node == node_id)
            done = w.system.nodes[node_id].memory.read_word(
                w.layout.scratch_addr(SCRATCH_PROGRESS))
            assert done == mine

    def test_stencil_pattern_is_pure(self):
        assert stencil_value(1, 2, 3) == stencil_value(1, 2, 3)
        assert stencil_value(0, 1, 0) != stencil_value(1, 1, 0)


# -- remote fetch coverage ----------------------------------------------------


def scenario_events(name, **kwargs):
    """Run a :mod:`repro.scenarios` scenario with the event bus on."""
    system = build(name, **kwargs)
    hub = system.instrumentation
    hub.enable_events()
    system.run()
    return hub.events()


def push_destinations(events):
    return {e.fields["dst"] for e in events if e.kind == "dsm.push"}


class TestRemoteFetch:
    def test_4x4_every_node_fetches_remotely(self):
        events = scenario_events("dsm", width=4, height=4, iterations=1,
                                 words=4)
        assert push_destinations(events) == set(range(16))

    @pytest.mark.slow
    def test_8x8_every_node_fetches_remotely(self):
        events = scenario_events("dsm", width=8, height=8, iterations=1,
                                 words=4)
        assert push_destinations(events) == set(range(64))


# -- sync primitives ----------------------------------------------------------


class TestDsmBarrier:
    def test_tree_edges_form_a_binary_heap(self):
        assert DsmBarrier.tree_edges(range(7)) == [
            (0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
        # Non-contiguous participants keep heap shape over sorted order.
        assert DsmBarrier.tree_edges([9, 3, 5]) == [(3, 5), (3, 9)]
        assert DsmBarrier.tree_edges([0]) == []

    def test_duplicate_participants_rejected(self):
        system = make_system(2, 1)
        runtime = make_runtime(system)
        with pytest.raises(DsmError):
            DsmBarrier(runtime, 0, [0, 0, 1])

    def test_wait_blocks_until_all_arrive(self):
        system = make_system(2, 1)
        runtime = make_runtime(system)
        barrier = DsmBarrier(runtime, 1, [0, 1])
        runtime.start()
        released_at = {}

        def early():
            yield from barrier.wait(0, 1)
            released_at[0] = system.sim.now

        def late():
            yield 50_000
            yield from barrier.wait(1, 1)
            released_at[1] = system.sim.now

        drive(system, early(), late())
        # The early arriver was held until the straggler showed up.
        assert released_at[0] >= 50_000
        assert released_at[1] >= 50_000

    def test_epochs_run_to_completion(self):
        system = make_system(2, 2)
        runtime = make_runtime(system)
        barrier = DsmBarrier(runtime, 1, [0, 1, 2, 3])
        runtime.start()

        def body(node_id):
            for epoch in (1, 2, 3):
                yield from barrier.wait(node_id, epoch)

        drive(system, *[body(i) for i in range(4)])
        for node_id in range(4):
            seen = system.nodes[node_id].memory.read_word(
                runtime.layout.scratch_addr(barrier.scratch_index))
            assert seen == 3

    def test_non_participant_rejected(self):
        system = make_system(2, 1)
        runtime = make_runtime(system)
        barrier = DsmBarrier(runtime, 1, [0])
        with pytest.raises(DsmError):
            next(barrier.wait(1, 1))


class TestDsmLock:
    def test_mutual_exclusion_under_contention(self):
        system = make_system(2, 2)
        runtime = make_runtime(system)
        lock = DsmLock(runtime, 0)
        runtime.start()
        counter_addr = runtime.layout.frame_addr(0) + 8 * WORD_SIZE
        home_memory = system.nodes[lock.home].memory
        rounds = 4

        def body(node_id):
            for _ in range(rounds):
                yield from lock.acquire(node_id)
                value = home_memory.read_word(counter_addr)
                yield 700  # widen the race window
                home_memory.write_word(counter_addr, value + 1)
                lock.release(node_id)

        drive(system, *[body(i) for i in range(4)])
        assert home_memory.read_word(counter_addr) == 4 * rounds


# -- crash/restore + fault-plan convergence -----------------------------------


def _stencil_reference():
    w = DsmWorkload(kind="stencil", width=2, height=2, iterations=2,
                    words=4).start()
    w.run()
    bytes_ = w.final_shared_bytes()
    assert bytes_ == w.expected_stencil()
    return bytes_


def _stencil_under_faults(seed, victim=1, capture_at=20_000,
                          crash_delay=10_000, dwell=5_000):
    """One faulty run: seeded link flaps plus a mid-run crash/restore of
    ``victim`` from its last per-node checkpoint."""
    w = DsmWorkload(kind="stencil", width=2, height=2, iterations=2,
                    words=4).start()
    system = w.system
    plan = FaultPlan.seeded(
        seed, 150_000,
        link_names=["link(0,0)->(0,1)", "link(1,0)->(0,0)"],
        flaps_per_link=1,
    )
    FaultController(system, plan).arm()
    system.run(until=capture_at)
    seek_node_quiescence(system, victim)
    state = NodeCheckpoint.capture(system, victim)
    process = Process(
        system.sim,
        crash_restore(system, victim, system.sim.now + crash_delay, dwell,
                      w.runtime.mappings, (w.runtime,), state),
        "dsm-crash",
    ).start()
    w.run()
    assert process.result is not None, "recovery never completed"
    return w.final_shared_bytes()


class TestFaultConvergence:
    def test_crash_restore_converges(self):
        assert _stencil_under_faults(seed=0) == _stencil_reference()

    @pytest.mark.slow
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_seeded_fault_plans_converge(self, seed):
        """Property: link flaps + one crash/restore never change the
        final shared bytes -- rollback + replay is exact."""
        assert _stencil_under_faults(seed=seed) == _stencil_reference()


# -- home-crash recovery: leases and directory rebuild ------------------------

#: Per-kind workload kwargs for the home-crash convergence surface.
#: All three kinds put remotely held pages 2/3 under node 1, so
#: crashing node 1 kills a *home* whose directory the survivors must
#: rebuild (not just a client the channel layer replays).
_RECOVERY_KINDS = {
    "stencil": dict(iterations=2, words=4),
    "bfs": dict(),
    "kv": dict(seed=3, requests=24),
}

_recovery_reference_cache = {}


def _recovery_reference(kind):
    if kind not in _recovery_reference_cache:
        w = DsmWorkload(kind=kind, width=2, height=2,
                        **_RECOVERY_KINDS[kind]).start()
        w.run()
        _recovery_reference_cache[kind] = w.final_shared_bytes()
    return _recovery_reference_cache[kind]


def _under_home_crash(kind, fault_seed, crash_at=30_000, dwell=8_000):
    """One faulty run: seeded link flaps plus a mid-run crash/restore of
    home node 1."""
    w = DsmWorkload(kind=kind, width=2, height=2,
                    **_RECOVERY_KINDS[kind]).start()
    plan = FaultPlan.seeded(
        fault_seed, 150_000,
        link_names=["link(0,0)->(0,1)", "link(1,0)->(0,0)"],
        flaps_per_link=1,
    )
    FaultController(w.system, plan).arm()
    process = w.crash_restore(1, crash_at, dwell)
    w.run()
    assert process.result is not None, "recovery never completed"
    return w.final_shared_bytes()


class TestHomeCrashRecovery:
    @pytest.mark.parametrize("kind", sorted(_RECOVERY_KINDS))
    def test_home_crash_converges(self, kind):
        assert _under_home_crash(kind, fault_seed=0) \
            == _recovery_reference(kind)

    @pytest.mark.slow
    @settings(max_examples=6, deadline=None)
    @given(kind=st.sampled_from(sorted(_RECOVERY_KINDS)),
           fault_seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_seeded_home_crashes_converge(self, kind, fault_seed):
        """Property: a home crash under an arbitrary seeded fault plan
        never changes the final shared bytes -- the directory rebuild is
        exactly as good as never having crashed."""
        assert _under_home_crash(kind, fault_seed=fault_seed) \
            == _recovery_reference(kind)

    def test_homecrash_kind_converges_through_its_home_crash(self):
        """The dedicated homecrash app (locked max-fold on victim-homed
        pages) survives its lock home + data home dying mid-run."""
        w = DsmWorkload(kind="homecrash", width=4, height=1,
                        iterations=2).start()
        process = w.crash_restore(1, 400_000, 120_000)
        w.run()
        assert process.result is not None
        assert w.final_shared_bytes() == w.expected_homecrash()
        hub = Instrumentation.of(w.system.sim)
        assert hub.value("dsm.rebuilds") == 1
        assert hub.value("dsm.replays") > 0

    def test_lock_holder_crash_is_revoked_by_the_lease(self):
        """A dead holder (not the home) stops heartbeating; the home
        revokes its tenure when the next waiter shows up, so waiters are
        never stranded."""
        system = make_system(2, 2)
        runtime = make_runtime(system, seed=7, lease_ns=30_000,
                               renew_ns=5_000)
        lock = DsmLock(runtime, 1)  # homed at node 1
        runtime.start()
        hub = Instrumentation.of(system.sim)
        hub.enable_events()
        victim, waiter = 2, 3
        assert victim != lock.home
        got = {}

        def holder():
            yield from lock.acquire(victim)
            got["held_at"] = system.sim.now
            # Dies below holding the lock -- never releases.

        def crash():
            yield 10_000
            yield from crash_node(system, victim, (runtime,))

        def waiting():
            yield 15_000
            yield from lock.acquire(waiter)
            got["reacquired_at"] = system.sim.now
            lock.release(waiter)

        drive(system, holder(), crash(), waiting())
        assert got["held_at"] < got["reacquired_at"]
        revokes = [e for e in hub.events() if e.kind == "dsm.lock_revoke"]
        assert [(e.fields["holder"], e.fields["by"]) for e in revokes] \
            == [(victim, waiter)]
        assert hub.value("dsm.lock_revokes") == 1

    def test_homecrash_scenario_rebuilds_and_replays(self):
        """The 4x4 home-crash scenario runs crash, directory rebuild and
        request replay end to end."""
        kinds = {e.kind for e in scenario_events("dsm_homecrash")}
        assert "dsm.rebuild_start" in kinds and "dsm.rebuild_done" in kinds
        assert "dsm.replay" in kinds

    def test_fault_free_stencil_never_trips_the_detector(self):
        """The always-on lease detector stays silent on the fault-free
        ``dsm`` scenario: no lease lapses and no directory rebuilds."""
        system = build("dsm")
        system.run()
        hub = system.instrumentation
        assert hub.value("dsm.lease_expirations") == 0
        assert hub.value("dsm.rebuilds") == 0


class TestCli:
    """``python -m repro.dsm`` in process: a home crash from the command
    line runs one directory rebuild and still checks out."""

    ARGS = ["--kind", "homecrash", "--width", "4", "--height", "1", "--json"]

    def _run(self, capsys, *extra):
        import json

        from repro.dsm.__main__ import main

        assert main(self.ARGS + list(extra)) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"] == "ok"
        return record["metrics"]["dsm.rebuilds"]["value"]

    def test_crash_home_rebuilds_once(self, capsys):
        assert self._run(capsys, "--crash-home", "1",
                         "--crash-at", "400000") == 1

    def test_no_crash_no_rebuild(self, capsys):
        assert self._run(capsys) == 0

    def test_crash_home_without_crash_at_is_a_usage_error(self, capsys):
        from repro.dsm.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--crash-home", "1"])
        assert exc.value.code == 2
        assert "--crash-at" in capsys.readouterr().err
