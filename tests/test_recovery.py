"""Tests for per-node checkpoints and crash/restore recovery."""

import pytest

from repro.ckpt.protocol import SafepointError
from repro.ckpt.safepoint import check_node_quiescent, seek_node_quiescence
from repro.ckpt.system import NodeCheckpoint
from repro.ckpt.workload import CpuWorker
from repro.cpu import Asm, Context, Mem
from repro.faults.recovery import (
    crash_node,
    crash_restore,
    invalidate_node_mappings,
)
from repro.machine import ShrimpSystem, mapping
from repro.memsys.address import PAGE_SIZE
from repro.nic.nipt import MappingMode
from repro.scenarios import build_ping_pong, run_crash_recovery, run_fault_free
from repro.sim.instrument import Instrumentation
from repro.sim.process import Process

SRC, DST = 0x10000, 0x20000


def build_sender(count=32, gap_loops=400):
    """2x1 system, node 0 streaming ``count`` stores to node 1.

    A busy-wait loop splits the stream in half: while it spins, the
    sender's NIC pipeline drains, giving the run a mid-program per-node
    quiescent window (back-to-back stores never leave one).
    """
    from repro.cpu import R4

    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    m = mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
    asm = Asm("sender")
    for j in range(count // 2):
        asm.mov(Mem(disp=SRC + 4 * j), j + 1)
    asm.mov(R4, gap_loops)
    asm.label("gap")
    asm.dec(R4)
    asm.jnz("gap")
    for j in range(count // 2, count):
        asm.mov(Mem(disp=SRC + 4 * j), j + 1)
    asm.halt()
    worker = CpuWorker(system, 0, asm.build(), Context(stack_top=0x3F000),
                       "sender")
    worker.start()
    return system, worker, m


class TestNodeQuiescence:
    def test_seek_finds_quiescence_mid_workload(self):
        system, worker, _m = build_sender()
        system.run(until=2_000)
        seek_node_quiescence(system, 0)
        assert check_node_quiescent(system, 0) is None
        assert not worker.finished  # mid-program, not just at the end

    def test_capture_refuses_non_quiescent_node(self):
        system, _worker, _m = build_sender()
        system.run(until=50)  # mid bus transaction, packets in flight
        if check_node_quiescent(system, 0) is None:
            pytest.skip("node happened to be quiescent at t=50")
        with pytest.raises(SafepointError):
            NodeCheckpoint.capture(system, 0)


class TestNodeCheckpoint:
    def test_restore_rolls_node_state_back_in_place(self):
        system, worker, _m = build_sender()
        system.run(until=2_000)
        seek_node_quiescence(system, 0)
        state = NodeCheckpoint.capture(system, 0)
        probe_before = system.nodes[0].memory.read_word(SRC)
        system.run()  # finish the workload
        assert worker.finished
        # Restore requires the worker slot to be free.
        worker.kill()
        NodeCheckpoint.restore(system, state)
        assert system.nodes[0].memory.read_word(SRC) == probe_before
        # The re-armed worker resumes and finishes again.
        system.run()
        assert worker.finished

    def test_restore_rejects_running_worker(self):
        system, _worker, _m = build_sender()
        system.run(until=2_000)
        seek_node_quiescence(system, 0)
        state = NodeCheckpoint.capture(system, 0)
        with pytest.raises(RuntimeError):
            NodeCheckpoint.restore(system, state)


class TestCrash:
    def test_crash_kills_workers_and_clears_volatile_state(self):
        system, worker, _m = build_sender(count=64)
        hub = Instrumentation.of(system.sim)
        hub.enable_events()
        system.run(until=2_000)
        assert not worker.finished
        process = Process(system.sim, crash_node(system, 0), "crash").start()
        system.run()
        assert process.finished
        assert worker.process is None and not worker.finished
        nic = system.nodes[0].nic
        assert nic.outgoing_fifo.occupancy_bytes == 0
        assert nic.incoming_fifo.occupancy_bytes == 0
        crashes = hub.events("fault.node_crash")
        assert len(crashes) == 1
        assert crashes[0].fields["node"] == 0
        assert hub.value("faults.node_crash") == 1
        # The kill lost stores: the receiver got only a prefix.
        received = sum(
            1 for j in range(64)
            if system.nodes[1].memory.read_word(DST + 4 * j) == j + 1
        )
        assert received < 64

    def test_crash_restore_replays_to_fault_free_image(self):
        system, _worker, m = build_sender(count=64)
        system.run(until=2_000)
        seek_node_quiescence(system, 0)
        state = NodeCheckpoint.capture(system, 0)
        process = Process(
            system.sim,
            crash_restore(system, 0, system.sim.now + 3_000, 0, [m],
                          state=state),
            "orchestrator",
        ).start()
        system.run()
        assert process.result["ckpt_time"] == state["time"]
        assert process.result["invalidated_mappings"] == 0  # outbound only
        for j in range(64):
            assert system.nodes[1].memory.read_word(DST + 4 * j) == j + 1

    def test_invalidation_is_inbound_only(self):
        system, _worker, m = build_sender()
        system.run()
        # The mapping goes INTO node 1: dead node 0 does not invalidate it,
        # dead node 1 does.
        assert invalidate_node_mappings(system, 0, [m]) == []
        assert invalidate_node_mappings(system, 1, [m]) == [m]

    def test_crash_node_runs_as_its_own_process(self):
        system, worker, _m = build_sender(count=64)
        system.run(until=1_000)
        process = Process(system.sim, crash_node(system, 0), "crash").start()
        system.run()
        assert process.finished
        assert not worker.finished
        assert process.result >= 0  # the packets dropped with the FIFOs


class TestCrashMidFold:
    """A worker parked in a folded spin loop is at an instruction
    boundary: capturable per node, killable, and re-parked on restore."""

    def _parked_ponger(self):
        system = build_ping_pong()
        system.run(until=20_000)
        worker = system.ckpt_workers[1]
        cpu = system.nodes[1].cpu
        while cpu.spin_state(worker.process) != "parked" or \
                check_node_quiescent(system, 1) is not None:
            system.sim.step()
        return system, worker

    def test_crash_mid_fold_leaves_no_line_watch(self):
        system, worker = self._parked_ponger()
        node = system.nodes[1]
        retired = node.cpu.counts.total
        Process(system.sim, crash_node(system, 1), "crash").start()
        system.run(until=system.sim.now + 1)
        assert worker.process is None
        assert node.cpu._fold is None
        assert node.cache._watch is None
        assert node.cpu not in system.sim._pause_hooks
        assert node.cpu.counts.total >= retired  # the spin ran until the crash

    def test_node_restore_reparks_the_spin(self):
        system, worker = self._parked_ponger()
        state = NodeCheckpoint.capture(system, 1)
        pc = worker.context.pc
        Process(system.sim, crash_node(system, 1), "crash").start()
        system.run(until=system.sim.now + 500)
        NodeCheckpoint.restore(system, state)
        assert system.nodes[1].cpu.spin_state(worker.process) == "parked"
        assert worker.context.pc == pc
        system.run()
        assert all(w.finished for w in system.ckpt_workers)


class TestCrashRecoveryScenario:
    """The acceptance scenario: 16-node storm, node (1,1) crashed mid-storm,
    restored from its per-node checkpoint, final buffers byte-identical."""

    def test_recovered_run_matches_fault_free_byte_for_byte(self):
        res = run_crash_recovery()
        ref = run_fault_free()
        assert res["complete"] and ref["complete"]
        assert res["hot_image"] == ref["hot_image"]
        assert res["app_words"] == ref["app_words"]
        assert res["delivered"] == ref["delivered"]
        # The recovery actually happened and cost something measurable.
        assert res["recovery_window_ns"] > 0
        assert res["replay_window_ns"] > 0
        assert res["frames_replayed"] > 0
        assert res["retransmits"] > 0
        assert res["invalidated_mappings"] == 1  # the channel data mapping

    def test_every_fault_visible_on_the_event_bus(self):
        res = run_crash_recovery(collect_events=True)
        assert res["complete"]
        kinds = res["fault_events"]
        assert kinds.count("fault.node_crash") == 1
        assert kinds.count("fault.node_restore") == 1
        assert kinds.count("fault.mapping_invalidate") == 1
        assert kinds.count("fault.mapping_reestablish") == 1


def _generator_chain(generator):
    names = []
    while generator is not None:
        names.append(generator.gi_code.co_name)
        generator = generator.gi_yieldfrom
    return names


class TestCrashMidPoll:
    """Runtime waits parked in folded polls (:mod:`repro.sim.poll`) die
    with their node: the kill leaves no DRAM watch, read-count settler
    or tick marker behind, and the restored node still converges."""

    @pytest.mark.parametrize("victim,crash_at,parked", [
        (1, 400_000, {"wait", "_sender_body"}),  # barrier waiter, sender
        (2, 0, {"fault", "_sender_body"}),  # faulter, sender
    ])
    def test_crash_kills_parked_polls_cleanly(self, monkeypatch, victim,
                                              crash_at, parked):
        from repro.sim.poll import Poll
        from repro.workload.dsm_apps import DsmWorkload

        w = DsmWorkload(kind="homecrash", width=4, height=1,
                        iterations=2).start()
        runtime, sim = w.runtime, w.system.sim
        killed = set()
        kill = Process.kill

        def recording_kill(process):
            if isinstance(process._pending_resume, Poll):
                killed.update(_generator_chain(process._generator))
            kill(process)

        crashed = runtime.node_crashed
        after_crash = []

        def checked_node_crashed(node_id):
            crashed(node_id)
            memory = w.system.nodes[node_id].memory
            markers = [args for _, _, callback, args in sim.live_entries()
                       if callback is None]
            after_crash.append((memory._watches, memory._settlers,
                                [m for m in markers if m.process.finished]))

        monkeypatch.setattr(Process, "kill", recording_kill)
        monkeypatch.setattr(runtime, "node_crashed", checked_node_crashed)
        process = w.crash_restore(victim, crash_at, 120_000)
        w.run()
        assert parked <= killed
        assert after_crash == [({}, (), [])]
        assert process.result is not None
        assert w.final_shared_bytes() == w.expected_homecrash()

    def test_memory_restore_wakes_a_parked_poll(self):
        """A restore that rolls the watched word forward wakes the poll
        at its next tick, as a write would."""
        from repro.memsys import PhysicalMemory
        from repro.sim import Simulator
        from repro.sim.poll import poll

        sim = Simulator()
        memory = PhysicalMemory(4096)
        memory.write_word(0x40, 7)
        image = memory.ckpt_capture()
        memory.write_word(0x40, 0)
        woke = []

        def waiter():
            yield from poll(sim, 100, lambda: memory.read_word(0x40) == 7,
                            memory=memory, reads=1, words=(0x40,))
            woke.append(sim.now)

        Process(sim, waiter(), "w").start()
        sim.schedule(250, memory.ckpt_restore, image)
        sim.run(until=10_000)
        assert woke == [300]
