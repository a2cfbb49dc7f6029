"""Whole-machine checkpoints: ``SystemCheckpoint.save/load/fork``.

``capture`` walks the system's ``Checkpointable`` tree at a safepoint
(:mod:`repro.ckpt.safepoint`) into one JSON-safe state document;
``restore`` builds a *fresh* :class:`~repro.machine.system.ShrimpSystem`
from the named hardware config and replays that document into it.

The restore protocol, in required order:

1. construct + ``start()`` the fresh system, then ``run_until_idle()`` --
   the device loops (NIC inject/accept/deliver, router inputs) execute
   their start events at t=0 and park on their signals, leaving the event
   queue empty with zero metric side effects;
2. ``sim.ckpt_restore`` (needs the empty queue) sets the clock and event
   count to the snapshot instant;
3. the instrumentation hub, then every hardware component, restores its
   functional state;
4. workers are re-created (:meth:`CpuWorker.ckpt_restore_create`) and the
   captured event **descriptors** are re-armed in ascending original
   sequence order, by the re-arm :class:`NodeCheckpoint` shares --
   same-instant ties land in the same-time bucket in creation order, so
   the resumed run pops events in exactly the captured (time, seq) order
   and the continuation is bit-for-bit identical to the uninterrupted run
   (``tests/test_ckpt.py`` pins this against the golden traces).
"""

from repro.ckpt import fmt
from repro.ckpt.protocol import CkptError, SafepointError
from repro.ckpt.safepoint import (
    check_node_quiescent,
    check_safepoint,
    classify_entries,
    classify_node_entries,
)
from repro.ckpt.workload import CpuWorker
from repro.machine.config import CONFIGS
from repro.machine.system import ShrimpSystem


def _config_name(factory):
    for name, candidate in CONFIGS.items():
        if candidate is factory:
            return name
    raise CkptError(
        "system was built from a params factory that is not in "
        "repro.machine.config.CONFIGS; only named configs are restorable"
    )


def _rearm(system, descriptors):
    """Re-arm captured descriptors in list order, none before now.

    A whole-machine restore rewinds the clock to the capture instant, so
    every due time stands; a live node restored after its checkpoint
    re-arms a due time that has passed at the current instant.
    """
    sim = system.sim
    now = sim.now
    for descriptor in descriptors:
        due = max(descriptor["due"], now)
        kind = descriptor.get("kind")
        if kind == "worker":
            system.ckpt_workers[descriptor["index"]].ckpt_schedule(due)
        elif kind == "merge":
            nic = system.nodes[descriptor["node"]].nic
            nic.ckpt_attach_flush(
                sim.schedule_at(due, nic._merge_timer_fired, nic._merge))
        else:
            raise CkptError("unknown descriptor kind %r" % (kind,))


class SystemCheckpoint:
    """Capture/restore a whole simulated SHRIMP machine."""

    @classmethod
    def capture(cls, system):
        """Snapshot ``system`` into a JSON-safe state document.

        Raises :class:`SafepointError` unless the current instant is a
        safepoint -- use :func:`repro.ckpt.safepoint.seek_safepoint` first
        when pausing mid-run.
        """
        reason = check_safepoint(system)
        if reason is not None:
            raise SafepointError(reason)
        for node in system.nodes:
            node.cpu.fold_settle()  # before the hub captures the counters
        descriptors, _ = classify_entries(system)
        return {
            "config": _config_name(system.params_factory),
            "width": system.width,
            "height": system.height,
            "sim": system.sim.ckpt_capture(),
            "instrumentation": system.instrumentation.ckpt_capture(),
            "system": system.ckpt_capture(),
            "workers": [
                worker.ckpt_capture() for worker in system.ckpt_workers
            ],
            "descriptors": descriptors,
        }

    @classmethod
    def restore(cls, state):
        """Build a fresh system equal to the captured one.  Returns it."""
        factory = CONFIGS.get(state["config"])
        if factory is None:
            raise CkptError(
                "checkpoint names unknown machine config %r (this build "
                "knows %s)" % (state["config"], ", ".join(sorted(CONFIGS)))
            )
        system = ShrimpSystem(state["width"], state["height"], factory)
        system.start()
        system.sim.run_until_idle()
        system.sim.ckpt_restore(state["sim"])
        system.instrumentation.ckpt_restore(state["instrumentation"])
        system.ckpt_restore(state["system"])
        for worker_state in state["workers"]:
            CpuWorker.ckpt_restore_create(system, worker_state)
        _rearm(system, state["descriptors"])
        return system

    @classmethod
    def save(cls, system, path):
        """Capture and write a checkpoint file.  Returns bytes written."""
        return fmt.save(cls.capture(system), system.sim.now, path)

    @classmethod
    def load(cls, path):
        """Read, verify and restore a checkpoint file.  Returns the system."""
        state, _ = fmt.load(path)
        return cls.restore(state)

    @classmethod
    def fork(cls, system):
        """An independent in-memory copy of ``system`` (at a safepoint).

        The state round-trips through the canonical serialization, so the
        fork shares no mutable state with -- and is checked exactly as
        strictly as -- an on-disk checkpoint.
        """
        state, _ = fmt.loads(fmt.dumps(cls.capture(system), system.sim.now))
        return cls.restore(state)


class NodeCheckpoint:
    """Per-node capture/restore granularity, for crash recovery.

    Where :class:`SystemCheckpoint` freezes the whole machine into a
    document and rebuilds a *fresh* system, ``NodeCheckpoint`` snapshots
    one node's slice -- its memory, cache, bus, NIC (including the NIPT),
    CPU, its workers and their pending-resume descriptors -- while the
    other nodes keep running, and later restores that slice *in place*
    into the same live system.  Used by the crash/restore orchestration in
    :mod:`repro.faults.recovery`: kill a node mid-storm, then bring it
    back from its last snapshot.

    One deliberate deviation from the whole-machine protocol:
    instrumentation metrics are **not** captured or restored -- counters
    are an observer's log of what happened, and what happened (including
    the crash) stays happened.  A descriptor whose due time has passed by
    restore time is re-armed at the current instant, by the shared
    ``max(due, now)`` re-arm that a whole-machine restore also uses (its
    rewound clock makes the clamp a no-op there).
    """

    @classmethod
    def capture(cls, system, node_id):
        """Snapshot node ``node_id``'s slice.  Raises unless quiescent."""
        reason = check_node_quiescent(system, node_id)
        if reason is not None:
            raise SafepointError(reason)
        descriptors, _ = classify_node_entries(system, node_id)
        return {
            "node_id": node_id,
            "time": system.sim.now,
            "node": system.nodes[node_id].ckpt_capture(),
            "workers": [
                [index, worker.ckpt_capture()]
                for index, worker in enumerate(system.ckpt_workers)
                if worker.node_id == node_id
            ],
            "descriptors": descriptors,
        }

    @classmethod
    def restore(cls, system, state):
        """Restore a node's slice into the live (still running) system.

        The node's workers must be unscheduled -- crashed via
        :meth:`~repro.ckpt.workload.CpuWorker.kill` -- or finished; the
        node's datapath must be drained (the crash orchestration clears
        the FIFOs and waits out in-flight DMA before calling this).
        """
        node_id = state["node_id"]
        node = system.nodes[node_id]
        node.ckpt_restore(state["node"])
        workers = system.ckpt_workers
        for index, worker_state in state["workers"]:
            workers[index].ckpt_restore_inplace(worker_state)
        _rearm(system, state["descriptors"])
        return node
