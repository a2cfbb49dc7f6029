"""Checkpoint-aware CPU workloads.

A bare ``Process(sim, cpu.run_to_halt(...))`` is invisible to the
checkpoint subsystem: the generator continuation it wraps cannot be
serialized.  :class:`CpuWorker` makes the workload *descriptable*.  It
owns the program (serializable via :mod:`repro.ckpt.codec`), the
architectural context, and the knowledge of where its generator may
legally be suspended -- the ``run_slice`` instruction boundary -- so a
restore can rebuild an equivalent generator and fast-forward it to the
same suspension point.

The priming trick the restore path relies on: ``Cpu.run_slice`` suspends
at the leading per-instruction ``yield timeout`` *before* executing the
instruction at ``context.pc``, and reaching that yield from a fresh
generator touches neither the simulator clock nor any device state.  So
``generator.send(None)`` re-creates the captured suspension point
exactly, and scheduling the pending resume at the captured due time
(:meth:`CpuWorker.ckpt_schedule`) replays the original timeline bit for
bit.  A worker whose start event has not fired yet (``GEN_CREATED``) is
restored unprimed -- its first resume primes it, exactly as the original
start event would have.
"""

import inspect

from repro.ckpt.codec import (
    decode_context,
    decode_program,
    encode_context,
    encode_program,
)
from repro.sim.process import Process


def _finished_shell():
    """Generator for the Process shell behind a restored finished worker."""
    return
    yield  # pragma: no cover -- makes this a generator function


class CpuWorker:
    """One checkpointable program running to halt on one node's CPU.

    Scenario code uses this in place of a bare ``Process``::

        worker = CpuWorker(system, node_id, program, Context(...), "pinger")
        worker.start()

    Creation registers the worker with ``system.ckpt_workers`` so
    :class:`~repro.ckpt.system.SystemCheckpoint` can enumerate, capture
    and re-create every workload.
    """

    def __init__(self, system, node_id, program, context=None, name=None):
        from repro.cpu.core import Context

        self.system = system
        self.node_id = node_id
        self.program = program
        self.context = context if context is not None else Context()
        self.name = name or ("worker%d:%s" % (node_id, program.name))
        self.process = None
        # True on a restored not-yet-scheduled worker whose generator was
        # suspended at an instruction boundary when captured.
        self._primed = False
        system.ckpt_workers.append(self)

    # -- lifecycle ------------------------------------------------------------

    def start(self, delay=0):
        """Start the program as a fresh simulation process."""
        if self.process is not None:
            raise RuntimeError("worker %r already started" % self.name)
        node = self.system.nodes[self.node_id]
        self.process = Process(
            self.system.sim,
            node.cpu.run_to_halt(self.program, self.context),
            self.name,
        ).start(delay)
        return self.process

    @property
    def finished(self):
        return self.process is not None and self.process.finished

    def kill(self):
        """Crash support (repro.faults): discard the running process.

        The worker returns to the unscheduled state, ready for
        :meth:`ckpt_restore_inplace` + :meth:`ckpt_schedule` to rebuild it
        from a per-node checkpoint.  The caller must only kill at an
        instruction boundary (parked on ``run_slice``'s per-instruction
        timeout) -- there the process holds no bus mutex or other
        resource.
        """
        if self.process is not None:
            self.process.kill()
            self.process = None
        self._primed = False

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_capture(self):
        primed = False
        if self.process is not None and not self.process.finished:
            primed = (
                inspect.getgeneratorstate(self.process._generator)
                == inspect.GEN_SUSPENDED
            )
        return {
            "node_id": self.node_id,
            "name": self.name,
            "program": encode_program(self.program),
            "context": encode_context(self.context),
            "finished": self.finished,
            "primed": primed,
        }

    @classmethod
    def ckpt_restore_create(cls, system, state):
        """Re-create a captured worker on a freshly restored system:
        construct it, then :meth:`ckpt_restore_inplace`.

        A live worker is left unscheduled; the caller re-arms its pending
        resume with :meth:`ckpt_schedule` (in global descriptor order).
        """
        worker = cls(system, state["node_id"], None, name=state["name"])
        worker.ckpt_restore_inplace(state)
        return worker

    def ckpt_restore_inplace(self, state):
        """Reset this worker to a captured state.

        Per-node restore (repro.faults) calls this in a *live* system: the
        rest of the system keeps running, so the worker object must stay
        the one registered in ``system.ckpt_workers``.  The worker must be
        unscheduled (crashed via :meth:`kill`, or never started).  A
        finished worker gets an inert Process shell carrying its result,
        so joins and ``finished`` checks behave as on the original.
        """
        if self.process is not None and not self.process.finished:
            raise RuntimeError(
                "worker %r is still running; kill() it first" % self.name
            )
        if state["name"] != self.name or state["node_id"] != self.node_id:
            raise ValueError(
                "worker state %r/%d does not match %r/%d"
                % (state["name"], state["node_id"], self.name, self.node_id)
            )
        self.program = decode_program(state["program"])
        self.context = decode_context(state["context"])
        self._primed = state["primed"]
        self.process = None
        if state["finished"]:
            shell = Process(self.system.sim, _finished_shell(), self.name)
            shell.started = True
            shell.finished = True
            shell.result = self.context
            self.process = shell

    def ckpt_schedule(self, due):
        """Rebuild the generator and arm its resume at absolute time ``due``.

        Priming executes no simulation events and makes no ``schedule``
        calls: ``run_slice`` runs straight to the leading per-instruction
        cycle delay for the instruction at the restored ``pc``.  The
        yielded delay is discarded -- the recreated event below
        stands in for the one the original ``Process._resume`` scheduled.
        A worker captured inside a folded spin loop instead re-parks on
        its CPU's line watch, with the spin's next step moved to ``due``.
        """
        if self.process is not None:
            raise RuntimeError("worker %r is already scheduled" % self.name)
        sim = self.system.sim
        node = self.system.nodes[self.node_id]
        generator = node.cpu.run_to_halt(self.program, self.context)
        process = Process(sim, generator, self.name)
        process.started = True
        self.process = process
        if self._primed:
            request = generator.send(None)
            if request is node.cpu.fold_signal:
                # Captured inside a folded spin: priming re-parked it.
                node.cpu.fold_rebase(due)
                process._park(request)
                return process
        process._pending_resume = sim.schedule_at(due, process._resume, None)
        return process
