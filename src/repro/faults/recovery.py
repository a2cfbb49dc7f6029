"""Node crash/restore recovery orchestration.

The whole-node crash is the heaviest fault, and the one the paper's
section 4.4 protection model exists to survive: when a node dies, the
remaining kernels must *invalidate every mapping that touches it* (a
stale mapped-in bit would let a ghost deliberate update scribble over a
reused page) and re-establish them only once the node is back.  A crash
is not a :class:`~repro.faults.plan.FaultPlan` event: what to restore,
and which messaging layers to resynchronise, is the caller's business.

:func:`crash_restore` (a process body) runs that sequence against a live
simulation, and every crash->restore in the repo goes through it:

1. it captures the victim's per-node checkpoint at the first quiescent
   instant after ``crash_at`` (or takes the one the caller passes);
2. :func:`crash_node` waits for the victim's CPU workers to reach an
   instruction boundary and its DMA engine to go idle -- a simulated
   crash can be arbitrary, but killing a Python generator that holds the
   bus mutex would wedge the *simulator*, which is a modeling artifact,
   not a fault -- then kills the workers, discards the NIC's volatile
   state (both packet FIFOs, the pending merge window, the kernel inbox,
   pending interrupts), and notifies the participants.  The NIC's
   hardware loops keep running: packets already in the mesh still arrive
   and are dropped (``nic.unmapped_drops``) once the mappings are
   invalidated, exactly like hardware whose DRAM interface outlives its
   CPU;
3. :func:`invalidate_node_mappings` tears down every mapping into the
   dead node on *all* surviving nodes;
4. after ``dwell_ns``, :func:`recover_node` waits for the dead node's
   slice to drain to quiescence, restores the checkpoint in place
   (:class:`repro.ckpt.system.NodeCheckpoint`), re-establishes the
   invalidated mappings (the restored NIPT brings back the dead node's
   own halves, so only the remote halves need rebuilding), and
   resynchronises the participants.

A *participant* is a messaging layer with an endpoint on the node,
anything with ``killable``/``node_crashed``/``node_restored``: a
:class:`~repro.msg.reliable.ReliableChannel`, or a
:class:`~repro.dsm.runtime.DsmRuntime`, which covers its own channels.

Every step is visible on the instrumentation bus as a typed ``fault.*``
event; ``faults.node_crash``/``faults.node_restore`` counters are
registered lazily so fault-free runs keep a pristine metrics snapshot.
"""

from repro.ckpt.safepoint import _boundary_reason, check_node_quiescent
from repro.ckpt.system import NodeCheckpoint
from repro.machine.mapping import establish, tear_down
from repro.sim.instrument import Instrumentation

#: Polling cadence for the crash/recovery wait loops, in ns.
POLL_NS = 200


def _worker_killable(worker):
    """True when ``worker`` can be killed without wedging the simulator.

    A worker is killable while it holds no simulation resource: never
    started, already finished/killed, or at the instruction boundary the
    safepoint predicate accepts (parked at ``Cpu.run_slice``'s
    per-instruction timeout or inside a folded spin loop) -- not mid bus
    transaction or inside a mutex.
    """
    process = worker.process
    if process is None or process.finished:
        return True
    resume = process._resume
    owned = sum(callback == resume
                for _, _, callback, _ in worker.system.sim.live_entries())
    return _boundary_reason(worker.system, worker, owned) is None


def crash_node(system, node_id, participants=()):
    """Process body: crash ``node_id`` at the next safe-to-model instant.

    ``participants`` go down with the node.  Returns the number of
    packets dropped from the node's FIFOs.
    """
    node = system.nodes[node_id]
    nic = node.nic
    while True:
        workers = [w for w in system.ckpt_workers if w.node_id == node_id]
        if (all(_worker_killable(w) for w in workers)
                and not nic.dma_engine.busy
                and all(p.killable(node_id) for p in participants)):
            break
        yield POLL_NS
    for worker in workers:
        if not worker.finished:
            worker.kill()
    # Volatile device state dies with the node; DRAM and the NIPT survive
    # (they are what the checkpoint restores over).
    dropped = nic.outgoing_fifo.clear() + nic.incoming_fifo.clear()
    merge = nic._merge
    if merge is not None:
        if merge.flush_event is not None:
            merge.flush_event.cancel()
        nic._merge = None
    while True:
        got, _ = nic.kernel_inbox.try_get()
        if not got:
            break
    node.cpu._pending_interrupts.clear()
    node.cpu._preempt = False
    for participant in participants:
        participant.node_crashed(node_id)
    hub = Instrumentation.of(system.sim)
    hub.counter("faults.node_crash").bump()
    if hub.active:
        hub.emit("faults", "fault.node_crash", node=node_id,
                 dropped_packets=dropped)
    return dropped


def invalidate_node_mappings(system, node_id, mappings):
    """Tear down every mapping *into* the dead node (section 4.4).

    The protection hazard is inbound: a surviving sender's deliberate or
    automatic update depositing into the dead node's memory, which the
    restore is about to rewrite.  Mappings *out of* the dead node are
    left standing -- a crashed node sends nothing, packets it emitted
    before dying carry data its checkpoint already accounts as sent (so
    surviving receivers must still accept them), and the restored NIPT
    brings the outgoing halves back in a consistent state.

    Returns the invalidated :class:`~repro.machine.mapping.HardwareMapping`
    records -- hand them to :func:`recover_node` for re-establishment.
    """
    hub = Instrumentation.of(system.sim)
    invalidated = []
    for mapping in mappings:
        if mapping.dest_node.node_id != node_id:
            continue
        tear_down(mapping)
        invalidated.append(mapping)
        if hub.active:
            hub.emit("faults", "fault.mapping_invalidate",
                     src=mapping.src_node.node_id,
                     dest=mapping.dest_node.node_id,
                     dest_addr=mapping.dest_addr, nbytes=mapping.nbytes)
    return invalidated


def _reestablish_mapping(system, mapping, node_id):
    """Re-establish one invalidated mapping after ``node_id`` restored.

    The restored NIPT brings the dead node's own halves back, so only the
    surviving side needs repair: if the dead node was the *source*, the
    remote receiver just re-sets its mapped-in bits; if it was the
    *destination*, the remote sender's outgoing halves are rebuilt with a
    full :func:`~repro.machine.mapping.establish`.
    """
    if (mapping.dest_node.node_id == node_id
            and mapping.src_node.node_id != node_id):
        live = establish(mapping.src_node, mapping.src_addr,
                         mapping.dest_node, mapping.dest_addr,
                         mapping.nbytes, mapping.mode)
    else:
        for page in mapping.dest_pages:
            mapping.dest_node.nic.nipt.map_in(page)
        live = mapping
    hub = Instrumentation.of(system.sim)
    if hub.active:
        hub.emit("faults", "fault.mapping_reestablish",
                 src=live.src_node.node_id, dest=live.dest_node.node_id,
                 dest_addr=live.dest_addr, nbytes=live.nbytes)


def recover_node(system, state, mappings=(), participants=()):
    """Process body: wait for the dead node's slice to drain, restore it
    from ``state`` and rewire it.

    ``mappings`` are the records :func:`invalidate_node_mappings`
    returned; ``participants`` get their ``node_restored``
    resynchronisation.
    """
    node_id = state["node_id"]
    while check_node_quiescent(system, node_id) is not None:
        yield POLL_NS
    NodeCheckpoint.restore(system, state)
    for mapping in mappings:
        _reestablish_mapping(system, mapping, node_id)
    for participant in participants:
        participant.node_restored(node_id)
    hub = Instrumentation.of(system.sim)
    hub.counter("faults.node_restore").bump()
    if hub.active:
        hub.emit("faults", "fault.node_restore", node=node_id,
                 ckpt_time=state["time"])


def crash_restore(system, node_id, crash_at, dwell_ns, mappings=(),
                  participants=(), state=None):
    """Process body: the whole crash->restore arc for one node.

    Waits until ``crash_at``; without a ``state``, polls the victim to a
    capturable boundary (:func:`~repro.ckpt.safepoint.check_node_quiescent`
    is a pure observer, so polling it from a process is legal) and
    captures its per-node checkpoint there.  Then crashes the node
    through :func:`crash_node`'s safe-kill gate, invalidates every
    inbound mapping among ``mappings``, leaves the node dead for
    ``dwell_ns`` and restores it.  The checkpoint predates the crash by
    however long the safe-kill gate needed -- the work in that window is
    exactly what rollback + replay (and, for a DSM home, the directory
    rebuild) must recover.

    Returns ``{"crashed_at", "dropped_packets", "restored_at",
    "ckpt_time", "invalidated_mappings"}``.
    """
    sim = system.sim
    if sim.now < crash_at:
        yield crash_at - sim.now
    if state is None:
        while check_node_quiescent(system, node_id) is not None:
            yield POLL_NS
        state = NodeCheckpoint.capture(system, node_id)
    dropped = yield from crash_node(system, node_id, participants)
    crashed_at = sim.now
    invalidated = invalidate_node_mappings(system, node_id, mappings)
    if dwell_ns:
        yield dwell_ns
    yield from recover_node(system, state, invalidated, participants)
    return {
        "crashed_at": crashed_at,
        "dropped_packets": dropped,
        "restored_at": sim.now,
        "ckpt_time": state["time"],
        "invalidated_mappings": len(invalidated),
    }
