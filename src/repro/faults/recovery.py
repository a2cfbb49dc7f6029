"""Node crash/restore recovery orchestration.

The whole-node crash is the FaultPlan's heaviest event, and the one the
paper's section 4.4 protection model exists to survive: when a node dies,
the remaining kernels must *invalidate every mapping that touches it* (a
stale mapped-in bit would let a ghost deliberate update scribble over a
reused page) and re-establish them only once the node is back.

The orchestration here drives that sequence against a live simulation:

1. :func:`crash_node` (a process body) waits for the victim's CPU workers
   to reach an instruction boundary and its DMA engine to go idle -- a
   simulated crash can be arbitrary, but killing a Python generator that
   holds the bus mutex would wedge the *simulator*, which is a modeling
   artifact, not a fault -- then kills the workers, discards the NIC's
   volatile state (both packet FIFOs, the pending merge window, the
   kernel inbox, pending interrupts), and notifies any reliable channels.
   The NIC's hardware loops keep running: packets already in the mesh
   still arrive and are dropped (``nic.unmapped_drops``) once the
   mappings are invalidated, exactly like hardware whose DRAM interface
   outlives its CPU.
2. :func:`invalidate_node_mappings` tears down every mapping into or out
   of the dead node on *all* surviving nodes.
3. :func:`recover_node` (a process body) waits for the dead node's slice
   to drain to quiescence, restores its last per-node checkpoint in
   place (:class:`repro.ckpt.system.NodeCheckpoint`), re-establishes the
   invalidated mappings (:func:`reestablish_mapping` -- the restored
   NIPT brings back the dead node's own halves, so only the remote
   halves need rebuilding), and resynchronises the reliable channels
   (ack-epoch bump + sender window rollback).

Every step is visible on the instrumentation bus as a typed ``fault.*``
event; ``faults.node_crash``/``faults.node_restore`` counters are
registered lazily so fault-free runs keep a pristine metrics snapshot.
"""

from repro.ckpt.safepoint import _boundary_reason, check_node_quiescent
from repro.ckpt.system import NodeCheckpoint
from repro.machine.mapping import establish, tear_down
from repro.sim.instrument import Instrumentation
from repro.sim.process import Process

#: Default polling cadence for the crash/recovery wait loops, in ns.
POLL_NS = 200


def _bump(hub, name):
    """Bump a lazily-registered ``faults.*`` counter."""
    # simlint: ignore[SL302] both call sites pass "faults.*" literals
    hub.counter(name).bump()


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


def node_workers(system, node_id):
    """The system's registered CPU workers living on ``node_id``."""
    return [w for w in system.ckpt_workers if w.node_id == node_id]


def crash_node(system, node_id, channels=(), poll_ns=POLL_NS):
    """Process body: crash ``node_id`` at the next safe-to-model instant.

    Returns ``{"node_id", "crashed_at", "dropped_packets"}``.  Run it
    with :func:`spawn_crash`, or ``yield from`` it inside a scenario
    process.  ``channels`` are :class:`repro.msg.reliable.ReliableChannel`
    endpoints (anything with ``killable``/``node_crashed``) to take down
    with the node.
    """
    node = system.nodes[node_id]
    nic = node.nic
    while True:
        workers = node_workers(system, node_id)
        if (all(_worker_killable(w) for w in workers)
                and not nic.dma_engine.busy
                and all(ch.killable(node_id) for ch in channels)):
            break
        yield poll_ns
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
    for channel in channels:
        channel.node_crashed(node_id)
    hub = Instrumentation.of(system.sim)
    _bump(hub, "faults.node_crash")
    if hub.active:
        hub.emit("faults", "fault.node_crash", node=node_id,
                 dropped_packets=dropped)
    return {
        "node_id": node_id,
        "crashed_at": system.sim.now,
        "dropped_packets": dropped,
    }


def spawn_crash(system, node_id, channels=()):
    """Run :func:`crash_node` as its own process.  Returns the process."""
    return Process(
        system.sim, crash_node(system, node_id, channels),
        "crash(%d)" % node_id,
    ).start()


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


def reestablish_mapping(system, mapping, node_id):
    """Re-establish one invalidated mapping after ``node_id`` restored.

    The restored NIPT brings the dead node's own halves back, so only the
    surviving side needs repair: if the dead node was the *source*, the
    remote receiver just re-sets its mapped-in bits; if it was the
    *destination*, the remote sender's outgoing halves are rebuilt with a
    full :func:`~repro.machine.mapping.establish`.  Returns the live
    mapping record (a new one in the second case).
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
    return live


def restore_node(system, state, mappings=(), channels=()):
    """Restore a crashed node from ``state`` and rewire it, immediately.

    The node must already be quiescent (:func:`recover_node` waits for
    that).  Returns ``{"node_id", "restored_at", "ckpt_time", "mappings"}``
    where ``mappings`` are the live records after re-establishment.
    """
    node_id = state["node_id"]
    NodeCheckpoint.restore(system, state)
    live = [
        reestablish_mapping(system, mapping, node_id) for mapping in mappings
    ]
    for channel in channels:
        channel.node_restored(node_id)
    hub = Instrumentation.of(system.sim)
    _bump(hub, "faults.node_restore")
    if hub.active:
        hub.emit("faults", "fault.node_restore", node=node_id,
                 ckpt_time=state["time"])
    return {
        "node_id": node_id,
        "restored_at": system.sim.now,
        "ckpt_time": state["time"],
        "mappings": live,
    }


def recover_node(system, state, mappings=(), channels=(), poll_ns=POLL_NS):
    """Process body: wait for the dead node's slice to drain, then restore.

    ``mappings`` are the records :func:`invalidate_node_mappings` returned;
    ``channels`` get their :meth:`node_restored` resynchronisation.  The
    process result is :func:`restore_node`'s dict.
    """
    node_id = state["node_id"]
    while check_node_quiescent(system, node_id) is not None:
        yield poll_ns
    return restore_node(system, state, mappings=mappings, channels=channels)


def crash_restore_cycle(system, node_id, crash_at, dwell_ns, mappings,
                        channels=(), poll_ns=POLL_NS, outcome=None):
    """Process body: the full in-sim crash/restore arc for one node.

    Waits until ``crash_at``, polls the victim to a capturable boundary
    (:func:`~repro.ckpt.safepoint.check_node_quiescent` is a pure
    observer, so polling it from a process is legal), captures its
    per-node checkpoint, crashes it through :func:`crash_node`'s
    safe-kill gate, invalidates every inbound mapping, leaves the node
    dead for ``dwell_ns``, then restores it.  The checkpoint predates
    the crash by however long the safe-kill gate needed -- the work in
    that window is exactly what rollback + replay (and, for a DSM home,
    the directory rebuild) must recover.

    ``mappings`` is the full mapping list to filter (for a DSM workload,
    ``runtime.mappings``); ``channels`` as in :func:`crash_node` -- put
    the :class:`~repro.dsm.runtime.DsmRuntime` itself last so channel
    replay state is reset before its rebuild starts.  Returns
    :func:`restore_node`'s dict, also merged into ``outcome`` when the
    caller only keeps the process handle.
    """
    sim = system.sim
    if sim.now < crash_at:
        yield crash_at - sim.now
    while check_node_quiescent(system, node_id) is not None:
        yield poll_ns
    state = NodeCheckpoint.capture(system, node_id)
    yield from crash_node(system, node_id, channels=channels,
                          poll_ns=poll_ns)
    invalidated = invalidate_node_mappings(system, node_id, mappings)
    if dwell_ns:
        yield dwell_ns
    result = yield from recover_node(system, state, mappings=invalidated,
                                     channels=channels, poll_ns=poll_ns)
    if outcome is not None:
        outcome.update(result)
    return result


def spawn_crash_restore_cycle(system, node_id, crash_at, dwell_ns, mappings,
                              channels=(), outcome=None):
    """Run :func:`crash_restore_cycle` as its own process."""
    return Process(
        system.sim,
        crash_restore_cycle(system, node_id, crash_at, dwell_ns, mappings,
                            channels=channels, outcome=outcome),
        "crash-cycle(%d)" % node_id,
    ).start()
