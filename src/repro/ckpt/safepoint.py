"""The safepoint predicate: when is a node, or the whole machine,
checkpointable?

One node is *quiescent* (:func:`check_node_quiescent`, the per-node
checkpoints of crash recovery) when everything it owns can be described
without a generator continuation:

- each of its pending simulator events is a re-schedulable
  **descriptor**: a :class:`CpuWorker` resume (the per-instruction
  timeout of ``Cpu.run_slice``, or the not-yet-fired start event of an
  unprimed worker) or the flush timer of its NIC's open blocked-write
  merge window; events of other nodes are not its business;
- each of its started, unfinished workers owns exactly one such event (a
  worker parked on a signal -- mid memory transaction, blocked on a FIFO
  -- owns none and is *not* at a boundary), or is parked in a folded
  spin loop (``Cpu.spin_state``), which owns none but sits at an
  instruction boundary by construction: its descriptor's due time is the
  spin's next step, and the CPU's capture carries the spin's timeline;
- each suspended worker generator sits at ``run_slice``'s leading
  per-instruction ``yield`` (its innermost frame is ``run_slice`` itself;
  every other suspension is a ``yield from`` delegation whose innermost
  frame belongs to the cache, bus or NIC);
- its devices are idle: DMA engine disarmed, NIC FIFOs and kernel inbox
  empty, bus/EISA arbiters unlocked, injection port free, injection and
  ejection links empty, NIC datapath loops parked on their signals, no
  pending CPU interrupts.

A whole-machine *safepoint* (:func:`check_safepoint`, for save, resume
and replay) is every worker started, every node quiescent, no queue
entry that no node owns, and an idle mesh: no flits on any link and no
router output port held.  Its descriptors are the per-node descriptors
merged in sequence order, with the folded spins last; one classifier
(:func:`classify_entries`, :func:`classify_node_entries`) and one seek
loop serve both granularities.

At such an instant the machine is fully described by functional state
(memory, caches, NIPTs, counters) plus a short list of ``(due, kind)``
descriptors -- no generator continuation needs serializing.  The spin-wait
structure of SHRIMP workloads makes safepoints dense in practice: between
instruction issue and the next device activity, most instants qualify.

``check_safepoint`` returns ``None`` or a human-readable *reason* the
instant does not qualify; ``seek_safepoint`` single-steps the engine until
one is reached (``seek_node_quiescence`` for one node).
"""

import inspect

from repro.ckpt.protocol import SafepointError
from repro.cpu.core import Cpu


def _innermost(generator):
    while True:
        nested = getattr(generator, "gi_yieldfrom", None)
        if nested is None:
            return generator
        generator = nested


def _callback_name(callback):
    return getattr(callback, "__qualname__", None) or repr(callback)


def _boundary_reason(system, worker, owned):
    """Why ``worker`` is not parked at an instruction boundary, or None."""
    process = worker.process
    spin = system.nodes[worker.node_id].cpu.spin_state(process)
    if spin == "parked":
        return None
    if spin == "finishing":
        return ("worker %s is finishing a folded spin's read, not at an "
                "instruction boundary" % worker.name)
    if owned != 1:
        return (
            "worker %s owns %d pending resume events (a boundary-parked "
            "worker owns exactly 1)" % (worker.name, owned)
        )
    state = inspect.getgeneratorstate(process._generator)
    if state == inspect.GEN_CREATED:
        return None  # unprimed: the pending event is its start
    if state != inspect.GEN_SUSPENDED:
        return "worker %s generator is %s" % (worker.name, state)
    inner = _innermost(process._generator)
    if getattr(inner, "gi_code", None) is not Cpu.run_slice.__code__:
        return (
            "worker %s is suspended inside %s, not at a run_slice "
            "instruction boundary"
            % (worker.name, getattr(inner, "__qualname__", inner))
        )
    return None


def _classify(system, node_id):
    """The one entry classifier behind :func:`classify_entries` (``node_id``
    None: every node, and an entry no node owns refuses) and
    :func:`classify_node_entries` (one node; foreign entries are ignored).
    """
    resume_owner = {}
    folded = []  # parked in a folded spin: no queue entry, so they go last
    for index, worker in enumerate(system.ckpt_workers):
        if node_id is not None and worker.node_id != node_id:
            continue
        process = worker.process
        if process is None or process.finished:
            continue
        resume_owner[process._resume] = index
        cpu = system.nodes[worker.node_id].cpu
        if cpu.spin_state(process) == "parked":
            folded.append(
                {"kind": "worker", "index": index, "due": cpu.fold_due()})

    flush_nodes = {}
    for node in system.nodes if node_id is None else (system.nodes[node_id],):
        merge = node.nic._merge
        if merge is None:
            continue
        if merge.flush_event is None or merge.flush_event.cancelled:
            return None, (
                "%s has an open merge window with no pending flush timer"
                % node.nic.name
            )
        flush_nodes[id(merge.flush_event)] = node.node_id

    ordered = []
    for entry in system.sim.live_entries():
        due, seq, callback, args = entry
        index = resume_owner.get(callback)
        if index is not None:
            ordered.append(
                (seq, {"kind": "worker", "index": index, "due": due}))
            continue
        owner = flush_nodes.get(id(entry))
        if owner is not None:
            ordered.append((seq, {"kind": "merge", "node": owner, "due": due}))
            continue
        if node_id is None:
            return None, (
                "pending event at t=%d (%s) is neither a worker resume nor a "
                "merge flush" % (due, _callback_name(callback or args))
            )
    ordered.sort()
    return [descriptor for _, descriptor in ordered] + folded, None


def classify_entries(system):
    """Classify every live queue entry, or explain why one resists.

    Returns ``(descriptors, reason)`` where exactly one side is ``None``.
    Each descriptor is a JSON-safe dict -- ``{"kind": "worker", "index":
    i, "due": t}`` or ``{"kind": "merge", "node": n, "due": t}`` -- and the
    list is sorted by the entries' original sequence numbers, so replaying
    ``schedule`` calls in list order reproduces the original (time, seq)
    relative order exactly.  Workers parked in a folded spin come last.
    These are every node's :func:`classify_node_entries` merged in
    sequence order; an entry that no node owns refuses.
    """
    return _classify(system, None)


def classify_node_entries(system, node_id):
    """Classify ``node_id``'s own live queue entries; ignore foreign ones.

    Only events owned by this node's workers (plus its NIC's merge-flush
    timer) are described -- the rest of the machine keeps its events and
    keeps running.  Same return shape as :func:`classify_entries`;
    descriptor ``index`` values index ``system.ckpt_workers`` globally,
    as in the whole-machine format.
    """
    return _classify(system, node_id)


def _owned(descriptors):
    """Worker index -> how many of ``descriptors`` it owns."""
    owned = {}
    for descriptor in descriptors:
        if descriptor["kind"] == "worker":
            index = descriptor["index"]
            owned[index] = owned.get(index, 0) + 1
    return owned


def _node_reason(system, node_id, owned):
    """Why node ``node_id`` is not quiescent, or None; ``owned`` counts
    the pending resume events of each worker (see :func:`_owned`).

    The node's workers sit at instruction boundaries, its NIC datapath,
    bus/EISA fabric and mesh access ports are idle.  The NIC's three
    datapath processes prove their idleness by *which signal they are
    parked on*: the inject and delivery loops on their FIFOs' change
    signals, the accept loop on the ejection link's not-empty signal
    (anywhere else means a packet is mid-pipeline or flow control is
    asserted).
    """
    node = system.nodes[node_id]
    if node.kernel is not None:
        return (
            "node %s has an OS kernel installed (live OS runs are not "
            "checkpointable; see docs/checkpoint.md)" % node.name
        )

    for index, worker in enumerate(system.ckpt_workers):
        if worker.node_id != node_id:
            continue
        process = worker.process
        if process is None or process.finished:
            # Unscheduled (never started or crashed) or done: nothing to
            # describe, and restore can rebuild it either way.
            continue
        reason = _boundary_reason(system, worker, owned.get(index, 0))
        if reason is not None:
            return reason

    nic = node.nic
    if nic.dma_engine.busy:
        return "%s DMA engine has a transfer in flight" % nic.name
    if len(nic.outgoing_fifo):
        return "%s outgoing FIFO holds %d packets" % (
            nic.name, len(nic.outgoing_fifo))
    if len(nic.incoming_fifo):
        return "%s incoming FIFO holds %d packets" % (
            nic.name, len(nic.incoming_fifo))
    if len(nic.kernel_inbox):
        return "%s kernel inbox holds %d messages" % (
            nic.name, len(nic.kernel_inbox))
    if node.bus._mutex.locked:
        return "%s has a bus transaction in flight" % node.name
    if node.eisa._mutex.locked:
        return "%s has an EISA burst in flight" % node.name
    if node.cpu._pending_interrupts:
        return "%s has %d pending CPU interrupts" % (
            node.name, len(node.cpu._pending_interrupts))
    if node.cpu._preempt:
        return "%s CPU has a pending preemption" % node.name

    backplane = system.backplane
    if backplane._injection_locks[node_id].locked:
        return "injection port of node %d is held by a worm" % node_id
    injection = backplane.injection_link(node_id)
    ejection = backplane.ejection_link(node_id)
    if not injection.ckpt_idle():
        return "injection link %s is not idle" % injection.name
    if not ejection.ckpt_idle():
        return "ejection link %s is not idle" % ejection.name

    if not nic._started:
        return "%s datapath processes were never started" % nic.name
    if nic.inject_process._waiting_on is not nic.outgoing_fifo._changed:
        return "%s inject loop is mid-pipeline" % nic.name
    if nic.delivery_process._waiting_on is not nic.incoming_fifo._changed:
        return "%s delivery loop is mid-pipeline" % nic.name
    if nic.accept_process._waiting_on is not ejection._not_empty:
        return "%s accept loop is mid-pipeline" % nic.name
    return None


def check_node_quiescent(system, node_id):
    """Return ``None`` when one node's slice of the machine is capturable.

    The per-node predicate, for crash/restore granularity (repro.faults):
    only this node's queue entries, workers, NIC datapath, bus/EISA
    fabric and mesh access ports must be quiescent -- the other fifteen
    nodes may be mid-storm.
    """
    descriptors, reason = classify_node_entries(system, node_id)
    if reason is not None:
        return reason
    return _node_reason(system, node_id, _owned(descriptors))


def check_safepoint(system):
    """Return ``None`` if the system is checkpointable now, else a reason.

    A safepoint is every worker started, every node quiescent (the node
    predicate of :func:`check_node_quiescent`), no queue entry that no
    node owns, and an idle mesh: no flits on any link and no router
    output held (each node's injection port is part of its predicate).
    """
    descriptors, reason = classify_entries(system)
    if reason is not None:
        return reason
    for worker in system.ckpt_workers:
        if worker.process is None:
            return "worker %s has never been started" % worker.name
    owned = _owned(descriptors)
    for node in system.nodes:
        reason = _node_reason(system, node.node_id, owned)
        if reason is not None:
            return reason

    backplane = system.backplane
    for link in backplane.iter_links():
        if not link.ckpt_idle():
            return "mesh link %s is not idle" % link.name
    for coords, router in backplane.routers.items():
        for output in router.outputs.values():
            if output.mutex.locked:
                return "router (%d,%d) output %s is held by a worm" % (
                    coords[0], coords[1], output.name)
    return None


def _seek(system, check, max_events, exhausted, drained):
    """Single-step the engine until ``check()`` returns None; the error
    formats take ``(max_events, now, reason)`` and ``(now, reason)``."""
    sim = system.sim
    stepped = 0
    while True:
        reason = check()
        if reason is None:
            return stepped
        if stepped >= max_events:
            raise SafepointError(
                exhausted % (max_events, sim.now, reason),
                obstacle=reason, sim_time=sim.now, stepped=stepped,
            )
        if not sim.step():
            reason = check()
            if reason is None:
                return stepped
            raise SafepointError(
                drained % (sim.now, reason),
                obstacle=reason, sim_time=sim.now, stepped=stepped,
            )
        stepped += 1


def seek_node_quiescence(system, node_id, max_events=1_000_000):
    """Single-step the engine until one node's slice is quiescent.

    The node-granular :func:`seek_safepoint`: the rest of the machine may
    stay arbitrarily busy.  Returns the number of events stepped.  Raises
    :class:`SafepointError` on budget exhaustion or a drained queue.
    """
    return _seek(
        system, lambda: check_node_quiescent(system, node_id), max_events,
        "node %d not quiescent within %%d events (reached t=%%d ns; "
        "blocking: %%s)" % node_id,
        "event queue drained at t=%%d ns without node %d quiescing: %%s"
        % node_id,
    )


def seek_safepoint(system, max_events=1_000_000):
    """Single-step the engine until :func:`check_safepoint` passes.

    Returns the number of events stepped (0 if already at a safepoint).
    Raises :class:`SafepointError` if the event budget runs out or the
    queue drains while the machine still fails the predicate.
    """
    return _seek(
        system, lambda: check_safepoint(system), max_events,
        "no safepoint within %d events (reached t=%d ns; blocking: %s)",
        "event queue drained at t=%d ns without reaching a safepoint: %s",
    )
