"""The safepoint predicate: when is the whole machine checkpointable?

A *safepoint* is an instant at which every pending simulator event is a
re-schedulable **descriptor** and every device datapath is quiescent.
Concretely:

- every live event in the queue is either a :class:`CpuWorker` resume
  (the per-instruction timeout of ``Cpu.run_slice``, or the not-yet-fired
  start event of an unprimed worker) or the flush timer of an open
  blocked-write merge window;
- every started, unfinished worker owns exactly one such event (a worker
  parked on a signal -- mid memory transaction, blocked on a FIFO -- owns
  none and is *not* at a boundary), or is parked in a folded spin loop
  (``Cpu.spin_state``), which owns none but sits at an instruction
  boundary by construction: its descriptor's due time is the spin's next
  step, and the CPU's capture carries the spin's timeline;
- every suspended worker generator sits at ``run_slice``'s leading
  per-instruction ``yield`` (its innermost frame is ``run_slice`` itself;
  every other suspension is a ``yield from`` delegation whose innermost
  frame belongs to the cache, bus or NIC);
- the devices are idle: DMA engines disarmed, NIC FIFOs and kernel
  inboxes empty, bus/EISA arbiters and router output ports unlocked, no
  flits on any link, no pending CPU interrupts.

At such an instant the machine is fully described by functional state
(memory, caches, NIPTs, counters) plus a short list of ``(due, kind)``
descriptors -- no generator continuation needs serializing.  The spin-wait
structure of SHRIMP workloads makes safepoints dense in practice: between
instruction issue and the next device activity, most instants qualify.

``check_safepoint`` returns ``None`` or a human-readable *reason* the
instant does not qualify; ``seek_safepoint`` single-steps the engine until
one is reached.
"""

import inspect

from repro.ckpt.protocol import SafepointError
from repro.cpu.core import Cpu
from repro.sim.engine import is_tick_marker


def live_entries(sim):
    """Every not-cancelled, not-spent entry in the event queue, a parked
    poll's tick marker included (its callback slot is ``None``).

    Heap before bucket; callers needing global order sort by sequence
    number (``entry[1]``), which is unique across both containers.
    """
    entries = [entry for entry in sim._heap
               if entry[2] is not None or is_tick_marker(entry)]
    entries += [entry for entry in sim._bucket if entry[2] is not None]
    return entries


def _innermost(generator):
    while True:
        nested = getattr(generator, "gi_yieldfrom", None)
        if nested is None:
            return generator
        generator = nested


def _callback_name(callback):
    return getattr(callback, "__qualname__", None) or repr(callback)


def _fold_descriptors(system, node_id=None):
    """Descriptors of the workers parked in a folded spin.  They own no
    queue entry, so they follow the sorted entries (re-parking schedules
    nothing)."""
    descriptors = []
    for index, worker in enumerate(system.ckpt_workers):
        if node_id is not None and worker.node_id != node_id:
            continue
        process = worker.process
        if process is None or process.finished:
            continue
        cpu = system.nodes[worker.node_id].cpu
        if cpu.spin_state(process) == "parked":
            descriptors.append(
                {"kind": "worker", "index": index, "due": cpu.fold_due()})
    return descriptors


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


def classify_entries(system):
    """Classify every live queue entry, or explain why one resists.

    Returns ``(descriptors, reason)`` where exactly one side is ``None``.
    Each descriptor is a JSON-safe dict -- ``{"kind": "worker", "index":
    i, "due": t}`` or ``{"kind": "merge", "node": n, "due": t}`` -- and the
    list is sorted by the entries' original sequence numbers, so replaying
    ``schedule`` calls in list order reproduces the original (time, seq)
    relative order exactly.  Workers parked in a folded spin come last.
    """
    workers = system.ckpt_workers
    resume_owner = {}
    for index, worker in enumerate(workers):
        process = worker.process
        if process is not None and not process.finished:
            resume_owner[process._resume] = index

    flush_nodes = {}
    for node in system.nodes:
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
    for entry in live_entries(system.sim):
        callback = entry[2]
        index = resume_owner.get(callback)
        if index is not None:
            ordered.append(
                (entry[1], {"kind": "worker", "index": index, "due": entry[0]})
            )
            continue
        node_id = flush_nodes.get(id(entry))
        if node_id is not None:
            ordered.append(
                (entry[1], {"kind": "merge", "node": node_id, "due": entry[0]})
            )
            continue
        return None, (
            "pending event at t=%d (%s) is neither a worker resume nor a "
            "merge flush" % (entry[0], _callback_name(callback or entry[3]))
        )
    ordered.sort()
    descriptors = [descriptor for _, descriptor in ordered]
    return descriptors + _fold_descriptors(system), None


def check_safepoint(system):
    """Return ``None`` if the system is checkpointable now, else a reason."""
    descriptors, reason = classify_entries(system)
    if reason is not None:
        return reason

    owned = {}
    for descriptor in descriptors:
        if descriptor["kind"] == "worker":
            index = descriptor["index"]
            owned[index] = owned.get(index, 0) + 1

    for index, worker in enumerate(system.ckpt_workers):
        process = worker.process
        if process is None:
            return "worker %s has never been started" % worker.name
        if process.finished:
            continue
        reason = _boundary_reason(system, worker, owned.get(index, 0))
        if reason is not None:
            return reason

    for node in system.nodes:
        if node.kernel is not None:
            return (
                "node %s has an OS kernel installed (live OS runs are not "
                "checkpointable yet; see ROADMAP)" % node.name
            )
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
    for link in backplane.iter_links():
        if not link.ckpt_idle():
            return "mesh link %s is not idle" % link.name
    for node_id, lock in backplane._injection_locks.items():
        if lock.locked:
            return "injection port of node %d is held by a worm" % node_id
    for coords, router in backplane.routers.items():
        for output in router.outputs.values():
            if output.mutex.locked:
                return "router (%d,%d) output %s is held by a worm" % (
                    coords[0], coords[1], output.name)
    return None


def classify_node_entries(system, node_id):
    """Classify ``node_id``'s own live queue entries; ignore foreign ones.

    The node-granular sibling of :func:`classify_entries`: only events
    owned by this node's workers (plus its NIC's merge-flush timer) are
    described -- the rest of the machine keeps its events and keeps
    running.  Returns ``(descriptors, reason)`` with exactly one side
    ``None``; descriptor ``index`` values index ``system.ckpt_workers``
    globally, as in the whole-machine format.
    """
    resume_owner = {}
    for index, worker in enumerate(system.ckpt_workers):
        if worker.node_id != node_id:
            continue
        process = worker.process
        if process is not None and not process.finished:
            resume_owner[process._resume] = index

    node = system.nodes[node_id]
    flush_event_id = None
    merge = node.nic._merge
    if merge is not None:
        if merge.flush_event is None or merge.flush_event.cancelled:
            return None, (
                "%s has an open merge window with no pending flush timer"
                % node.nic.name
            )
        flush_event_id = id(merge.flush_event)

    ordered = []
    for entry in live_entries(system.sim):
        index = resume_owner.get(entry[2])
        if index is not None:
            ordered.append(
                (entry[1], {"kind": "worker", "index": index, "due": entry[0]})
            )
        elif flush_event_id is not None and id(entry) == flush_event_id:
            ordered.append(
                (entry[1], {"kind": "merge", "node": node_id, "due": entry[0]})
            )
    ordered.sort()
    descriptors = [descriptor for _, descriptor in ordered]
    return descriptors + _fold_descriptors(system, node_id), None


def check_node_quiescent(system, node_id):
    """Return ``None`` when one node's slice of the machine is capturable.

    The per-node analogue of :func:`check_safepoint`, for crash/restore
    granularity (repro.faults): only this node's workers, NIC datapath,
    bus/EISA fabric and mesh access ports must be quiescent -- the other
    fifteen nodes may be mid-storm.  The NIC's three datapath processes
    prove their idleness by *which signal they are parked on*: the inject
    and delivery loops on their FIFOs' change signals, the accept loop on
    the ejection link's not-empty signal (anywhere else means a packet is
    mid-pipeline or flow control is asserted).
    """
    node = system.nodes[node_id]
    if node.kernel is not None:
        return (
            "node %s has an OS kernel installed (live OS runs are not "
            "checkpointable yet; see ROADMAP)" % node.name
        )

    descriptors, reason = classify_node_entries(system, node_id)
    if reason is not None:
        return reason
    owned = {}
    for descriptor in descriptors:
        if descriptor["kind"] == "worker":
            index = descriptor["index"]
            owned[index] = owned.get(index, 0) + 1

    for index, worker in enumerate(system.ckpt_workers):
        if worker.node_id != node_id:
            continue
        process = worker.process
        if process is None:
            # Unscheduled: either never started or crashed -- nothing to
            # describe, and restore can rebuild it either way.
            continue
        if process.finished:
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


def seek_node_quiescence(system, node_id, max_events=1_000_000):
    """Single-step the engine until one node's slice is quiescent.

    The node-granular :func:`seek_safepoint`: the rest of the machine may
    stay arbitrarily busy.  Returns the number of events stepped.  Raises
    :class:`SafepointError` on budget exhaustion or a drained queue.
    """
    stepped = 0
    while True:
        reason = check_node_quiescent(system, node_id)
        if reason is None:
            return stepped
        if stepped >= max_events:
            raise SafepointError(
                "node %d not quiescent within %d events (reached t=%d ns; "
                "blocking: %s)" % (node_id, max_events, system.sim.now, reason),
                obstacle=reason, sim_time=system.sim.now, stepped=stepped,
            )
        if not system.sim.step():
            reason = check_node_quiescent(system, node_id)
            if reason is None:
                return stepped
            raise SafepointError(
                "event queue drained at t=%d ns without node %d quiescing: %s"
                % (system.sim.now, node_id, reason),
                obstacle=reason, sim_time=system.sim.now, stepped=stepped,
            )
        stepped += 1


def seek_safepoint(system, max_events=1_000_000):
    """Single-step the engine until :func:`check_safepoint` passes.

    Returns the number of events stepped (0 if already at a safepoint).
    Raises :class:`SafepointError` if the event budget runs out or the
    queue drains while the machine still fails the predicate.
    """
    stepped = 0
    while True:
        reason = check_safepoint(system)
        if reason is None:
            return stepped
        if stepped >= max_events:
            raise SafepointError(
                "no safepoint within %d events (reached t=%d ns; blocking: %s)"
                % (max_events, system.sim.now, reason),
                obstacle=reason, sim_time=system.sim.now, stepped=stepped,
            )
        if not system.sim.step():
            reason = check_safepoint(system)
            if reason is None:
                return stepped
            raise SafepointError(
                "event queue drained at t=%d ns without reaching a "
                "safepoint: %s" % (system.sim.now, reason),
                obstacle=reason, sim_time=system.sim.now, stepped=stepped,
            )
        stepped += 1
