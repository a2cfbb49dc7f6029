"""Named end-to-end scenarios, each built into a started system.

The one table of the machine's canonical runs: the ckpt CLI, the
sanitizer (``python -m repro.lint --sanitize KEY``), the determinism
tests and the benches all build from here::

    from repro.scenarios import build

    system = build("contention")
    system.run()

Every builder is a pure function of its keyword arguments, so the same
name and kwargs always give a bit-identical run.  A *pin key* names a
run: the bare scenario name for its defaults, else ``name@k=v,...``
(``ping_pong@rounds=4``, ``dsm@seed=2``); :func:`build_key` turns one
into a started system.  ``make pin`` (that is,
``python -m repro.scenarios pin tests/fingerprints.json``) records each
scenario's fingerprint at default kwargs, plus the seeded
:data:`VARIANTS`; ``tests/test_scenarios.py`` holds every run to that
pin.

The four CPU-driven scenarios (:data:`CHECKPOINTABLE`, the choices of
``python -m repro.ckpt save``) run as
:class:`~repro.ckpt.workload.CpuWorker` workloads, so a run can be
paused, saved, resumed and forked; ``ping_pong`` and ``contention`` run
the programs of ``tests/test_golden_trace.py``, so a resumed run must
land on the golden observables.

:func:`run_crash_recovery` is the crash-recovery acceptance run: the
contention storm plus a reliable channel into node 5, crashed mid-storm
and restored in place from its per-node checkpoint (docs/faults.md).
Its final buffers must match :func:`run_fault_free` byte for byte.
"""

import json
import re
import sys

from repro.ckpt.divergence import fingerprint
from repro.ckpt.safepoint import seek_node_quiescence
from repro.ckpt.system import NodeCheckpoint
from repro.ckpt.workload import CpuWorker
from repro.cpu import Asm, Context, Mem, R4
from repro.faults.controller import FaultController
from repro.faults.plan import FaultPlan
from repro.faults.recovery import crash_restore
from repro.machine import ShrimpSystem, mapping
from repro.memsys.address import PAGE_SIZE, page_number
from repro.memsys.cache import CachePolicy
from repro.msg import deliberate
from repro.msg.layout import MessagingPair, PairLayout as L
from repro.msg.reliable import ReliableChannel
from repro.nic.nipt import MappingMode
from repro.sim.process import Process
from repro.workload.dsm_apps import DsmWorkload
from repro.workload.generator import DatacenterWorkload
from repro.workload.traffic import WorkloadParams

PONG_SBUF = 0x2A000
PONG_RBUF = 0x2C000
PONG_FLAG = L.FLAGS + 0x20

STORM_SRC = 0x10000
STORM_DEST_BASE = 0x100000
CHANNEL_SRC_BASE = 0x40000
CHANNEL_DEST_BASE = 0x40000
#: The crash victim: node 5 sits at mesh coordinates (1, 1) on the 4x4.
VICTIM = 5

#: Default fault plan seed for the ``fault_storm`` scenario.
STORM_SEED = 0xC0FFEE


def _started(width, height):
    system = ShrimpSystem(width, height)
    system.start()
    return system


def _worker(system, node_id, asm, name):
    CpuWorker(system, node_id, asm.build(), Context(stack_top=0x3F000),
              name).start()


# -- the CPU-driven, checkpointable scenarios ---------------------------------


def build_ping_pong(rounds=8):
    """Two nodes, single-buffered flag protocol, ``rounds`` round trips."""
    system = _started(2, 1)
    a, b = system.nodes
    MessagingPair(system, a, b, data_mode=MappingMode.AUTO_SINGLE)
    mapping.establish(b, PONG_SBUF, a, PONG_RBUF, PAGE_SIZE,
                      MappingMode.AUTO_SINGLE)

    asm = Asm("pinger")
    asm.mov(R4, rounds)
    asm.label("round")
    asm.mov(Mem(disp=L.SBUF0), 0xABCD)
    asm.mov(Mem(disp=L.flag(L.F_NBYTES)), 4)
    asm.label("echo_wait")
    asm.cmp(Mem(disp=PONG_FLAG), 0)
    asm.jz("echo_wait")
    asm.mov(Mem(disp=PONG_FLAG), 0)
    asm.dec(R4)
    asm.jnz("round")
    asm.halt()
    _worker(system, 0, asm, "pinger")

    asm = Asm("ponger")
    asm.mov(R4, rounds)
    asm.label("round")
    asm.label("ping_wait")
    asm.cmp(Mem(disp=L.flag(L.F_NBYTES)), 0)
    asm.jz("ping_wait")
    asm.mov(Mem(disp=L.flag(L.F_NBYTES)), 0)
    asm.mov(Mem(disp=PONG_SBUF), 0xDCBA)
    asm.mov(Mem(disp=PONG_FLAG), 1)
    asm.dec(R4)
    asm.jnz("round")
    asm.halt()
    _worker(system, 1, asm, "ponger")
    return system


def build_bandwidth(nbytes=16384):
    """One deliberate-update DMA transfer, sender node 0 to receiver node 1.

    The deliberate-update transfer of ``examples/block_transfer.py`` and
    ``repro.analysis.bandwidth``, at a single size and with the sender
    running as a :class:`CpuWorker` so the run is pause/resume-able.
    """
    system = _started(2, 1)
    sender, receiver = system.nodes
    buf_src, buf_dst = 0x40000, 0x80000
    mapping.establish(sender, buf_src, receiver, buf_dst, nbytes,
                      MappingMode.DELIBERATE)
    sender.mmu.set_policy(page_number(L.PRIV), CachePolicy.WRITE_THROUGH)
    payload = [(7 * i + 3) & 0xFFFFFFFF for i in range(nbytes // 4)]
    sender.memory.write_words(buf_src, payload)
    asm = deliberate.sender_program(system, sender, nbytes, buf_addr=buf_src)
    _worker(system, 0, asm, "sender")
    return system


def _storm(words_per_sender):
    """4x4 mesh; 15 nodes storm node 15 with automatic-update stores.
    Returns (system, mappings), one mapping record per sender."""
    system = _started(4, 4)
    hot = system.nodes[15]
    mappings = []
    for i, node in enumerate(system.nodes[:15]):
        dest = STORM_DEST_BASE + i * PAGE_SIZE
        mappings.append(mapping.establish(node, STORM_SRC, hot, dest,
                                          PAGE_SIZE, MappingMode.AUTO_SINGLE))
        asm = Asm("storm%d" % i)
        for j in range(words_per_sender):
            asm.mov(Mem(disp=STORM_SRC + 4 * (j % (PAGE_SIZE // 4))),
                    (i << 16) | j)
        asm.halt()
        _worker(system, node.node_id, asm, "storm%d" % i)
    return system, mappings


def build_contention(words_per_sender=8):
    """4x4 mesh; 15 nodes storm node 15 with automatic-update stores."""
    return _storm(words_per_sender)[0]


def build_blocked_stream(words=64):
    """One node streams consecutive words over a blocked-write mapping.

    Unlike the other scenarios this one reaches safepoints while a
    blocked-write merge window is *open* (its flush timer is the pending
    event), exercising the ``merge`` descriptor path of
    :class:`~repro.ckpt.system.SystemCheckpoint`.
    """
    system = _started(2, 1)
    a, b = system.nodes
    mapping.establish(a, 0x10000, b, 0x40000, PAGE_SIZE,
                      MappingMode.AUTO_BLOCKED)
    asm = Asm("streamer")
    for j in range(words):
        asm.mov(Mem(disp=0x10000 + 4 * (j % (PAGE_SIZE // 4))),
                0xBEEF0000 | j)
    asm.halt()
    _worker(system, 0, asm, "streamer")
    return system


# -- the storm plus a reliable channel, and its crash recovery ----------------


def default_payloads(count=12):
    return [[(0xC0DE0 | k) & 0xFFFFFFFF, 3 * k + 1] for k in range(count)]


def build_storm_with_channel(words_per_sender=24, payloads=None):
    """Build the storm + channel system.  Returns (system, channel,
    mappings, payloads) with every hardware mapping record collected for
    crash-time invalidation."""
    system, mappings = _storm(words_per_sender)
    channel = ReliableChannel(system, 0, VICTIM, CHANNEL_SRC_BASE,
                              CHANNEL_DEST_BASE)
    if payloads is None:
        payloads = default_payloads()
    for payload in payloads:
        channel.send(payload)
    channel.close()
    channel.start()
    mappings.extend(channel.mappings)
    return system, channel, mappings, payloads


def hot_buffers(system, words_per_sender):
    """Node 15's per-sender receive buffers, flattened (the storm image)."""
    hot = system.nodes[15]
    words = min(words_per_sender, PAGE_SIZE // 4)
    image = []
    for i in range(15):
        base = STORM_DEST_BASE + i * PAGE_SIZE
        image.extend(hot.memory.read_words(base, words))
    return image


def _observables(system, channel, words_per_sender):
    return {
        "end_time": system.sim.now,
        "hot_image": hot_buffers(system, words_per_sender),
        "app_words": channel.app_words(),
        "delivered": [list(seq_payload) for seq_payload in channel.delivered],
        "complete": channel.complete,
    }


def run_fault_free(words_per_sender=24, payloads=None):
    """The reference run: same workload, no faults."""
    system, channel = build_storm_with_channel(words_per_sender, payloads)[:2]
    system.run()
    return _observables(system, channel, words_per_sender)


def run_crash_recovery(words_per_sender=24, payloads=None, capture_at=6_000,
                       crash_delay_ns=30_000, dwell_ns=4_000,
                       collect_events=False):
    """Crash node 5 mid-storm, restore it, run to completion.

    The checkpoint is taken at the first per-node quiescent instant after
    ``capture_at``; the crash hits ``crash_delay_ns`` later, so everything
    the node did in between -- including the reliable frames it received
    and acked -- is rolled back and must be replayed.

    Returns the fault-free observables plus the recovery metrics:
    ``recovery_window_ns`` (crash to restore), ``replay_window_ns``
    (checkpoint to crash -- the work the node must redo),
    ``frames_replayed`` and ``retransmits`` (the channel's overhead) and
    ``dropped_packets`` (volatile NIC state lost with the node).
    """
    system, channel, mappings, _payloads = build_storm_with_channel(
        words_per_sender, payloads
    )
    hub = None
    if collect_events:
        hub = system.instrumentation
        hub.enable_events()
    system.run(until=capture_at)
    seek_node_quiescence(system, VICTIM)
    state = NodeCheckpoint.capture(system, VICTIM)
    orchestrator = Process(
        system.sim,
        crash_restore(system, VICTIM, system.sim.now + crash_delay_ns,
                      dwell_ns, mappings, (channel,), state),
        "recovery-orchestrator",
    ).start()
    system.run()

    recovery = orchestrator.result
    if recovery is None:
        raise RuntimeError("recovery orchestration never completed")
    result = _observables(system, channel, words_per_sender)
    result.update(
        recovery_window_ns=recovery["restored_at"] - recovery["crashed_at"],
        replay_window_ns=recovery["crashed_at"] - state["time"],
        dropped_packets=recovery["dropped_packets"],
        invalidated_mappings=recovery["invalidated_mappings"],
        frames_replayed=channel.frames_replayed.value,
        retransmits=channel.retransmits.value,
    )
    if hub is not None:
        result["fault_events"] = [
            event.kind for event in hub.events()
            if event.kind.startswith("fault.")
        ]
    return result


def _fault_storm(words_per_sender=12, fault_seed=STORM_SEED):
    """The storm plus channel under a seeded, crash-free fault schedule:
    link flaps, router stalls, and FIFO pressure, all inside the storm
    window."""
    system = build_storm_with_channel(words_per_sender=words_per_sender)[0]
    plan = FaultPlan.seeded(
        fault_seed,
        duration_ns=20_000,
        link_names=("link(1,1)->(2,1)", "link(2,2)->(2,1)", "inject(3)"),
        router_coords=((2, 1),),
        nodes=(7,),
        pressure_bytes=256,
    )
    FaultController(system, plan).arm()
    return system


# -- the datacenter and DSM workloads -----------------------------------------


def _workload(**kwargs):
    """The open-loop datacenter workload (:mod:`repro.workload`).

    Accepts every :class:`~repro.workload.traffic.WorkloadParams` field
    as a keyword (width, height, seed, requests, addr_map, ...).
    """
    return DatacenterWorkload(WorkloadParams(**kwargs)).start().system


def _dsm(**kwargs):
    """Fetch-on-fault shared memory (:mod:`repro.dsm`): the DSM app
    family -- stencil by default -- over the directory protocol.

    Accepts :class:`~repro.workload.dsm_apps.DsmWorkload` keywords
    (kind, width, height, iterations, words, seed, requests, ...).
    """
    return DsmWorkload(**kwargs).start().system


def homecrash_workload(width=4, height=4, iterations=2, seed=1,
                       crash_at=400_000, dwell_ns=120_000):
    """The DSM home-crash recovery run: the ``homecrash`` app with node
    1 -- home of the contended data page *and* of the lock -- crashed at
    ``crash_at`` through :meth:`DsmWorkload.crash_restore` and restored
    after ``dwell_ns``, so the directory rebuild, lease expiry and lock
    revocation all run.

    Returns the started workload.
    """
    workload = DsmWorkload(kind="homecrash", width=width, height=height,
                           iterations=iterations, seed=seed).start()
    workload.crash_restore(1, crash_at, dwell_ns)
    return workload


#: name -> builder(**kwargs) returning a started ShrimpSystem.
SCENARIOS = {
    "ping_pong": build_ping_pong,
    "bandwidth": build_bandwidth,
    "contention": build_contention,
    "blocked_stream": build_blocked_stream,
    "fault_storm": _fault_storm,
    "workload": _workload,
    "dsm": _dsm,
    "dsm_homecrash": lambda **kwargs: homecrash_workload(**kwargs).system,
}

#: The scenarios whose whole-system checkpoint restores (the ckpt CLI's
#: choices).  The rest register metrics (``dsm.*``, ``faults.*``,
#: ``wl.*``) that the bare machine a restore builds lacks, so restoring
#: them fails with a configuration mismatch.
CHECKPOINTABLE = ("ping_pong", "bandwidth", "contention", "blocked_stream")

#: Pinned runs beyond the defaults: a second seed for every scenario
#: whose retry, lease, replay, retransmit or crash paths depend on one.
VARIANTS = (
    ("dsm", {"seed": 2}),
    ("dsm_homecrash", {"seed": 2}),
    ("fault_storm", {"fault_seed": 2}),
    ("workload", {"seed": 2}),
)


def variant_key(name, kwargs):
    """The pin key of scenario ``name`` at ``kwargs``: the bare name for
    the defaults, else ``name@k=v,...`` with the keywords sorted."""
    if not kwargs:
        return name
    return "%s@%s" % (name, ",".join(
        "%s=%s" % item for item in sorted(kwargs.items())))


_KEYWORD = re.compile(r"([A-Za-z_]\w*)=(-?\d+)$")


def parse_key(key):
    """Inverse of :func:`variant_key`: ``(name, kwargs)``.  A keyword
    that is not ``name=integer`` raises ``ValueError`` naming ``key``."""
    name, _, spec = key.partition("@")
    kwargs = {}
    for item in filter(None, spec.split(",")):
        match = _KEYWORD.match(item)
        if match is None:
            raise ValueError("malformed scenario key %r: %r is not "
                             "KEYWORD=INTEGER" % (key, item))
        kwargs[match.group(1)] = int(match.group(2))
    return name, kwargs


def pin_keys():
    """Every pinned key: each scenario at its defaults, then the
    :data:`VARIANTS`."""
    return sorted(SCENARIOS) + [variant_key(name, kwargs)
                                for name, kwargs in VARIANTS]


def build(name, **kwargs):
    """Build scenario ``name`` with ``kwargs`` and return its started
    system; ``KeyError`` for an unknown name."""
    return SCENARIOS[name](**kwargs)


def build_key(key):
    """Build pin ``key`` (see :func:`variant_key`) and return its started
    system.

    A malformed key, an unknown scenario name or a keyword its builder
    does not take raises ``ValueError`` naming the key, so a command
    line can report it as a usage error.
    """
    name, kwargs = parse_key(key)
    if name not in SCENARIOS:
        raise ValueError("unknown scenario %r; known: %s"
                         % (name, ", ".join(sorted(SCENARIOS))))
    try:
        return build(name, **kwargs)
    except TypeError as exc:
        raise ValueError("scenario key %r: %s" % (key, exc)) from None


def pinned_fingerprint(key):
    """The fingerprint of pin ``key``, run to idle, minus
    ``event_count``.

    The event count is engine bookkeeping (folding wake-ups changes it
    while every physical observable stays put), so the pin in
    ``tests/fingerprints.json`` leaves it out.
    """
    system = build_key(key)
    system.run(max_events=2_000_000)
    pinned = fingerprint(system)
    del pinned["event_count"]
    return pinned


def pin(path):
    """Record the :func:`pinned_fingerprint` of every :func:`pin_keys`
    entry into ``path``."""
    pins = {key: pinned_fingerprint(key) for key in pin_keys()}
    with open(path, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "pin":
        sys.exit("usage: python -m repro.scenarios pin PATH")
    pin(sys.argv[2])
