"""The DSM protocol engine: fetch-on-fault, single-writer/multi-reader.

One :class:`DsmRuntime` owns the whole machine's shared-page coherence.
Per node it runs a *service* process (the software DSM handler the
paper's fault model implies) that drains an inbox of protocol messages;
per communicating node pair it owns a :class:`~repro.msg.reliable.
ReliableChannel` in each direction, so every protocol message is
exactly-once and in-order even under a FaultPlan.

Protocol shape (the Pilevisor ``vsm.c`` lineage: owner lookup, read
request, read reply, cache install -- with the directory at the home
node the :class:`~repro.machine.addrmap.AddrMap` picks):

- a local access to a non-resident page **faults** (:meth:`DsmRuntime.
  fault`): the faulting node maps its frame in, marks it FETCHING and
  sends ``READ_REQ``/``WRITE_REQ`` to the page's home;
- the **home** serialises transactions per page.  A read grant recalls
  the current writer if any (``RECALL_READ`` -- the writer pushes the
  page home and keeps a read copy), registers the reader, pushes the
  page and sends ``READ_OK``.  A write grant recalls the writer
  (``RECALL_WRITE`` -- push home, drop copy), then walks every reader
  copy with ``INVAL_REQ`` in sorted node order -- the same section 4.4
  NIPT-consistency walk crash recovery uses -- and only after the last
  ``INVAL_ACK`` pushes the page and sends ``WRITE_OK``;
- **data** moves as one page-sized deliberate-update DMA through a
  transient outgoing NIPT half (section 4.3's one-page send), always
  relayed through the home.  The home's frame is the memory copy.  Data
  and the grant that follows it share one mesh path, so the paper's
  per-sender in-order delivery makes the deposit land first.

Grants carry a **token** the requester chose; a requester accepts a
grant only while FETCHING with a matching token.  Tokens are runtime
(not DRAM) state, monotonic per node, so a grant that was in flight
across a crash/restore is ignored and the restarted requester re-faults
-- and because grants *always* re-push data, the re-fault restores the
page bytes no matter what the rollback undid.  The home records the
last granted ``(requester, kind, token)`` per page in the directory, so
a duplicate delivery of an already-granted request (a retry that raced
its own grant) is dropped instead of re-pushing the home's stale copy
over whatever the new owner has written since.  All durable protocol
state (page states, directory, frame bytes) lives in DRAM, so a node
checkpoint rolls it back consistently and channel replay re-drives the
service deterministically: a client crash is rollback + replay, exactly
the :mod:`repro.msg.reliable` story.  A restored *home* additionally
rebuilds its directories from the survivors' claims, and every fault
carries a lease so a faulter whose home died parks and replays instead
of retrying blind (the crash-recovery section below).

Locality: a node's service only ever touches that node's hardware;
every cross-node effect is a message or a DMA.
"""

from collections import deque

from repro.dsm.state import (
    FETCHING,
    INVALID,
    READ,
    WRITE,
    Directory,
    DsmError,
    DsmLayout,
    PageStateTable,
)
from repro.faults.plan import SeededStream
from repro.memsys.address import PAGE_SIZE, WORD_SIZE
from repro.msg.reliable import ReliableChannel
from repro.nic.command import CommandOp, encode_command
from repro.nic.nipt import MappingMode, OutgoingHalf
from repro.sim.instrument import Instrumentation
from repro.sim.poll import poll
from repro.sim.process import Process, Signal
from repro.workload.arena import ChannelArenas

#: Protocol timing: word polls, request re-sends, the parked faulter's
#: backoff cap, one segment access.
POLL_NS = 400
RETRY_NS = 200_000
BACKOFF_CAP_NS = 1_600_000
ACCESS_NS = 60
#: Protocol channels carry ``[kind, page, arg]`` payloads; ack polling
#: and retransmit timeout are the channel's own defaults.
PAYLOAD_WORDS = 3
WINDOW_SLOTS = 4
APP_WRAP_WORDS = 16

#: Protocol message kinds (one reliable-channel payload is
#: ``[kind, page, arg]``).
READ_REQ = 1
WRITE_REQ = 2
READ_OK = 3
WRITE_OK = 4
RECALL_READ = 5
RECALL_WRITE = 6
RECALL_ACK = 7
INVAL_REQ = 8
INVAL_ACK = 9
#: Sync kinds are routed to the object attached to the page
#: (:mod:`repro.dsm.sync`).
BARRIER_ARRIVE = 10
BARRIER_RELEASE = 11
LOCK_ACQ = 12
LOCK_GRANT = 13
LOCK_REL = 14
#: Directory-rebuild kinds (home-crash recovery, :meth:`DsmRuntime.
#: node_restored`).  A restored home broadcasts ``RECOVER_REQ``; peers
#: answer one ``RECOVER_CLAIM`` per surviving right or byte copy and
#: fence with ``RECOVER_DONE``; the home refreshes its memory copy with
#: ``RECOVER_PULL``/``RECOVER_PULL_ACK`` and unparks blocked faulters
#: with ``REBUILD_DONE``.  ``LOCK_RENEW`` is the holder-side heartbeat
#: of the lock lease (:mod:`repro.dsm.sync`).
RECOVER_REQ = 15
RECOVER_CLAIM = 16
RECOVER_DONE = 17
RECOVER_PULL = 18
RECOVER_PULL_ACK = 19
REBUILD_DONE = 20
LOCK_RENEW = 21

_SYNC_KINDS = (BARRIER_ARRIVE, BARRIER_RELEASE, LOCK_ACQ, LOCK_GRANT,
               LOCK_REL, LOCK_RENEW)

#: RECOVER_CLAIM codes (low 3 bits of the claim arg; the grant stamp is
#: in the bits above).  READ/WRITE claim a live right; PUSHED claims no
#: right but a frame whose bytes match the stamped grant generation (a
#: recalled or invalidated copy -- the freshest surviving bytes when the
#: home's own frame rolled back past a push); LOCK claims lock tenure.
CLAIM_READ = 1
CLAIM_WRITE = 2
CLAIM_PUSHED = 3
CLAIM_LOCK = 4
_CLAIM_CODE_BITS = 3

#: Grants pack ``(stamp << 16) | (token & 0xFFFF)`` into their arg word:
#: the requester-chosen token (low bits) matches the grant to a pending
#: fault, the home-issued per-page grant stamp (high bits) gives claims
#: a total order per page for conflict resolution after a home crash.
_STAMP_SHIFT = 16
_TOKEN_MASK = (1 << _STAMP_SHIFT) - 1


class DsmRuntime:
    """Build with the system, a :class:`~repro.dsm.state.DsmLayout` and
    the set of node pairs that will exchange coherence traffic.

    ``pairs`` are unordered ``(a, b)`` node pairs; a channel is built in
    each direction.  Every node must be paired with the home of every
    page it touches (requests, grants, recalls and invalidations all
    travel the requester--home and owner--home edges only).

    The crash path is always on:

    - a blocked faulter whose lease (``lease_ns`` plus a per-node jitter
      drawn from ``seed``) expires parks and replays its request with
      exponential backoff capped at :data:`BACKOFF_CAP_NS`, and replays
      immediately when the home's ``REBUILD_DONE`` arrives;
    - a restored home rebuilds its pages' directories from surviving
      claims (:meth:`node_restored`) instead of trusting the rolled-back
      DRAM image;
    - every node runs a lease agent renewing its lock tenures every
      ``renew_ns``, and a :class:`~repro.dsm.sync.DsmLock` home revokes
      a holder whose lease (``lease_ns``) lapsed.
    """

    def __init__(self, system, layout, pairs, seed=1, lease_ns=1_200_000,
                 renew_ns=250_000):
        if not isinstance(layout, DsmLayout):
            raise DsmError("layout must be a DsmLayout")
        n = len(system.nodes)
        if layout.node_count != n:
            raise DsmError(
                "layout built for %d nodes, system has %d"
                % (layout.node_count, n)
            )
        self.system = system
        self.layout = layout
        self.lease_ns = lease_ns
        self.renew_ns = renew_ns
        # Per-node lease jitter, so expiries never synchronise fleet-wide.
        self._jitter = [
            SeededStream(seed * 1_000_003 + node_id).between(0, 4 * POLL_NS)
            for node_id in range(n)
        ]

        self._pstates = [PageStateTable(layout, node) for node in system.nodes]
        self._dirs = [Directory(layout, node) for node in system.nodes]
        self._inboxes = [deque() for _ in range(n)]
        self._signals = [Signal(system.sim, "dsm.inbox(%d)" % i)
                         for i in range(n)]
        self._txn = [dict() for _ in range(n)]     # home: page -> txn
        self._defer = [dict() for _ in range(n)]   # home: page -> [(k,s,t)]
        self._pending = [dict() for _ in range(n)] # requester: page -> token
        self._token_seq = [0] * n
        self._busy = [False] * n
        self._service = [None] * n
        self._apps = [[] for _ in range(n)]        # (factory, process)
        self._sync = {}                            # page -> sync object
        # Volatile claim-tracking (driver registers, dropped with the
        # node on a crash): per node, the grant stamp of each held right
        # and of the last tenure whose bytes still sit in a rightless
        # frame; per page at the home, the next grant stamp to issue.
        self._held = [dict() for _ in range(n)]    # page -> (write, stamp)
        self._pushed = [dict() for _ in range(n)]  # page -> stamp
        self._lock_held = [set() for _ in range(n)]
        self._agent_signals = [Signal(system.sim, "dsm.lease(%d)" % i)
                               for i in range(n)]
        self._grant_stamp = {}                     # home: page -> last stamp
        # Home-crash recovery state: active rebuild record per home, the
        # per-node replay nudge REBUILD_DONE fires (its fire_count is the
        # replay generation), the per-node lease agents.
        self._rebuild = [None] * n
        self._rebuild_epoch = 0
        self._replays = [Signal(system.sim, "dsm.replay(%d)" % i)
                         for i in range(n)]
        self._agents = [None] * n

        # Metrics: registered eagerly so the registry is identical
        # whichever nodes end up faulting.
        hub = Instrumentation.of(system.sim)
        self.instr = hub
        self.faults = hub.counter("dsm.faults")
        self.fetches = hub.counter("dsm.fetches")
        self.invalidations = hub.counter("dsm.invalidations")
        self.recalls = hub.counter("dsm.recalls")
        self.fetch_ns = hub.histogram("dsm.fetch_ns")
        self.upgrade_ns = hub.histogram("dsm.upgrade_ns")
        self.lease_expirations = hub.counter("dsm.lease_expirations")
        self.rebuilds = hub.counter("dsm.rebuilds")
        self.lock_revokes = hub.counter("dsm.lock_revokes")
        self.replays = hub.counter("dsm.replays")

        # Channel fabric: one reliable channel per direction per pair,
        # packed into per-node arenas below the DSM metadata region.
        arenas = ChannelArenas(PAGE_SIZE, layout.meta_base)
        self._channels = {}
        self.mappings = []
        for a, b in sorted({tuple(sorted(p)) for p in pairs}):
            if a == b:
                continue
            for src, dst in ((a, b), (b, a)):
                channel = ReliableChannel(
                    system, src, dst,
                    name="dsm%d_%d" % (src, dst),
                    window_slots=WINDOW_SLOTS,
                    payload_words=PAYLOAD_WORDS,
                    layout=arenas.layout(src, dst, WINDOW_SLOTS,
                                         PAYLOAD_WORDS, APP_WRAP_WORDS),
                    on_deliver=self._make_deliver(dst, src),
                )
                self._channels[(src, dst)] = channel
                self.mappings.extend(channel.mappings)
        # A channel's sender never closes: coherence traffic is open-ended,
        # so idle senders park on the channel doorbell.

        # Every node imports its own homed frames permanently: they are
        # the memory copies that recalled writers push back into.
        for page in range(layout.npages):
            home = layout.home_of(page)
            system.nodes[home].nic.nipt.map_in(layout.frame_page(page))

        # Arm the DRAM write guard, which keeps frame bytes behind the
        # directory protocol.  Writes into a frame are legal from its home
        # (memory copy, recall imports) or while the local page state
        # grants or is receiving rights; anything else is a scribble.
        for node_id, node in enumerate(system.nodes):
            node.memory.write_guard = self._make_guard(node_id)

    # -- construction helpers --------------------------------------------------

    def _make_deliver(self, dst, src):
        def deliver(channel, seq, payload):
            kind, page, arg = payload[0], payload[1], payload[2]
            self._post(dst, kind, page, src, arg)
        return deliver

    def _make_guard(self, node_id):
        layout = self.layout
        pstates = self._pstates[node_id]

        def guard(addr, nwords):
            if not layout.contains_frame(addr):
                return
            for a in (addr, addr + (nwords - 1) * WORD_SIZE):
                if not layout.contains_frame(a):
                    continue
                page = (a - layout.dsm_base) // PAGE_SIZE
                if layout.home_of(page) == node_id:
                    continue
                if page in self._sync:
                    # Sync pages are not coherence-protocol data: the
                    # barrier tree keeps per-node aggregation state in
                    # every participant's own frame (sync.py).
                    continue
                if pstates.get(page) == INVALID:
                    raise DsmError(
                        "node %d wrote %#x on DSM page %d without rights"
                        % (node_id, a, page)
                    )

        return guard

    # -- lifecycle -------------------------------------------------------------

    def add_app(self, node_id, factory):
        """Register an application process body factory for ``node_id``.

        ``factory()`` must return a *fresh* generator each call: a node
        restore re-invokes it, and the body is expected to resume from
        progress counters it keeps in DRAM (see repro.workload.dsm_apps).
        """
        self._apps[node_id].append([factory, None])

    def attach_sync(self, page, obj):
        """Route this page's sync messages to ``obj.handle`` (sync.py)."""
        self.layout.check_page(page)
        if page in self._sync:
            raise DsmError("page %d already has a sync object" % page)
        self._sync[page] = obj

    def lock_tenure(self, node_id, page, held):
        """Track a lock tenure (called by DsmLock): tenures drive the
        lease agent's heartbeats and the CLAIM_LOCK answer a rebuilding
        home collects."""
        if held:
            self._lock_held[node_id].add(page)
            self._agent_signals[node_id].fire()
        else:
            self._lock_held[node_id].discard(page)

    def _agent_body(self, node_id):
        """The per-node lease agent: renew this node's lock tenures.

        Parks on the tenure signal while the node holds nothing, so an
        idle machine's event queue still drains (the agent must not keep
        the simulation alive by itself)."""
        period = self.renew_ns + self._jitter[node_id]
        signal = self._agent_signals[node_id]
        while True:
            if not self._lock_held[node_id]:
                yield signal
                continue
            yield period
            for page in sorted(self._lock_held[node_id]):
                self._send(node_id, self.layout.home_of(page), LOCK_RENEW,
                           page, 0)

    def start(self):
        """Start channels, per-node services and registered apps."""
        for key in sorted(self._channels):
            self._channels[key].start()
        sim = self.system.sim
        for node_id in range(len(self.system.nodes)):
            self._service[node_id] = Process(
                sim, self._service_body(node_id),
                "dsm.svc(%d)" % node_id,
            ).start()
            self._agents[node_id] = Process(
                sim, self._agent_body(node_id),
                "dsm.lease(%d)" % node_id,
            ).start()
            for entry in self._apps[node_id]:
                entry[1] = Process(
                    sim, entry[0](), "dsm.app(%d)" % node_id
                ).start()
        return self

    def channels(self):
        """The underlying reliable channels, in ``(src, dst)`` order."""
        return [self._channels[key] for key in sorted(self._channels)]

    # -- messaging -------------------------------------------------------------

    def _post(self, node_id, kind, page, src, arg):
        self._inboxes[node_id].append((kind, page, src, arg))
        self._signals[node_id].fire()

    def _send(self, src, dst, kind, page, arg):
        if src == dst:
            self._post(dst, kind, page, src, arg)
            return
        channel = self._channels.get((src, dst))
        if channel is None:
            raise DsmError(
                "no channel %d->%d: the workload's pair set must cover "
                "every node--home edge it uses" % (src, dst)
            )
        channel.send([kind, page, arg])

    def _next_stamp(self, page):
        """The home-issued per-page grant stamp.  Volatile (a home crash
        drops it), monotone within a directory's lifetime, re-floored at
        rebuild resolution from the maximum surviving claim -- so a
        claim's stamp totally orders grant generations per page."""
        stamp = self._grant_stamp.get(page, 0) + 1
        self._grant_stamp[page] = stamp
        return stamp

    # -- the per-node service --------------------------------------------------

    def _service_body(self, node_id):
        inbox = self._inboxes[node_id]
        signal = self._signals[node_id]
        while True:
            if inbox:
                message = inbox.popleft()
                yield from self._dispatch(node_id, message)
                continue
            yield signal

    def _dispatch(self, node_id, message):
        kind, page, src, arg = message
        if (self._rebuild[node_id] is not None
                and self._rebuild_intercept(node_id, kind, page, src, arg)):
            return
        if kind in (READ_REQ, WRITE_REQ):
            yield from self._home_request(node_id, kind, page, src, arg)
        elif kind == RECALL_ACK:
            yield from self._home_recall_ack(node_id, page, src)
        elif kind == INVAL_ACK:
            yield from self._home_inval_ack(node_id, page, src)
        elif kind == READ_OK:
            self._take_grant(node_id, page, arg, write=False)
        elif kind == WRITE_OK:
            self._take_grant(node_id, page, arg, write=True)
        elif kind in (RECALL_READ, RECALL_WRITE):
            yield from self._recalled(node_id, page, kind == RECALL_WRITE)
        elif kind == INVAL_REQ:
            self._invalidated(node_id, page, src)
        elif kind == RECOVER_REQ:
            self._recover_claims(node_id, src, arg)
        elif kind in (RECOVER_CLAIM, RECOVER_DONE, RECOVER_PULL_ACK):
            # Outside an active rebuild (the intercept above) these are
            # stale redeliveries from an already-resolved epoch: drop.
            pass
        elif kind == RECOVER_PULL:
            yield from self._recover_pull(node_id, page, src)
        elif kind == REBUILD_DONE:
            # The home finished its rebuild: nudge parked faulters to
            # replay (their ghosted pre-crash requests were dropped).
            self._replays[node_id].fire()
        elif kind in _SYNC_KINDS:
            obj = self._sync.get(page)
            if obj is None:
                raise DsmError("sync message for page %d with no object"
                               % page)
            obj.handle(node_id, kind, src, arg)
        else:
            raise DsmError("unknown DSM message kind %r" % (kind,))

    # -- home-side transaction machine -----------------------------------------

    def _home_request(self, node_id, kind, page, src, token):
        if self.layout.home_of(page) != node_id:
            raise DsmError(
                "node %d got a request for page %d homed at %d"
                % (node_id, page, self.layout.home_of(page))
            )
        write = kind == WRITE_REQ
        if self._dirs[node_id].last_grant(page) == (src, write, token):
            # Exactly this request instance was already granted: the
            # requester's in-flight retry raced the grant and the channel
            # delivered it afterwards.  Re-granting would re-push the
            # home's copy over whatever the owner has written since --
            # the scribble the write guard exists to catch.  The grant
            # itself was delivered exactly-once, so drop the duplicate.
            # A *genuine* re-fault (post-crash) always carries a fresh
            # token, and a home crash rolls this record back with the
            # rest of the directory.
            return
        txn = self._txn[node_id].get(page)
        if txn is not None:
            if txn["req"] == src and txn["write"] == write:
                txn["token"] = token  # retry of the active transaction
                return
            queue = self._defer[node_id].setdefault(page, [])
            for entry in queue:
                if entry[1] == src and (entry[0] == WRITE_REQ) == write:
                    entry[2] = token
                    return
            queue.append([kind, src, token])
            return
        yield from self._start_txn(node_id, page, src, write, token)

    def _start_txn(self, node_id, page, src, write, token):
        directory = self._dirs[node_id]
        txn = {"req": src, "write": write, "token": token, "stage": None,
               "owner": None, "waiting": None}
        self._txn[node_id][page] = txn
        owner = directory.owner(page)
        if owner == node_id:
            # The home itself holds the page exclusively: demote locally
            # (no self-recall message; the frame is already the memory
            # copy).  The write walk below invalidates the copy if needed.
            directory.set_owner(page, None)
            directory.add_reader(page, node_id)
            self._pstates[node_id].set(page, READ)
            held = self._held[node_id].get(page)
            if held is not None:
                self._held[node_id][page] = (False, held[1])
            owner = None
        if owner is not None and owner != src:
            txn["stage"] = "recall"
            txn["owner"] = owner
            self.recalls.bump()
            if self.instr.active:
                self.instr.emit("dsm", "dsm.recall", page=page, owner=owner,
                                req=src, write=write)
            self._send(node_id, owner, RECALL_WRITE if write else RECALL_READ,
                       page, 0)
            return
        if owner is not None:  # owner == src: duplicate / post-crash re-fault
            if not write:
                directory.set_owner(page, None)
                directory.add_reader(page, src)
        yield from self._proceed(node_id, page, txn)

    def _proceed(self, node_id, page, txn):
        """Owner recalled (or none): finish the grant, walking readers
        first for a write."""
        if not txn["write"]:
            yield from self._grant_read(node_id, page, txn)
            return
        directory = self._dirs[node_id]
        walk = [r for r in directory.readers(page) if r != txn["req"]]
        if walk:
            # The section 4.4 consistency walk, in sorted node order.
            txn["stage"] = "inval"
            txn["waiting"] = set(walk)
            if self.instr.active:
                self.instr.emit("dsm", "dsm.inval_walk", page=page,
                                targets=list(walk), req=txn["req"])
            for reader in walk:
                self._send(node_id, reader, INVAL_REQ, page, 0)
            return
        yield from self._grant_write(node_id, page, txn)

    def _home_recall_ack(self, node_id, page, src):
        txn = self._txn[node_id].get(page)
        if txn is None or txn["stage"] != "recall" or txn["owner"] != src:
            return  # stale ack (duplicate or post-crash replay)
        directory = self._dirs[node_id]
        directory.set_owner(page, None)
        if not txn["write"]:
            directory.add_reader(page, src)  # recalled writer keeps a copy
        txn["stage"] = None
        yield from self._proceed(node_id, page, txn)

    def _home_inval_ack(self, node_id, page, src):
        txn = self._txn[node_id].get(page)
        if txn is None or txn["stage"] != "inval" or src not in txn["waiting"]:
            return
        txn["waiting"].discard(src)
        self._dirs[node_id].discard_reader(page, src)
        if not txn["waiting"]:
            txn["stage"] = None
            yield from self._grant_write(node_id, page, txn)

    def _grant_read(self, node_id, page, txn):
        directory = self._dirs[node_id]
        directory.add_reader(page, txn["req"])
        directory.set_last_grant(page, txn["req"], False, txn["token"])
        stamp = self._next_stamp(page)
        yield from self._push_page(node_id, txn["req"], page)
        self._send(node_id, txn["req"], READ_OK, page,
                   (stamp << _STAMP_SHIFT) | (txn["token"] & _TOKEN_MASK))
        yield from self._finish(node_id, page)

    def _grant_write(self, node_id, page, txn):
        directory = self._dirs[node_id]
        directory.clear_readers(page)
        directory.set_owner(page, txn["req"])
        directory.set_last_grant(page, txn["req"], True, txn["token"])
        stamp = self._next_stamp(page)
        yield from self._push_page(node_id, txn["req"], page)
        self._send(node_id, txn["req"], WRITE_OK, page,
                   (stamp << _STAMP_SHIFT) | (txn["token"] & _TOKEN_MASK))
        yield from self._finish(node_id, page)

    def _finish(self, node_id, page):
        self._txn[node_id].pop(page, None)
        queue = self._defer[node_id].get(page)
        if queue:
            kind, src, token = queue.pop(0)
            if not queue:
                del self._defer[node_id][page]
            yield from self._home_request(node_id, kind, page, src, token)

    # -- requester side --------------------------------------------------------

    def fault(self, node_id, page, write):
        """Generator: resolve a fault on ``page``; returns when the node
        holds the requested right.  Run from the faulting node's process
        (one outstanding fault per node -- the faulting CPU is stalled).

        Until the lease (``lease_ns`` plus this node's jitter) expires
        the wait is a retry loop (a folded :func:`~repro.sim.poll.poll`
        of the page state).  On expiry the faulter *parks*: it keeps
        re-sending the same request instance (same token --
        redelivered grants stay acceptable) with exponential backoff on
        the sim clock, and replays immediately when the home's
        ``REBUILD_DONE`` bumps this node's replay generation."""
        self.layout.check_page(page)
        pstates = self._pstates[node_id]
        want = WRITE if write else READ
        if pstates.get(page) >= want:
            return
        if page in self._pending[node_id]:
            raise DsmError(
                "node %d faulted page %d with a fault already outstanding"
                % (node_id, page)
            )
        self.faults.bump()
        home = self.layout.home_of(page)
        self._token_seq[node_id] += 1
        token = self._token_seq[node_id]
        if self.instr.active:
            # home/frame/token let external observers (the happens-before
            # sanitizer, repro.lint.sanitize) correlate this fault with
            # the NIC deposits and the grant(s) that resolve it -- a
            # home-side demotion can re-grant the same token, so the
            # token is what ties a grant to its fault instance.
            self.instr.emit("dsm", "dsm.fault", node=node_id, page=page,
                            write=write, home=home,
                            frame=self.layout.frame_page(page), token=token)
        sim = self.system.sim
        started = sim.now
        self._pending[node_id][page] = token
        pstates.set(page, FETCHING)
        node = self.system.nodes[node_id]
        node.nic.nipt.map_in(self.layout.frame_page(page))
        kind = WRITE_REQ if write else READ_REQ
        self._send(node_id, home, kind, page, token)
        lease = self.lease_ns + self._jitter[node_id]
        deadline = started + lease
        interval = RETRY_NS
        replays = self._replays[node_id]
        gen = replays.fire_count
        parked = False
        last_send = started

        def ready():
            return pstates.get(page) >= want or replays.fire_count != gen

        def resend(replay):
            self._send(node_id, home, kind, page, token)
            if replay:
                self.replays.bump()
                if self.instr.active:
                    self.instr.emit("dsm", "dsm.replay", node=node_id,
                                    page=page, write=write)
            return sim.now

        try:
            while pstates.get(page) < want:
                due = last_send + interval
                yield from poll(sim, POLL_NS, ready,
                                due if parked else min(due, deadline),
                                memory=node.memory, reads=2,
                                words=(self.layout.pstate_addr(page),),
                                signals=(replays,))
                if pstates.get(page) >= want:
                    break
                if replays.fire_count != gen:
                    gen = replays.fire_count
                    last_send = resend(True)
                    parked = False
                    interval = RETRY_NS
                    deadline = sim.now + lease
                elif not parked and sim.now >= deadline:
                    parked = True
                    self.lease_expirations.bump()
                    if self.instr.active:
                        self.instr.emit("dsm", "dsm.lease_expired",
                                        node=node_id, page=page, home=home,
                                        write=write)
                    interval = 2 * RETRY_NS
                    last_send = sim.now
                elif sim.now - last_send >= interval:
                    last_send = resend(parked)
                    if parked:
                        interval = min(2 * interval, BACKOFF_CAP_NS)
        finally:
            self._pending[node_id].pop(page, None)
        (self.upgrade_ns if write else self.fetch_ns).observe(
            sim.now - started)

    def _take_grant(self, node_id, page, arg, write):
        token = arg & _TOKEN_MASK
        stamp = arg >> _STAMP_SHIFT
        pending = self._pending[node_id].get(page)
        if pending is None or (pending & _TOKEN_MASK) != token:
            return  # stale grant (old token, or post-crash replay)
        # No page-state check beyond the token: when the requester is
        # the home node, a deferred request processed right after the
        # grant can demote it (home-owner demotion in _start_txn) before
        # the faulting app polls -- the retried request then produces a
        # fresh grant that must land even though the state left FETCHING.
        # The home serialises transactions and grants push current data,
        # so a matching token always means the frame bytes are current.
        pstates = self._pstates[node_id]
        pstates.set(page, WRITE if write else READ)
        self._held[node_id][page] = (write, stamp)
        self._pushed[node_id].pop(page, None)
        node = self.system.nodes[node_id]
        node.nic.nipt.set_dsm_resident(self.layout.frame_page(page), True)
        if self.instr.active:
            self.instr.emit("dsm", "dsm.grant", node=node_id, page=page,
                            write=write, token=token)

    def _recalled(self, node_id, page, write):
        pstates = self._pstates[node_id]
        home = self.layout.home_of(page)
        node = self.system.nodes[node_id]
        if pstates.get(page) == WRITE:
            yield from self._push_page(node_id, home, page)
            held = self._held[node_id].pop(page, None)
            if write:
                pstates.set(page, INVALID)
                if held is not None:
                    # The rightless frame still holds this generation's
                    # final bytes -- the pushed-copy claim a rebuilding
                    # home can pull when its own frame rolled back.
                    self._pushed[node_id][page] = held[1]
                node.nic.nipt.set_dsm_resident(
                    self.layout.frame_page(page), False)
                if home != node_id:
                    node.nic.nipt.unmap_in(self.layout.frame_page(page))
            else:
                pstates.set(page, READ)
                if held is not None:
                    self._held[node_id][page] = (False, held[1])
        # Any other state: rights already lost (crash rollback or a
        # duplicate recall) -- ack without data; the home's frame stands.
        self._send(node_id, home, RECALL_ACK, page, 0)

    def _invalidated(self, node_id, page, src):
        pstates = self._pstates[node_id]
        state = pstates.get(page)
        if state in (READ, WRITE):
            pstates.set(page, INVALID)
            held = self._held[node_id].pop(page, None)
            if held is not None:
                self._pushed[node_id][page] = held[1]
            node = self.system.nodes[node_id]
            node.nic.nipt.set_dsm_resident(self.layout.frame_page(page),
                                           False)
            if self.layout.home_of(page) != node_id:
                node.nic.nipt.unmap_in(self.layout.frame_page(page))
            self.invalidations.bump()
            if self.instr.active:
                self.instr.emit("dsm", "dsm.inval", node=node_id, page=page)
        # FETCHING keeps its map-in: the grant deposit in flight must
        # still land (the stale grant itself dies on its token).
        self._send(node_id, src, INVAL_ACK, page, 0)

    # -- home-crash recovery: the directory rebuild protocol -------------------
    #
    # A crash at a home rolls its DRAM (directory, frames) back to the
    # checkpoint, but the *rights* it granted since live on at the
    # peers.  The restored home therefore treats the surviving page
    # states as authoritative: it broadcasts RECOVER_REQ in sorted node
    # order, each peer answers one RECOVER_CLAIM per surviving right
    # (or per rightless frame still holding a pushed generation's
    # bytes) and fences with RECOVER_DONE, and the home resolves
    # conflicts by grant-stamp order -- the per-page total order the
    # grant arg carries.  The key channel fact making claims
    # authoritative: a ReliableChannel's outbox survives a crash of
    # either end, so every pre-crash grant is redelivered to its
    # requester *before* the post-restore RECOVER_REQ on the same
    # home->peer channel, and every ghost replay from a peer precedes
    # that peer's RECOVER_DONE on the peer->home channel.

    def _peers_of(self, node_id):
        return sorted(dst for (src, dst) in self._channels if src == node_id)

    def _start_rebuild(self, node_id):
        """Begin rebuilding the directories of every page homed here."""
        self._rebuild_epoch += 1
        epoch = self._rebuild_epoch
        peers = self._peers_of(node_id)
        self._rebuild[node_id] = {
            "epoch": epoch,
            "pending": set(peers),
            "claims": {},      # (page, src) -> (code, stamp)
            "deferred": [],    # messages replayed after completion
            "walks": {},       # page -> nodes still owing INVAL_ACK
            "pulls": {},       # page -> node owing RECOVER_PULL_ACK
            "resolved": False,
        }
        self.rebuilds.bump()
        if self.instr.active:
            self.instr.emit("dsm", "dsm.rebuild_start", node=node_id,
                            epoch=epoch, peers=list(peers))
        # Claim collection queries peers in sorted node order (the same
        # determinism rule as the section 4.4 walk; simlint SL904).
        for peer in sorted(peers):
            self._send(node_id, peer, RECOVER_REQ, 0, epoch)
        if not peers:
            self._resolve_rebuild(node_id)
            self._maybe_complete_rebuild(node_id)

    def _recover_claims(self, node_id, home, epoch):
        """Peer side: answer a restored home's RECOVER_REQ.

        One claim per page homed at ``home`` that this node either holds
        rights to (page state is DRAM truth; the stamp comes from the
        volatile grant record when it survived), holds lock tenure on,
        or holds a rightless frame whose bytes match a pushed grant
        generation.  Ends with a RECOVER_DONE fence carrying the epoch.
        """
        pstates = self._pstates[node_id]
        for page in range(self.layout.npages):
            if self.layout.home_of(page) != home:
                continue
            if page in self._sync:
                if page in self._lock_held[node_id]:
                    self._send(node_id, home, RECOVER_CLAIM, page,
                               CLAIM_LOCK)
                continue
            state = pstates.get(page)
            held = self._held[node_id].get(page)
            stamp = held[1] if held is not None else 0
            if state == WRITE:
                code = CLAIM_WRITE
            elif state == READ:
                code = CLAIM_READ
            elif page in self._pushed[node_id]:
                code = CLAIM_PUSHED
                stamp = self._pushed[node_id][page]
            else:
                continue  # no right, no bytes -- nothing to claim
            self._send(node_id, home, RECOVER_CLAIM, page,
                       (stamp << _CLAIM_CODE_BITS) | code)
        self._send(node_id, home, RECOVER_DONE, 0, epoch)

    def _recover_pull(self, node_id, page, home):
        """Peer side: refresh the rebuilding home's memory copy."""
        yield from self._push_page(node_id, home, page)
        self._send(node_id, home, RECOVER_PULL_ACK, page, 0)

    def _rebuild_intercept(self, node_id, kind, page, src, arg):
        """Message policy while this node's rebuild is active.  Returns
        True when the message was consumed, deferred or dropped."""
        rebuild = self._rebuild[node_id]
        if kind in (READ_REQ, WRITE_REQ):
            if src in rebuild["pending"]:
                # A ghost: channel replay of a pre-crash request from a
                # peer that has not fenced yet.  Its surviving claim
                # supersedes it; the faulter replays on REBUILD_DONE.
                return True
            rebuild["deferred"].append((kind, page, src, arg))
            return True
        if kind == RECOVER_CLAIM:
            code_mask = (1 << _CLAIM_CODE_BITS) - 1
            rebuild["claims"][(page, src)] = (arg & code_mask,
                                              arg >> _CLAIM_CODE_BITS)
            return True
        if kind == RECOVER_DONE:
            if arg != rebuild["epoch"]:
                # A prior epoch's batch (the home crashed again before
                # resolving): everything from src so far was stale, and
                # channel FIFO order fences it exactly here.
                for key in [k for k in rebuild["claims"] if k[1] == src]:
                    del rebuild["claims"][key]
                return True
            rebuild["pending"].discard(src)
            if not rebuild["pending"]:
                self._resolve_rebuild(node_id)
                self._maybe_complete_rebuild(node_id)
            return True
        if kind == RECOVER_PULL_ACK:
            if rebuild["pulls"].pop(page, None) is not None:
                self._maybe_complete_rebuild(node_id)
            return True
        if kind == INVAL_ACK and page in rebuild["walks"]:
            walk = rebuild["walks"][page]
            if src in walk:
                walk.discard(src)
                self._dirs[node_id].discard_reader(page, src)
                if not walk:
                    del rebuild["walks"][page]
                self._maybe_complete_rebuild(node_id)
                return True
            return False
        if kind in _SYNC_KINDS:
            obj = self._sync.get(page)
            if obj is not None and getattr(obj, "defer_during_rebuild",
                                           False):
                # Lock traffic waits for the lock's own rebuild; barrier
                # folding is monotonic/idempotent and flows through.
                rebuild["deferred"].append((kind, page, src, arg))
                return True
            return False
        # Everything else runs its normal idempotent handler: stale acks
        # die on "no transaction", stale grants on their token.
        return False

    def _resolve_rebuild(self, node_id):
        """All peers fenced: resolve claims page by page.

        Winner = the live claim with the highest grant stamp (ties by
        node id; the home's own rolled-back page state enters as a
        stamp-0 claim, so any real surviving grant beats it).  A WRITE
        winner is re-seated as owner and every other live copy walked
        with the section 4.4 INVAL pass; READ claimants are re-seated
        together as readers.  The freshest surviving copy (including
        rightless pushed frames) refreshes the home's memory copy via
        RECOVER_PULL unless a WRITE winner holds fresher bytes anyway.
        """
        rebuild = self._rebuild[node_id]
        rebuild["resolved"] = True
        directory = self._dirs[node_id]
        pstates = self._pstates[node_id]
        claims = rebuild["claims"]
        for page in range(self.layout.npages):
            if self.layout.home_of(page) != node_id:
                continue
            if page in self._sync:
                obj = self._sync[page]
                if getattr(obj, "defer_during_rebuild", False):
                    holders = sorted(
                        src for (p, src), (code, stamp) in claims.items()
                        if p == page and code == CLAIM_LOCK)
                    obj.rebuild(holders)
                continue
            entries = [(stamp, src, code)
                       for (p, src), (code, stamp) in claims.items()
                       if p == page]
            if entries:
                # Re-floor the grant stamp above every surviving claim.
                top = max(stamp for stamp, _, _ in entries)
                self._grant_stamp[page] = max(
                    self._grant_stamp.get(page, 0), top)
            live = [(stamp, src, code) for stamp, src, code in entries
                    if code in (CLAIM_READ, CLAIM_WRITE)]
            state = pstates.get(page)
            if state == WRITE:
                live.append((0, node_id, CLAIM_WRITE))
            elif state == READ:
                live.append((0, node_id, CLAIM_READ))
            elif state == FETCHING:
                # The home's own pre-crash fault: its pending token died
                # with the crash; the restarted app re-faults.
                pstates.set(page, INVALID)
            directory.clear_readers(page)
            if not live:
                directory.set_owner(page, None)
                directory.clear_last_grant(page)
            else:
                stamp, winner, code = max(live)
                if code == CLAIM_WRITE:
                    directory.set_owner(page, winner)
                    losers = sorted(src for _, src, _ in live
                                    if src != winner)
                    # Copies a mid-upgrade crash left behind: re-issue
                    # the invalidation walk, sorted, acks collected by
                    # the intercept.
                    for loser in losers:
                        directory.add_reader(page, loser)
                    if losers:
                        rebuild["walks"][page] = set(losers)
                        for loser in losers:
                            self._send(node_id, loser, INVAL_REQ, page, 0)
                    directory.set_last_grant(page, winner, True, 0)
                else:
                    directory.set_owner(page, None)
                    for _, src, _ in sorted(live, key=lambda e: e[1]):
                        directory.add_reader(page, src)
                    if state == WRITE:
                        pstates.set(page, READ)  # demote with the readers
                    directory.set_last_grant(page, winner, False, 0)
                if code == CLAIM_WRITE:
                    # The owner's copy is fresher than anything the home
                    # could pull; the next conflicting request recalls it.
                    continue
            if entries:
                best_stamp, best_src, _ = max(entries)
                rebuild["pulls"][page] = best_src
                self._send(node_id, best_src, RECOVER_PULL, page, 0)

    def _maybe_complete_rebuild(self, node_id):
        rebuild = self._rebuild[node_id]
        if (rebuild is not None and rebuild["resolved"]
                and not rebuild["walks"] and not rebuild["pulls"]):
            self._complete_rebuild(node_id)

    def _complete_rebuild(self, node_id):
        """Directory rebuilt: replay deferred traffic, unpark faulters."""
        rebuild = self._rebuild[node_id]
        deferred = rebuild["deferred"]
        if self.instr.active:
            self.instr.emit("dsm", "dsm.rebuild_done", node=node_id,
                            epoch=rebuild["epoch"], deferred=len(deferred))
        self._rebuild[node_id] = None
        # Deferred messages rejoin the inbox at the head, oldest first,
        # ahead of anything that arrived since.
        for message in reversed(deferred):
            self._inboxes[node_id].appendleft(message)
        self._signals[node_id].fire()
        for peer in self._peers_of(node_id):
            self._send(node_id, peer, REBUILD_DONE, 0, rebuild["epoch"])

    # -- the data path ---------------------------------------------------------

    def _push_page(self, src_id, dst_id, page):
        """Generator: one page-sized deliberate-update DMA src -> dst.

        A transient outgoing half covering the whole frame is installed,
        the DMA armed through the command page (section 4.2/4.3), and
        the half removed once the engine drained the page into the send
        FIFO.  Holding the node's one DMA mutex
        (:attr:`~repro.nic.dma.DmaEngine.lock`, shared with every
        reliable channel out of the node) across the arm means the
        grant frame queued right after rides the same FIFO *behind* the
        data -- per-sender in-order delivery then guarantees the deposit
        lands before the grant is processed.

        The page goes out as a run of packet-sized DMA commands, each
        armed only once the outgoing FIFO has drained to half capacity:
        a single page-sized command would fill the whole FIFO, and any
        concurrent automatic-update store on this node (a reliable
        channel writing its mapped ack word) would overflow it --
        automatic updates are synchronous bus snoops and cannot block.
        """
        if src_id == dst_id:
            return
        if self.instr.active:
            # Emitted when the push *begins*: from here the page data is
            # queued ahead of any grant frame in the same FIFO, which is
            # the ordering fact downstream observers (the happens-before
            # sanitizer) correlate deposits and grants against.
            self.instr.emit("dsm", "dsm.push", src=src_id, dst=dst_id,
                            page=page)
        node = self.system.nodes[src_id]
        frame_page = self.layout.frame_page(page)
        frame_addr = self.layout.frame_addr(page)
        fifo = node.nic.outgoing_fifo
        chunk_words = node.params.nic.max_payload_words
        drain_limit = fifo.capacity_bytes // 2
        lock = node.nic.dma_engine.lock
        self._busy[src_id] = True
        try:
            yield from lock.acquire(owner="dsm.push(%d)" % src_id)
            try:
                half = OutgoingHalf(0, PAGE_SIZE, dst_id, frame_addr,
                                    MappingMode.DELIBERATE)
                node.nic.nipt.map_out(frame_page, half)
                try:
                    yield from node.nic.dma_engine.wait_idle()
                    for start in range(0, PAGE_SIZE // WORD_SIZE,
                                       chunk_words):
                        if fifo.occupancy_bytes > drain_limit:
                            yield from poll(
                                self.system.sim, POLL_NS,
                                lambda: fifo.occupancy_bytes <= drain_limit,
                                signals=(fifo._changed,))
                        command = node.command_addr(
                            frame_addr + start * WORD_SIZE)
                        addr, policy = node.mmu.translate(command, "write")
                        yield from node.cache.write(
                            addr,
                            encode_command(CommandOp.DMA_START, chunk_words),
                            policy,
                        )
                        yield from node.nic.dma_engine.wait_idle()
                finally:
                    node.nic.nipt.entry(frame_page).remove_half(half)
            finally:
                lock.release()
        finally:
            self._busy[src_id] = False
        self.fetches.bump()

    # -- crash/restore protocol (duck-typed like ReliableChannel) -------------
    #
    # The runtime is the one crash participant for its whole stack: each
    # hook runs its channels' hook first, in ``channels()`` order.

    def killable(self, node_id):
        """True when the node's DSM processes and channel endpoints hold
        no simulation resource (bus, DMA mutex) and its outgoing FIFO
        holds no half-pushed page -- the crash orchestration's safe-kill
        gate.  The FIFO condition matters for recovery: ``_push_page``
        returns with up to half a FIFO of page chunks still queued, and a
        crash clears FIFOs while the grant behind them survives in the
        reliable channel's outbox.  Gating the kill on an empty FIFO
        keeps every redelivered grant's data fully deposited, so a parked
        faulter can replay the same request instance (same token)
        safely."""
        return (not self._busy[node_id]
                and self.system.nodes[node_id].nic.outgoing_fifo
                .occupancy_bytes == 0
                and all(channel.killable(node_id)
                        for channel in self.channels()))

    def node_crashed(self, node_id):
        """Drop the node's volatile DSM state with the node.

        Inbox, transactions and pending tokens are device/driver state;
        DRAM (page states, directory, frames) survives for the restore
        to roll back.  The channels go first: their parked polls must be
        gone from the node's memory, and their replay state reset, before
        the directory rebuild starts.
        """
        for channel in self.channels():
            channel.node_crashed(node_id)
        if self._service[node_id] is not None:
            self._service[node_id].kill()
            self._service[node_id] = None
        if self._agents[node_id] is not None:
            self._agents[node_id].kill()
            self._agents[node_id] = None
        for entry in self._apps[node_id]:
            if entry[1] is not None:
                entry[1].kill()
                entry[1] = None
        self._inboxes[node_id].clear()
        self._txn[node_id].clear()
        self._defer[node_id].clear()
        self._pending[node_id].clear()
        self._busy[node_id] = False
        # Volatile claim-tracking dies with the node's driver state, and
        # so do the grant stamps of the pages it homes (rebuild re-floors
        # them from the surviving claims).
        self._held[node_id].clear()
        self._pushed[node_id].clear()
        self._lock_held[node_id].clear()
        self._rebuild[node_id] = None
        for page in list(self._grant_stamp):
            if self.layout.home_of(page) == node_id:
                del self._grant_stamp[page]

    def node_restored(self, node_id):
        """Respawn the service, apps and lease agent over the rolled-back
        DRAM state, and rebuild this node's directories.

        Client-side state is recovered by replay: the channel layer
        redelivers every message the rolled-back receiver state has not
        seen, the service re-runs its deterministic transitions, and
        duplicate outbound messages die on the receivers' idempotency
        rules (tokens, ack-without-transaction, recall-without-rights).
        """
        for channel in self.channels():
            channel.node_restored(node_id)
        sim = self.system.sim
        self._service[node_id] = Process(
            sim, self._service_body(node_id),
            "dsm.svc(%d)" % node_id,
        ).start()
        for entry in self._apps[node_id]:
            entry[1] = Process(
                sim, entry[0](), "dsm.app(%d)" % node_id
            ).start()
        self._agents[node_id] = Process(
            sim, self._agent_body(node_id),
            "dsm.lease(%d)" % node_id,
        ).start()
        # Sync objects re-seat the restored node (a barrier re-folds its
        # subtree; a lock home restarts its holder's lease).
        for page in sorted(self._sync):
            self._sync[page].node_restored(node_id)
        # The rolled-back directories for this node's own pages are not
        # trusted: rebuild them from the surviving claims.
        self._start_rebuild(node_id)
