"""Synchronisation primitives on DSM pages.

The push-layer lock and barrier of :mod:`repro.shmem` (the paper's
section 4.1 layer) emit assembly against pre-established automatic-update
mappings: every participant pair needs its own mapping and the state is
scattered across private flag words.  Here the state lives in node
frames of a designated DSM *sync page* --
checkpointed, fingerprinted and crash-rolled-back exactly like
application data -- and arbitration is message-based through the DSM
service, so the primitives need no mappings beyond the runtime's
channel fabric.

:class:`DsmBarrier` is a **combining tree** (the O(log n) path the
ROADMAP asks for): participants form a binary heap tree, each node
aggregates its own arrival with its children's subtree arrivals in its
*own* frame of the sync page, and only the aggregate travels to the
parent.  Fan-in per node is bounded by 3 channels regardless of machine
size -- a flat barrier on a 64-node mesh aims 63 simultaneous arrival
messages at one corner node, which overruns its outgoing FIFO with
automatic-update packets that cannot block.

Both primitives are **idempotent under replay**: a node crash rolls its
tree state back, the channel layer redelivers what the rollback forgot,
and participants retry until their locally recorded outcome (a word in
the node's DSM scratch region) catches up.  Epochs are monotonic
(always folded with ``max``/``min``), so duplicated arrivals and
releases are absorbed, and a re-arrival that reaches an already
released ancestor is answered with a direct re-release back down the
stalled branch.

The lock is leased: the holder's node heartbeats ``LOCK_RENEW`` and
the home lazily revokes a holder whose lease (the runtime's
``lease_ns``) lapsed when the next acquire arrives, so a holder crash
never wedges the lock -- which obliges critical sections to be
idempotent (a revoked-then-restored holder's replay may re-run them);
see docs/dsm.md.
"""

from repro.dsm.runtime import (
    BARRIER_ARRIVE,
    BARRIER_RELEASE,
    LOCK_ACQ,
    LOCK_GRANT,
    LOCK_REL,
    LOCK_RENEW,
    POLL_NS,
    RETRY_NS,
)
from repro.dsm.state import DsmError
from repro.memsys.address import WORD_SIZE
from repro.sim.poll import poll


def _request(runtime, node_id, dst, kind, page, arg, addr, done):
    """Generator: send ``kind`` to ``dst``, then poll DRAM word ``addr``
    every ``POLL_NS`` until ``done(word)``, re-sending every ``RETRY_NS``
    (an idle tick reads the word twice: the retry test, the loop test)."""
    sim = runtime.system.sim
    memory = runtime.system.nodes[node_id].memory

    def ready():
        return done(memory.read_word(addr))

    runtime._send(node_id, dst, kind, page, arg)
    last_send = sim.now
    while not ready():
        yield from poll(sim, POLL_NS, ready, last_send + RETRY_NS,
                        memory=memory, reads=2, words=(addr,))
        if not ready() and sim.now - last_send >= RETRY_NS:
            runtime._send(node_id, dst, kind, page, arg)
            last_send = sim.now


class DsmBarrier:
    """Combining-tree epoch barrier on a DSM sync page.

    Participants (sorted) form a binary heap tree: participant ``i``'s
    parent is ``(i - 1) // 2``, children ``2i + 1`` and ``2i + 2``.
    Per-participant state, in that node's own frame of ``page``:
    word 0 -- newest *released* epoch this node has propagated;
    word 1 -- this node's own newest arrived epoch;
    word ``2 + c`` -- newest epoch child ``c``'s whole subtree reached.
    Each participant's newest *seen* released epoch lives in its scratch
    word ``scratch_index``; ``wait`` polls that.

    Arrivals flow up: a node folds ``min(own, children)`` and forwards
    the aggregate to its parent whenever it exceeds the node's released
    epoch.  The root turns the aggregate into a release, which flows
    down.  An arrival for an epoch an ancestor has already released is
    answered with a release straight back to the sender, which re-floods
    down the branch a crash rolled back.
    """

    def __init__(self, runtime, page, participants, scratch_index=0):
        self.runtime = runtime
        self.layout = runtime.layout
        self.page = runtime.layout.check_page(page)
        self.participants = sorted(participants)
        if len(set(self.participants)) != len(self.participants):
            raise DsmError("duplicate barrier participants")
        if not self.participants:
            raise DsmError("a barrier needs at least one participant")
        self.scratch_index = scratch_index
        self._index = {n: i for i, n in enumerate(self.participants)}
        self._base = runtime.layout.frame_addr(page)
        runtime.attach_sync(page, self)

    @staticmethod
    def tree_edges(participants):
        """The (parent, child) node pairs the tree communicates over --
        for sizing a runtime's channel set before building the barrier."""
        nodes = sorted(participants)
        return sorted(
            (min(nodes[(i - 1) // 2], nodes[i]),
             max(nodes[(i - 1) // 2], nodes[i]))
            for i in range(1, len(nodes))
        )

    # -- tree geometry ---------------------------------------------------------

    def _parent(self, node_id):
        index = self._index[node_id]
        return None if index == 0 else self.participants[(index - 1) // 2]

    def _children(self, node_id):
        index = self._index[node_id]
        count = len(self.participants)
        return [self.participants[c]
                for c in (2 * index + 1, 2 * index + 2) if c < count]

    def _memory(self, node_id):
        return self.runtime.system.nodes[node_id].memory

    def _released_addr(self):
        return self._base

    def _own_addr(self):
        return self._base + WORD_SIZE

    def _child_addr(self, node_id, src):
        index = self._index[node_id]
        child = self._index[src]
        slot = child - 2 * index - 1  # 0 or 1 in a binary heap tree
        if slot not in (0, 1):
            raise DsmError(
                "barrier arrival from %d at %d: not its tree child"
                % (src, node_id))
        return self._base + (2 + slot) * WORD_SIZE

    def _seen_addr(self):
        return self.layout.scratch_addr(self.scratch_index)

    # -- service-side message handling -----------------------------------------

    def handle(self, node_id, kind, src, arg):
        if kind == BARRIER_ARRIVE:
            self._arrive(node_id, src, arg)
        elif kind == BARRIER_RELEASE:
            self._release(node_id, arg)
        else:
            raise DsmError("barrier got message kind %r" % (kind,))

    def _arrive(self, node_id, src, epoch):
        memory = self._memory(node_id)
        slot = (self._own_addr() if src == node_id
                else self._child_addr(node_id, src))
        if memory.read_word(slot) < epoch:
            memory.write_word(slot, epoch)
        released = memory.read_word(self._released_addr())
        if epoch <= released:
            # The sender's branch missed (or rolled back past) a release
            # this node already propagated: re-release straight back.
            if src == node_id:
                self._mark_seen(node_id, released)
            else:
                self.runtime._send(node_id, src, BARRIER_RELEASE, self.page,
                                   released)
            return
        reached = min(
            [memory.read_word(self._own_addr())]
            + [memory.read_word(self._base + (2 + c) * WORD_SIZE)
               for c in range(len(self._children(node_id)))]
        )
        if reached <= released:
            return  # subtree not complete for any new epoch yet
        parent = self._parent(node_id)
        if parent is None:
            self._release(node_id, reached)  # root: aggregate == release
        else:
            # Forward on every arrival (not just fresh aggregates): the
            # retry chain relies on duplicates propagating up to an
            # ancestor that can answer with the missing release.
            self.runtime._send(node_id, parent, BARRIER_ARRIVE, self.page,
                               reached)

    def _release(self, node_id, epoch):
        memory = self._memory(node_id)
        if memory.read_word(self._released_addr()) >= epoch:
            return  # duplicate release wave
        memory.write_word(self._released_addr(), epoch)
        self._mark_seen(node_id, epoch)
        for child in self._children(node_id):
            self.runtime._send(node_id, child, BARRIER_RELEASE, self.page,
                               epoch)

    def _mark_seen(self, node_id, epoch):
        memory = self._memory(node_id)
        if memory.read_word(self._seen_addr()) < epoch:
            memory.write_word(self._seen_addr(), epoch)

    # -- crash recovery --------------------------------------------------------

    #: Barrier folding is monotonic and idempotent, so its traffic flows
    #: straight through a home's directory rebuild window.
    defer_during_rebuild = False

    def node_restored(self, node_id):
        """Re-seat a restored participant's subtree.

        The rollback may have eaten a release this node already
        propagated (descendants would stall waiting for it) or a subtree
        aggregate it already forwarded (the root would stall waiting for
        that).  Both folds are monotonic, so re-flooding the rolled-back
        release down and re-forwarding the rolled-back aggregate up is
        idempotent -- at worst a duplicate wave the epoch guards absorb.
        """
        if node_id not in self._index:
            return
        memory = self._memory(node_id)
        released = memory.read_word(self._released_addr())
        self._mark_seen(node_id, released)
        for child in self._children(node_id):
            self.runtime._send(node_id, child, BARRIER_RELEASE, self.page,
                               released)
        reached = min(
            [memory.read_word(self._own_addr())]
            + [memory.read_word(self._base + (2 + c) * WORD_SIZE)
               for c in range(len(self._children(node_id)))]
        )
        if reached > released:
            parent = self._parent(node_id)
            if parent is None:
                self._release(node_id, reached)
            else:
                self.runtime._send(node_id, parent, BARRIER_ARRIVE,
                                   self.page, reached)

    # -- participant side ------------------------------------------------------

    def wait(self, node_id, epoch):
        """Generator: arrive at ``epoch`` and block until it is released.

        ``epoch`` must come from durable app state (a DRAM progress
        counter), so a restarted node re-arrives at the epoch it was in.
        """
        if node_id not in self._index:
            raise DsmError("node %d is not a barrier participant" % node_id)
        yield from _request(self.runtime, node_id, node_id, BARRIER_ARRIVE,
                            self.page, epoch, self._seen_addr(),
                            lambda seen: seen >= epoch)


class DsmLock:
    """Home-arbitrated mutual exclusion on a DSM sync page.

    Home-side state, in the home's frame of ``page``: word 0 -- holder
    node id + 1 (0 = free); word 1 -- bitmap of waiting nodes.  Grants
    go to the lowest waiting node id.  A node's "granted" flag lives in
    its scratch word ``scratch_index``.
    """

    #: Lock traffic is held back while the home rebuilds: arbitration
    #: must wait for :meth:`rebuild` to re-seat the tenure from claims.
    defer_during_rebuild = True

    def __init__(self, runtime, page, scratch_index=1):
        self.runtime = runtime
        self.layout = runtime.layout
        self.page = runtime.layout.check_page(page)
        self.home = runtime.layout.home_of(page)
        self.scratch_index = scratch_index
        self._base = runtime.layout.frame_addr(page)
        # Volatile, home-side: sim time of the holder's last lease sign
        # of life (grant or LOCK_RENEW heartbeat).
        self._last_renew = None
        runtime.attach_sync(page, self)

    def _home_mem(self):
        return self.runtime.system.nodes[self.home].memory

    def _flag_addr(self):
        return self.layout.scratch_addr(self.scratch_index)

    def handle(self, node_id, kind, src, arg):
        if kind == LOCK_ACQ:
            self._acquire_msg(src)
        elif kind == LOCK_REL:
            self._release_msg(src)
        elif kind == LOCK_RENEW:
            if self._home_mem().read_word(self._base) == src + 1:
                self._last_renew = self.runtime.system.sim.now
            # A renewal from a revoked (no longer holding) node is stale
            # noise: ignore it; the sender drops its tenure on release.
        elif kind == LOCK_GRANT:
            memory = self.runtime.system.nodes[node_id].memory
            memory.write_word(self._flag_addr(), 1)
            # Tenure tracking drives the lease agent's heartbeats and the
            # CLAIM_LOCK answer during a home rebuild.
            self.runtime.lock_tenure(node_id, self.page, True)
        else:
            raise DsmError("lock got message kind %r" % (kind,))

    def _grant(self, src):
        self._last_renew = self.runtime.system.sim.now
        self.runtime._send(self.home, src, LOCK_GRANT, self.page, 0)

    def _acquire_msg(self, src):
        memory = self._home_mem()
        holder = memory.read_word(self._base)
        if holder != 0 and holder != src + 1 and self._lease_lapsed():
            # Holder-crash breaking: the holder stopped heartbeating for
            # a full lease -- revoke its tenure and arbitrate as if it
            # released.  Lazy: checked only when someone wants the lock,
            # so an idle dead holder costs nothing.
            runtime = self.runtime
            runtime.lock_revokes.bump()
            if runtime.instr.active:
                runtime.instr.emit("dsm", "dsm.lock_revoke", page=self.page,
                                   holder=holder - 1, by=src)
            memory.write_word(self._base, 0)
            holder = 0
        if holder == 0:
            # A revocation can free the lock while waiters are bitmapped:
            # a granted requester must not linger in the bitmap or the
            # next release would re-grant it stale.
            waiting = memory.read_word(self._base + WORD_SIZE)
            if waiting & (1 << src):
                memory.write_word(self._base + WORD_SIZE,
                                  waiting & ~(1 << src))
            memory.write_word(self._base, src + 1)
            self._grant(src)
        elif holder == src + 1:
            # Retry from the holder (a lost grant): re-grant.
            self._grant(src)
        else:
            waiting = memory.read_word(self._base + WORD_SIZE)
            memory.write_word(self._base + WORD_SIZE, waiting | (1 << src))

    def _lease_lapsed(self):
        if self._last_renew is None:
            return False
        return (self.runtime.system.sim.now - self._last_renew
                > self.runtime.lease_ns)

    def _release_msg(self, src):
        memory = self._home_mem()
        if memory.read_word(self._base) != src + 1:
            return  # stale release (replay after a re-grant elsewhere)
        waiting = memory.read_word(self._base + WORD_SIZE)
        if waiting == 0:
            memory.write_word(self._base, 0)
            return
        nxt = (waiting & -waiting).bit_length() - 1  # lowest waiting id
        memory.write_word(self._base + WORD_SIZE, waiting & ~(1 << nxt))
        memory.write_word(self._base, nxt + 1)
        self._grant(nxt)

    # -- crash recovery --------------------------------------------------------

    def rebuild(self, claimants):
        """Re-seat the lock from surviving CLAIM_LOCK claims (called by
        the home's directory rebuild; lock traffic was deferred).

        At most one claimant can exist -- mutual exclusion held before
        the crash.  The rolled-back waiting bitmap is zeroed rather than
        trusted: a stale bit would hand the lock to a node that is not
        waiting, wedging it for a full lease; real waiters re-ACQ within
        their retry interval.
        """
        memory = self._home_mem()
        memory.write_word(self._base, claimants[0] + 1 if claimants else 0)
        memory.write_word(self._base + WORD_SIZE, 0)
        self._last_renew = self.runtime.system.sim.now

    def node_restored(self, node_id):
        if node_id == self.home:
            # Fresh lease epoch: do not hold the pre-crash silence
            # against the holder.
            self._last_renew = self.runtime.system.sim.now

    def acquire(self, node_id):
        """Generator: block until this node holds the lock."""
        memory = self.runtime.system.nodes[node_id].memory
        memory.write_word(self._flag_addr(), 0)
        yield from _request(self.runtime, node_id, self.home, LOCK_ACQ,
                            self.page, 0, self._flag_addr(),
                            lambda granted: granted != 0)

    def release(self, node_id):
        """Release the lock (not a generator: the message is queued and
        the home serialises the handoff)."""
        memory = self.runtime.system.nodes[node_id].memory
        memory.write_word(self._flag_addr(), 0)
        self.runtime.lock_tenure(node_id, self.page, False)
        self.runtime._send(node_id, self.home, LOCK_REL, self.page, 0)
