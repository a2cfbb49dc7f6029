"""Shared-memory applications over :mod:`repro.dsm` -- no ``csend`` ever.

Three app families the ROADMAP names, all built on fetch-on-fault pages:

- **stencil** -- node ``i`` owns its data page and writes a deterministic
  pattern each iteration, then reads a boundary word from every mesh
  neighbour's page (each a *remote* fetch) and folds it into a local
  scratch accumulator, with a DSM barrier between phases.  Ownership of
  every page cycles WRITE -> readers -> section 4.4 invalidation walk ->
  WRITE each iteration.
- **bfs** -- level-synchronous breadth-first search over the mesh graph
  itself: the distance array lives on node 0's shared page and every
  node relaxes its own entry by reading its neighbours', so one page's
  ownership migrates across the whole machine each round.
- **kv** -- a get/put key-value store driven by the open-loop generator
  (:func:`repro.workload.traffic.build_schedule`): Poisson arrivals and
  Zipf keys mapped onto the shared space, gets and puts faulting pages
  in from their homes.
- **homecrash** -- the crash-recovery stressor: the mesh's first row
  contends for a *single* data page homed at node 1 (WRITE churn into
  per-node slot words plus a :class:`~repro.dsm.sync.DsmLock`-protected
  max-fold into a shared cell), with a barrier per iteration.  Crashing
  node 1 mid-run takes out the page's home, the lock's home, and a
  participant at once -- exercising the directory rebuild, lease
  expiry, and lock revocation paths end to end.  The critical section
  is idempotent and commutative (a max-fold), so a revoked-then-replayed
  tenure commits the same bytes.

All app bodies are **restartable state machines**: loop progress lives
in the node's DSM scratch words, writes are pure functions of (node,
step), so a crash/restore re-runs the lost steps bit-identically --
the contract the convergence property test (tests/test_dsm.py) pins.

``DsmWorkload`` is a pure function of its parameters, so the same
parameters always give a bit-identical run; the ``dsm`` and
``dsm_homecrash`` scenarios in :mod:`repro.scenarios` wrap it.
"""

from repro.dsm.runtime import DsmRuntime
from repro.dsm.segment import DsmSegment
from repro.dsm.state import DsmLayout
from repro.dsm.sync import DsmBarrier, DsmLock
from repro.machine.system import ShrimpSystem
from repro.memsys.address import PAGE_SIZE, WORD_SIZE
from repro.sim.process import Process
from repro.workload.traffic import WorkloadParams, build_schedule

#: Scratch word assignments (see repro.dsm.state.SCRATCH_WORDS).
SCRATCH_BARRIER = 0   # DsmBarrier seen-epoch word
SCRATCH_LOCK = 1      # DsmLock granted flag
SCRATCH_PROGRESS = 2  # app loop progress (iteration / round / request)
SCRATCH_ACCUM = 3     # app-local checksum accumulator

#: Value words are masked to 2^32 like everything on the wire.
_MASK = 0xFFFFFFFF

APP_KINDS = ("stencil", "bfs", "kv", "homecrash")

#: Distance-array sentinel for unvisited BFS nodes.
BFS_INF = 0x3FFFFFFF


def stencil_value(node_id, iteration, word):
    """The deterministic cell pattern node ``node_id`` writes."""
    return (node_id * 1_000_003 + iteration * 10_007 + word * 101) & _MASK


class DsmWorkload:
    """Build a mesh, a DSM runtime sized to it, and one app per node.

    ``pages_per_node`` is fixed at 2: page ``2*i`` is node ``i``'s data
    page, page ``2*i + 1`` its sync page (the barrier lives on node 0's
    sync page, global page 1).
    """

    def __init__(self, kind="stencil", width=4, height=4, iterations=2,
                 words=8, rounds=None, params=None, seed=1, requests=32,
                 params_factory=None):
        if kind not in APP_KINDS:
            raise ValueError("unknown DSM app kind %r (have %s)"
                             % (kind, ", ".join(APP_KINDS)))
        self.kind = kind
        self.width = width
        self.height = height
        self.iterations = iterations
        self.words = min(words, PAGE_SIZE // WORD_SIZE - 1)
        if params_factory is None:
            self.system = ShrimpSystem(width, height)
        else:
            self.system = ShrimpSystem(width, height,
                                       params_factory=params_factory)
        n = len(self.system.nodes)
        self.node_count = n
        dram_bytes = self.system.nodes[0].memory.size_bytes
        self.layout = DsmLayout(n, 2, dram_bytes)
        self.topology = self.system.topology

        if kind == "kv":
            self.params = params or WorkloadParams(
                width=width, height=height, seed=seed, requests=requests)
            self.schedule = build_schedule(self.params, self.topology)
            self.rounds = None
        else:
            self.params = None
            self.schedule = None
            self.rounds = rounds if rounds is not None else (
                (width - 1) + (height - 1))

        pairs = self._pairs()
        self.runtime = DsmRuntime(self.system, self.layout, pairs, seed=seed)
        self.segments = [DsmSegment(self.runtime, i) for i in range(n)]
        if kind == "homecrash":
            participants = self.active_nodes()
            if self.words < len(participants) + 1:
                raise ValueError(
                    "homecrash needs %d words (max cell + one slot per "
                    "active node), got %d" % (len(participants) + 1,
                                              self.words))
        else:
            participants = list(range(n))
        #: The barrier every app family synchronises on: node 0's sync
        #: page (global page 1).  The homecrash kind synchronises only
        #: its active row.
        self.barrier = DsmBarrier(self.runtime, 1, participants,
                                  scratch_index=SCRATCH_BARRIER)
        self.lock = None
        if kind == "homecrash":
            #: The contended lock lives on node 1's sync page -- crash
            #: node 1 and the lock home dies with the page home.
            self.lock = DsmLock(self.runtime, 3, scratch_index=SCRATCH_LOCK)
        for node_id in participants:
            self.runtime.add_app(node_id, self._app_factory(node_id))
        if kind == "bfs":
            # Seed the distance array: node 0 at distance 0, rest INF.
            for node_id in range(n):
                self.segments[0].poke(
                    self._bfs_addr(node_id),
                    0 if node_id == 0 else BFS_INF)

    # -- shared-space geometry -------------------------------------------------

    def active_nodes(self):
        """The homecrash kind's participants: the mesh's first row.

        The whole DSM footprint (participants, both page homes, every
        barrier-tree edge) stays inside one row.  The placement is kept
        because the ``dsm_homecrash`` scenario's pinned fingerprint and
        event stream depend on it; moving it would re-pin that scenario.
        """
        return sorted(self.topology.node_at((x, 0))
                      for x in range(self.width))

    def data_page(self, node_id):
        return 2 * node_id

    def data_addr(self, node_id, word):
        return self.data_page(node_id) * PAGE_SIZE + word * WORD_SIZE

    def _bfs_addr(self, node_id):
        # The whole distance array lives on node 0's data page.
        return self.data_addr(0, node_id)

    def _kv_addr(self, key):
        total_words = self.node_count * (PAGE_SIZE // WORD_SIZE)
        slot = (key * 17) % total_words
        node = slot // (PAGE_SIZE // WORD_SIZE)
        return self.data_addr(node, slot % (PAGE_SIZE // WORD_SIZE))

    def _neighbors(self, node_id):
        x, y = self.topology.coords_of(node_id)
        found = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < self.width and 0 <= ny < self.height:
                found.append(self.topology.node_at((nx, ny)))
        return sorted(found)

    def _pairs(self):
        """Every edge the apps and the barrier tree will communicate on.

        The barrier contributes its combining-tree edges (bounded fan-in)
        rather than a participant--home star, which on a 64-node mesh
        would aim 63 simultaneous arrivals at one node.
        """
        if self.kind == "homecrash":
            active = self.active_nodes()
            pairs = set(DsmBarrier.tree_edges(active))
            data_home = self.layout.home_of(self.data_page(1))
            lock_home = self.layout.home_of(3)
            for node_id in active:
                pairs.add(tuple(sorted((node_id, data_home))))
                pairs.add(tuple(sorted((node_id, lock_home))))
            return [p for p in sorted(pairs) if p[0] != p[1]]
        pairs = set(DsmBarrier.tree_edges(range(self.node_count)))
        for node_id in range(self.node_count):
            if self.kind == "stencil":
                for neighbor in self._neighbors(node_id):
                    pairs.add(tuple(sorted((node_id, neighbor))))
            elif self.kind == "bfs":
                pairs.add(tuple(sorted(
                    (node_id, self.layout.home_of(self.data_page(0))))))
        if self.kind == "kv":
            for request in self.schedule:
                page = self.layout.page_of(self._kv_addr(request.key))
                pairs.add(tuple(sorted(
                    (request.src_node, self.layout.home_of(page)))))
        return [p for p in sorted(pairs) if p[0] != p[1]]

    # -- app bodies ------------------------------------------------------------

    def _app_factory(self, node_id):
        body = {"stencil": self._stencil_body, "bfs": self._bfs_body,
                "kv": self._kv_body,
                "homecrash": self._homecrash_body}[self.kind]

        def factory():
            return body(node_id)

        return factory

    def _progress_addr(self):
        return self.layout.scratch_addr(SCRATCH_PROGRESS)

    def _accum_addr(self):
        return self.layout.scratch_addr(SCRATCH_ACCUM)

    def _stencil_body(self, node_id):
        """Write own page, barrier, read neighbour boundaries, barrier.

        Progress and the halo checksum live in scratch DRAM so a restore
        resumes mid-grid; page writes depend only on (node, iteration,
        word), so re-run iterations rewrite identical bytes.
        """
        segment = self.segments[node_id]
        memory = self.system.nodes[node_id].memory
        neighbors = self._neighbors(node_id)
        while True:
            done = memory.read_word(self._progress_addr())
            if done >= self.iterations:
                break
            iteration = done + 1
            for word in range(self.words):
                yield from segment.store_word(
                    self.data_addr(node_id, word),
                    stencil_value(node_id, iteration, word))
            yield from self.barrier.wait(node_id, 2 * iteration - 1)
            accum = memory.read_word(self._accum_addr())
            for neighbor in neighbors:
                value = yield from segment.load_word(
                    self.data_addr(neighbor, node_id % self.words))
                accum = (accum + value) & _MASK
            memory.write_word(self._accum_addr(), accum)
            yield from self.barrier.wait(node_id, 2 * iteration)
            memory.write_word(self._progress_addr(), iteration)

    def _bfs_body(self, node_id):
        """Level-synchronous relaxation of this node's distance entry."""
        segment = self.segments[node_id]
        memory = self.system.nodes[node_id].memory
        neighbors = self._neighbors(node_id)
        while True:
            done = memory.read_word(self._progress_addr())
            if done >= self.rounds:
                break
            round_index = done + 1
            best = yield from segment.load_word(self._bfs_addr(node_id))
            for neighbor in neighbors:
                dist = yield from segment.load_word(self._bfs_addr(neighbor))
                if dist + 1 < best:
                    best = dist + 1
            current = yield from segment.load_word(self._bfs_addr(node_id))
            if best < current:
                yield from segment.store_word(self._bfs_addr(node_id), best)
            yield from self.barrier.wait(node_id, round_index)
            memory.write_word(self._progress_addr(), round_index)

    def _homecrash_body(self, node_id):
        """Churn the victim-homed page: slot write, locked max-fold,
        barrier.

        Everything here is crash-replayable: the slot word is a pure
        function of (node, iteration), the max-fold is idempotent and
        commutative, and progress only advances after the barrier -- so
        a rolled-back participant (or a revoked lock tenure re-run after
        a lease expiry) re-commits identical bytes.
        """
        segment = self.segments[node_id]
        memory = self.system.nodes[node_id].memory
        slot = self.active_nodes().index(node_id)
        while True:
            done = memory.read_word(self._progress_addr())
            if done >= self.iterations:
                break
            iteration = done + 1
            yield from segment.store_word(
                self.data_addr(1, 1 + slot),
                stencil_value(node_id, iteration, 1 + slot))
            yield from self.lock.acquire(node_id)
            current = yield from segment.load_word(self.data_addr(1, 0))
            candidate = stencil_value(node_id, iteration, 0)
            if candidate > current:
                yield from segment.store_word(self.data_addr(1, 0),
                                              candidate)
            self.lock.release(node_id)
            yield from self.barrier.wait(node_id, iteration)
            memory.write_word(self._progress_addr(), iteration)

    def _kv_body(self, node_id):
        """Open-loop gets/puts against the shared space."""
        segment = self.segments[node_id]
        memory = self.system.nodes[node_id].memory
        sim = self.system.sim
        mine = [r for r in self.schedule if r.src_node == node_id]
        while True:
            done = memory.read_word(self._progress_addr())
            if done >= len(mine):
                break
            request = mine[done]
            if request.arrival_ns > sim.now:
                yield request.arrival_ns - sim.now
            addr = self._kv_addr(request.key)
            if request.index % 2 == 0:  # put
                yield from segment.store_word(
                    addr, (request.key * 7 + request.index) & _MASK)
            else:  # get
                value = yield from segment.load_word(addr)
                accum = memory.read_word(self._accum_addr())
                memory.write_word(self._accum_addr(),
                                  (accum + value) & _MASK)
            memory.write_word(self._progress_addr(), done + 1)

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        self.system.start()
        self.runtime.start()
        return self

    def run(self, until=None):
        self.system.run(until=until)
        return self

    def crash_restore(self, node_id, crash_at, dwell_ns):
        """Crash ``node_id`` at ``crash_at`` and restore it ``dwell_ns``
        later (:func:`~repro.faults.recovery.crash_restore`, with the
        runtime as the one participant).  Returns the started process;
        its ``result`` is the recovery record once the node is back."""
        # Imported here so a crash-free run never loads the ckpt package.
        from repro.faults.recovery import crash_restore

        runtime = self.runtime
        return Process(
            self.system.sim,
            crash_restore(self.system, node_id, crash_at, dwell_ns,
                          runtime.mappings, (runtime,)),
            "crash-cycle(%d)" % node_id,
        ).start()

    # -- results ---------------------------------------------------------------

    def final_shared_bytes(self):
        """The authoritative bytes of every shared data page (owner copy
        if owned, else home copy) -- the convergence test's observable."""
        chunks = []
        segment = self.segments[0]
        for node_id in range(self.node_count):
            words = [
                segment.peek(self.data_addr(node_id, word))
                for word in range(PAGE_SIZE // WORD_SIZE)
            ]
            chunks.append(words)
        return chunks

    def expected_stencil(self):
        """Fault-free final data-page contents for the stencil app."""
        chunks = []
        for node_id in range(self.node_count):
            words = [0] * (PAGE_SIZE // WORD_SIZE)
            for word in range(self.words):
                words[word] = stencil_value(node_id, self.iterations, word)
            chunks.append(words)
        return chunks

    def expected_homecrash(self):
        """Fault-free final data-page contents for the homecrash app."""
        active = self.active_nodes()
        chunks = []
        for node_id in range(self.node_count):
            chunks.append([0] * (PAGE_SIZE // WORD_SIZE))
        words = chunks[1]
        words[0] = max(stencil_value(node, iteration, 0)
                       for node in active
                       for iteration in range(1, self.iterations + 1))
        for slot, node in enumerate(active):
            words[1 + slot] = stencil_value(node, self.iterations, 1 + slot)
        return chunks

    def expected_bfs(self):
        """Manhattan distance from node 0 for every node."""
        sx, sy = self.topology.coords_of(0)
        distances = []
        for node_id in range(self.node_count):
            x, y = self.topology.coords_of(node_id)
            distances.append(abs(x - sx) + abs(y - sy))
        return distances
