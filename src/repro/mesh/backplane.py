"""Assembly of routers and links into a Paragon-style mesh backplane."""

from repro.ckpt.protocol import Checkpointable, CkptError
from repro.mesh.link import Link
from repro.mesh.router import Router, LOCAL
from repro.mesh.topology import MeshTopology
from repro.sim.instrument import Instrumentation
from repro.sim.resources import Mutex


class Backplane(Checkpointable):
    """A ``width x height`` mesh with one NIC attachment point per router.

    All geometry (node-id layout, neighbour walk, link naming) comes from
    the :class:`~repro.mesh.topology.MeshTopology`; the backplane adds the
    hardware -- routers, links, injection ports.  Construction is
    O(nodes + links).  A NIC attaches by taking the injection link (it
    sends flits into it) and the ejection link (it receives flits from
    it) for its node.
    """

    #: Metrics registered under the backplane's name (``mesh.delivered``).
    METRICS = (("delivered", "counter"),)

    CKPT_SKIP = {"_started": "start-once latch (wiring, not state)"}

    def __init__(self, sim, params, width=None, height=None, name="mesh",
                 topology=None):
        if topology is None:
            topology = MeshTopology(width, height)
        self.topology = topology
        self.sim = sim
        self.params = params
        self.width = topology.width
        self.height = topology.height
        self.name = name
        self.routers = {}
        self._injection = {}  # node_id -> Link (NIC -> router)
        self._ejection = {}  # node_id -> Link (router -> NIC)
        self._injection_locks = {}  # one injector at a time per port
        self.instr = Instrumentation.of(sim)
        (self.packets_delivered,) = self.instr.register(self)
        self._build()
        self._started = False

    # -- geometry (delegated to the topology) ---------------------------------

    @property
    def node_count(self):
        return self.topology.node_count

    def coords_of(self, node_id):
        return self.topology.coords_of(node_id)

    def node_at(self, coords):
        return self.topology.node_at(coords)

    def hop_count(self, src_node, dest_node):
        return self.topology.hop_count(src_node, dest_node)

    # -- construction ----------------------------------------------------------

    def _build(self):
        topo = self.topology
        for coords in topo.iter_coords():
            self.routers[coords] = Router(self.sim, self.params, coords)
        # Neighbour links.  Each adjacent pair gets two unidirectional links.
        for coords, port, ncoords, reverse in topo.forward_neighbor_pairs():
            router = self.routers[coords]
            neighbour = self.routers[ncoords]
            forward = Link(
                self.sim, self.params, topo.link_name(coords, ncoords)
            )
            backward = Link(
                self.sim, self.params, topo.link_name(ncoords, coords)
            )
            router.connect_output(port, forward)
            neighbour.connect_input(reverse, forward)
            neighbour.connect_output(reverse, backward)
            router.connect_input(port, backward)
        # Injection/ejection links for every node.
        for node_id in topo.iter_nodes():
            router = self.routers[topo.coords_of(node_id)]
            inject = Link(self.sim, self.params, topo.inject_name(node_id))
            eject = Link(self.sim, self.params, topo.eject_name(node_id))
            router.connect_input(LOCAL, inject)
            router.connect_output(LOCAL, eject)
            self._injection[node_id] = inject
            self._ejection[node_id] = eject
            self._injection_locks[node_id] = Mutex(
                self.sim, topo.inject_name(node_id) + ".port"
            )

    def start(self):
        """Start all router forwarding processes."""
        if self._started:
            return
        self._started = True
        for router in self.routers.values():
            router.start()

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def iter_links(self):
        """Every link exactly once, in deterministic build order.

        Neighbour links are each some router's output; injection links are
        no router's output (the NIC writes them); ejection links are the
        LOCAL outputs.  So injection links plus all router outputs cover
        the mesh without duplicates.
        """
        for node_id in range(self.node_count):
            yield self._injection[node_id]
        for router in self.routers.values():
            for output in router.outputs.values():
                if output.link is not None:
                    yield output.link

    def ckpt_capture(self):
        """Sparse link capture: only links holding flits or future frees.

        System safepoints require every link idle (worms in flight imply
        live router-process events), so this normally captures nothing;
        the general form keeps component round-trips exact.
        """
        state = super().ckpt_capture()
        state["links"] = [[link.name, link.ckpt_capture()]
                          for link in self.iter_links()
                          if not link.ckpt_idle()]
        return state

    def ckpt_restore(self, state):
        super().ckpt_restore(state)
        by_name = {link.name: link for link in self.iter_links()}
        for link in by_name.values():
            link.reset()
        for name, link_state in state["links"]:
            link = by_name.get(name)
            if link is None:
                raise CkptError(
                    "checkpoint names unknown mesh link %r "
                    "(topology mismatch)" % name
                )
            link.ckpt_restore(link_state)

    # -- NIC attachment ----------------------------------------------------------

    def injection_link(self, node_id):
        return self._injection[node_id]

    def ejection_link(self, node_id):
        return self._ejection[node_id]

    def inject(self, node_id, packet):
        """Generator: send ``packet`` as a worm of its flit count.

        This is the NIC-side transmit path; it blocks under backpressure
        exactly like real wormhole injection.  The injection port admits
        one worm at a time (a node has a single physical port), so
        concurrent callers are serialised rather than interleaved.
        """
        link = self._injection[node_id]
        lock = self._injection_locks[node_id]
        yield from lock.acquire(packet)
        try:
            yield from link.send_burst(
                packet, packet.flit_count(self.params.flit_bytes))
        finally:
            lock.release()

    def receive_packet(self, node_id):
        """Generator: collect one whole packet from the ejection link.

        Flits of one packet arrive contiguously (wormhole switching holds
        the ejection port for the whole worm).  Returns the packet.

        Flits already deposited on the ejection link are consumed run by
        run (:meth:`Link.drain`): each slot is declared free at the flit's
        arrival stamp (when the per-flit reference reader would have
        popped it) and one sleep covers the whole batch, instead of one
        wake-up per flit.
        """
        link = self._ejection[node_id]
        yield from link.arrival()
        packet, index, _ = link.take(self.sim._now)
        if index:
            raise RuntimeError("ejection out of sync at node %d" % node_id)
        tail_index = packet.flit_count(self.params.flit_bytes) - 1
        tail = index == tail_index
        while not tail:
            if not link.runs:
                worm, index = yield from link.receive()
                if worm is not packet:
                    raise RuntimeError("interleaved worms at node %d" % node_id)
                tail = index == tail_index
                continue
            try:
                last, tail = link.drain(packet)
            except ValueError:
                raise RuntimeError(
                    "interleaved worms at node %d" % node_id) from None
            wait = last - self.sim._now
            if wait > 0:
                yield wait
        self.packets_delivered.bump()
        hub = self.instr
        if hub.active:
            hub.emit(self.name, "mesh.eject", node=node_id,
                     words=len(packet.payload))
        return packet
