"""A whole SHRIMP multicomputer: a mesh backplane full of nodes."""

from repro.ckpt.protocol import PART, PARTS, Checkpointable
from repro.machine.config import eisa_prototype
from repro.machine.node import ShrimpNode
from repro.mesh.backplane import Backplane
from repro.mesh.topology import MeshTopology
from repro.sim.engine import Simulator
from repro.sim.instrument import Instrumentation


class ShrimpSystem(Checkpointable):
    """``width x height`` SHRIMP nodes on a Paragon-style backplane.

    Typical use::

        system = ShrimpSystem(4, 4)       # the 16-node system of section 5.1
        system.start()
        node_a, node_b = system.nodes[0], system.nodes[15]
        ...
        system.sim.run_until_idle()

    The checkpoint holds the hardware state of every node plus the mesh
    backplane.  The simulator clock, instrumentation hub and workload
    descriptors are captured by
    :class:`~repro.ckpt.system.SystemCheckpoint`, which owns the
    safepoint protocol this composition relies on.
    """

    CKPT_STATE = (("nodes", PARTS), ("backplane", PART))
    CKPT_SKIP = {"_started": "start-once latch; restore targets a freshly "
                             "built (already started) system"}

    def __init__(self, width, height, params_factory=eisa_prototype, sim=None,
                 topology=None):
        self.sim = sim or Simulator()
        # The machine-wide instrumentation hub (metrics registry + event
        # bus); every component below registers with this same instance.
        self.instrumentation = Instrumentation.of(self.sim)
        self.topology = topology or MeshTopology(width, height)
        self.width = self.topology.width
        self.height = self.topology.height
        self.params_factory = params_factory
        self.params = params_factory()
        self.backplane = Backplane(self.sim, self.params.mesh,
                                   topology=self.topology)
        self.nodes = [
            ShrimpNode(self.sim, node_id, self.backplane, self.params)
            for node_id in range(self.backplane.node_count)
        ]
        # CpuWorker workloads register here so SystemCheckpoint can capture
        # their programs, contexts and pending instruction-boundary resumes.
        self.ckpt_workers = []
        self._started = False

    @property
    def node_count(self):
        return len(self.nodes)

    def start(self):
        if self._started:
            return
        self._started = True
        self.backplane.start()
        for node in self.nodes:
            node.start()

    def run(self, until=None, max_events=20_000_000):
        self.sim.run(until=until, max_events=max_events)

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_refusal(self, state):
        if state is not None and len(state["nodes"]) != len(self.nodes):
            return ("checkpoint has %d nodes, system has %d"
                    % (len(state["nodes"]), len(self.nodes)))
        return None
