"""Full software-stack bootstrap: machine + kernels + schedulers.

A :class:`Cluster` is a :class:`~repro.machine.system.ShrimpSystem` with a
:class:`~repro.os.kernel.Kernel` and a scheduler on every node -- the
configuration every OS-level test, example and benchmark starts from.
"""

from repro.machine.config import eisa_prototype
from repro.machine.system import ShrimpSystem
from repro.os.kernel import Kernel
from repro.os.params import OsParams
from repro.os.scheduler import RoundRobinScheduler


class Cluster:
    """A booted SHRIMP multicomputer."""

    def __init__(self, width, height, params_factory=eisa_prototype,
                 os_params=None):
        self.system = ShrimpSystem(width, height, params_factory)
        self.topology = self.system.topology
        self.sim = self.system.sim
        self.kernels = [
            Kernel(node, os_params or OsParams()) for node in self.system.nodes
        ]
        self.schedulers = [
            RoundRobinScheduler(kernel) for kernel in self.kernels
        ]
        self._started = False

    @property
    def nodes(self):
        return self.system.nodes

    def kernel(self, node_id):
        return self.kernels[node_id]

    def scheduler(self, node_id):
        return self.schedulers[node_id]

    def start(self):
        """Start the machine, kernels and any schedulers with work queued."""
        if self._started:
            return
        self._started = True
        self.system.start()
        for kernel in self.kernels:
            kernel.start()
        for scheduler in self.schedulers:
            if scheduler._run_queue:
                scheduler.start()

    def spawn(self, node_id, name, program):
        """Create and enqueue a process; returns the
        :class:`~repro.os.process.OsProcess`."""
        process = self.kernel(node_id).create_process(name, program)
        self.scheduler(node_id).add(process)
        return process

    def run(self, until=None, max_events=50_000_000):
        self.sim.run(until=until, max_events=max_events)

    def read_process_words(self, node_id, process, vaddr, nwords):
        """Read a process's memory through its page table (test helper)."""
        return self.kernel(node_id).read_user_words(process, vaddr, nwords)
