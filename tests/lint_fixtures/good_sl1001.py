# simlint: scope=sim
"""SL1001 pass: every emitted kind and table leaf has a vocabulary row."""

from repro.sim.instrument import Instrumentation

METRIC_LEAVES = {
    "puts": "FIFO puts",
    "drops": "packets dropped",
}

EVENT_KINDS = {
    "nic.injected": "packet handed to the mesh injection FIFO",
    "nic.reordered": "packet re-queued behind a younger arrival",
}


class Device:
    METRICS = (("puts", "counter"), ("drops", "counter"))

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.hub = Instrumentation.of(sim)
        self.puts, self.drops = self.hub.register(self)

    def inject(self, packet):
        if self.hub.active:
            self.hub.emit(self.name, "nic.injected", packet=packet)

    def reorder(self, packet):
        if self.hub.active:
            self.hub.emit(self.name, "nic.reordered", packet=packet)
