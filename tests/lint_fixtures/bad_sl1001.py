# simlint: scope=sim
"""SL1001: an emitted event kind and a table leaf missing from the
vocabulary tables."""

from repro.sim.instrument import Instrumentation

METRIC_LEAVES = {
    "puts": "FIFO puts",
}

EVENT_KINDS = {
    "nic.injected": "packet handed to the mesh injection FIFO",
}


class Device:
    # BUG: no METRIC_LEAVES row says what a "drops" leaf counts.
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
            # BUG: no EVENT_KINDS row says what nic.reordered means, so
            # dashboards and docs/observability.md never learn it exists.
            self.hub.emit(self.name, "nic.reordered", packet=packet)
