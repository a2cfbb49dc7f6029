# simlint: scope=sim
"""SL301: metric handles that do not come from the registry table are
invisible to snapshots and checkpoints, or bound to the wrong metric."""

from repro.sim.instrument import Instrumentation
from repro.sim.trace import Counter


class Device:
    METRICS = (("puts", "counter"), ("gets", "counter"),
               ("busy_ns", "probe"))

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.busy_ns = 0
        self.instr = Instrumentation.of(sim)
        # Three handles for two non-probe rows: every handle after the
        # first is bound to the wrong metric.
        self.puts, self.gets, self.busy = self.instr.register(self)
        # Built outside the hub: no name, snapshot or checkpoint.
        self.drops = Counter()


class Untabled:
    def __init__(self, sim, name):
        self.name = name
        # No class on the MRO declares a METRICS table.
        Instrumentation.of(sim).register(self)
