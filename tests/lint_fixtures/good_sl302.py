# simlint: scope=sim
"""SL302 pass: literal (leaf, kind) table rows and literal one-off names."""

from repro.sim.instrument import Instrumentation

FLITS_METRIC = "mesh.flits"


class Device:
    METRICS = (("puts", "counter"), ("occupancy", "timeseries"),
               ("latency_ns", "histogram"), ("busy_ns", "probe"))

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.busy_ns = 0
        self.instr = Instrumentation.of(sim)
        (self.puts, self.occupancy,
         self.latency) = self.instr.register(self)
        # One-off metrics are named by a literal or a literal constant.
        self.gets = self.instr.counter("device.gets")
        self.flits = self.instr.counter(FLITS_METRIC)
