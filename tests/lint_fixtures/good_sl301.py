# simlint: scope=sim
"""SL301 pass: a component declares its metrics in a METRICS table and
takes one handle per non-probe row from the hub."""

from repro.sim.instrument import Instrumentation


class Device:
    METRICS = (("puts", "counter"), ("gets", "counter"),
               ("busy_ns", "probe"))

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.busy_ns = 0
        self.instr = Instrumentation.of(sim)
        self.puts, self.gets = self.instr.register(self)
