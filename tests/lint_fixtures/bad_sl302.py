# simlint: scope=sim
"""SL302: metric names must be grammatical literals."""

from repro.sim.instrument import Instrumentation


class Device:
    METRICS = (
        ("PUTS", "counter"),      # uppercase: violates the leaf grammar
        ("gets", "gauge"),        # not a metric kind
        ("dma.words", "counter"),  # a leaf is one segment
    )

    def __init__(self, sim, name, kind):
        self.sim = sim
        self.name = name
        self.instr = Instrumentation.of(sim)
        self.puts, self.gets, self.words = self.instr.register(self)
        # Dynamic one-off name: nothing literal for analysis code to grep.
        self.drops = self.instr.counter(self.name + "." + kind)


class Computed:
    # Not a literal table: no leaf or kind can be audited.
    METRICS = tuple((leaf, "counter") for leaf in ("a", "b"))
