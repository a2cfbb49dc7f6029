# simlint: scope=sim
"""A device inheriting its checkpoint table through the re-export."""

from repro.sim.instrument import Instrumentation

from projpkg import BaseCounter


class TickDevice(BaseCounter):
    def __init__(self, sim, name):
        super().__init__()
        self.sim = sim
        self.name = name
        self.hub = Instrumentation.of(sim)
        # SL201: mutated below, but the inherited CKPT_STATE in
        # counters.py only names _ticks.
        self._skips = 0

    def tick(self):
        self._ticks += 1
        if self.hub.active:
            self.hub.emit(self.name, "dev.tick", ticks=self._ticks)

    def skip(self):
        self._skips += 1
        if self.hub.active:
            # SL1001: no vocabulary row documents dev.orphan.
            self.hub.emit(self.name, "dev.orphan", skips=self._skips)
