# simlint: scope=sim
"""SL201: a mutable attribute drifts out of the checkpoint tables."""

from repro.ckpt.protocol import SCALAR, Checkpointable


class Fifo(Checkpointable):
    CKPT_STATE = (("_depth", SCALAR),)

    def __init__(self, sim):
        self.sim = sim
        self._depth = 0
        # BUG: mutated on the datapath, but neither table names it.
        self._ticks = 0

    def tick(self):
        self._depth += 1
        self._ticks += 1
