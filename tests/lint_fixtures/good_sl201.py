# simlint: scope=sim
"""SL201 pass: every mutable attribute is checkpointed or skipped with
its reason."""

from repro.ckpt.protocol import SCALAR, Checkpointable


class Fifo(Checkpointable):
    CKPT_STATE = (("_depth", SCALAR), ("_ticks", SCALAR))
    CKPT_SKIP = {"_hooks": "fault state, re-armed from the fault plan"}

    def __init__(self, sim):
        self.sim = sim
        self._depth = 0
        self._ticks = 0
        self._hooks = ()

    def tick(self):
        self._depth += 1
        self._ticks += 1

    def add_hook(self, hook):
        self._hooks = self._hooks + (hook,)
