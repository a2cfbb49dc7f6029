# simlint: scope=sim
"""SL201 pass: every row names an attribute, set in ``__init__`` or
declared in ``__slots__``."""

from repro.ckpt.protocol import SCALAR, Checkpointable


class Counter(Checkpointable):
    __slots__ = ("value",)

    CKPT_STATE = (("value", SCALAR),)

    def bump(self):
        self.value += 1


class Fifo(Checkpointable):
    CKPT_STATE = (("_ticks", SCALAR),)

    def __init__(self, sim):
        self.sim = sim
        self._ticks = 0

    def tick(self):
        self._ticks += 1
