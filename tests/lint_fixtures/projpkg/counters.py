# simlint: scope=sim
"""The base class whose checkpoint table the subclass inherits."""

from repro.ckpt.protocol import SCALAR, Checkpointable


class BaseCounter(Checkpointable):
    CKPT_STATE = (("_ticks", SCALAR),)

    def __init__(self):
        self._ticks = 0
