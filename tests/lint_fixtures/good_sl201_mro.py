# simlint: scope=sim
"""SL201 pass along the MRO: the subclass extends the inherited table."""

from repro.ckpt.protocol import SCALAR, Checkpointable


class BaseNic(Checkpointable):
    CKPT_STATE = (("_sent", SCALAR),)

    def __init__(self, sim):
        self.sim = sim
        self._sent = 0

    def send(self):
        self._sent += 1


class CountingNic(BaseNic):
    CKPT_STATE = (("_sent", SCALAR), ("_drops", SCALAR))

    def __init__(self, sim):
        super().__init__(sim)
        self._drops = 0

    def drop(self):
        self._drops += 1
