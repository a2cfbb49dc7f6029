# simlint: scope=sim
"""SL201 along the MRO: mutable state invisible to an inherited table.

The subclass inherits the base's ``CKPT_STATE``; the gap only appears
once the MRO is resolved.
"""

from repro.ckpt.protocol import SCALAR, Checkpointable


class BaseNic(Checkpointable):
    CKPT_STATE = (("_sent", SCALAR),)

    def __init__(self, sim):
        self.sim = sim
        self._sent = 0

    def send(self):
        self._sent += 1


class CountingNic(BaseNic):
    def __init__(self, sim):
        super().__init__(sim)
        # BUG: mutated on the datapath, but the inherited table never
        # names it.
        self._drops = 0

    def drop(self):
        self._drops += 1
