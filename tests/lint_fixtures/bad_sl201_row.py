# simlint: scope=sim
"""SL201: a table row names no attribute.

``_tick`` was renamed ``_ticks`` in ``__init__`` but not in the table, so
the checkpoint would read an attribute that does not exist.
"""

from repro.ckpt.protocol import SCALAR, Checkpointable


class Fifo(Checkpointable):
    CKPT_STATE = (("_tick", SCALAR),)
    CKPT_SKIP = {"_ticks": "a row names it (under its old name)"}

    def __init__(self, sim):
        self.sim = sim
        self._ticks = 0

    def tick(self):
        self._ticks += 1
