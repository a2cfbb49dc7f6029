# simlint: scope=sim
"""SL201 pass along the MRO: the inherited capture/restore pair covers the state."""


class BaseNic:
    def ckpt_capture(self):
        return {"drops": self._drops}

    def ckpt_restore(self, state):
        self._drops = state["drops"]


class CountingNic(BaseNic):
    def __init__(self, sim):
        self.sim = sim
        self._drops = 0

    def drop(self):
        self._drops += 1
