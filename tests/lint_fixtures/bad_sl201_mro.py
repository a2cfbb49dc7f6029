# simlint: scope=sim
"""SL201 along the MRO: mutable state invisible to an inherited checkpoint.

No single class holds the whole __init__/ckpt_capture/ckpt_restore
triple -- the drift only appears once the MRO is resolved.
"""


class BaseNic:
    def ckpt_capture(self):
        return {}

    def ckpt_restore(self, state):
        pass


class CountingNic(BaseNic):
    def __init__(self, sim):
        self.sim = sim
        # BUG: mutated on the datapath, but the inherited capture/restore
        # pair never covers it.
        self._drops = 0

    def drop(self):
        self._drops += 1
