# simlint: scope=sim
"""SL202/SL203 pass along the MRO: the split capture/restore pair agrees on its keys."""


class BaseStage:
    def __init__(self, sim):
        self.sim = sim
        self._ticks = 0

    def tick(self):
        self._ticks += 1

    def ckpt_capture(self):
        return {"ticks": self._ticks}


class RenamedStage(BaseStage):
    def ckpt_restore(self, state):
        self._ticks = state["ticks"]
