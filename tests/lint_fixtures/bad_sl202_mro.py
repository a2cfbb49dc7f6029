# simlint: scope=sim
"""SL202 and SL203 along the MRO: capture and restore drifted apart.

The capture lives in the base, the restore in the subclass; each class
alone holds only half of the pair, but the chain captures ``ticks``
(SL202: never read back) while the restore reads ``tick_count`` (SL203:
never written).
"""


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
        # BUG: the capture key was never renamed to match.
        self._ticks = state["tick_count"]
