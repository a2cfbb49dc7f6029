# simlint: scope=sim
"""SL002: a suppression that suppresses nothing is stale documentation."""


class Lcg:
    """A tiny linear congruential generator the component owns."""

    def __init__(self, seed):
        # simlint: ignore[SL101] left behind after the random import went
        self.state = seed

    def next(self, limit):
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.state % limit
