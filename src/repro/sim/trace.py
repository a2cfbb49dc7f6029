"""Counters and time series, the metric primitives.

The instrumentation hub (``repro.sim.instrument``) owns and hands out
these, and names them when it reads them; hardware models bump them,
and benches read them back.
"""

from repro.ckpt.protocol import ROWS, SCALAR, Checkpointable


class Counter(Checkpointable):
    """A monotonically increasing counter with a convenience API.

    The registry names it on read (``repro.sim.instrument``); the counter
    itself holds only its value.
    """

    __slots__ = ("value",)

    CKPT_STATE = (("value", SCALAR),)

    def __init__(self):
        self.value = 0

    def bump(self, amount=1):
        self.value += amount

    def reset(self):
        self.value = 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return "Counter(%d)" % self.value


class TimeSeries(Checkpointable):
    """Records (time, value) samples; used for FIFO occupancy, bus load, etc.

    Unsampled, ``samples`` is the shared empty tuple; the first
    :meth:`record` builds the list.  Sampling is gated on the event bus,
    so most series of a large machine never hold a list.
    """

    __slots__ = ("samples",)

    CKPT_STATE = (("samples", ROWS),)

    def __init__(self):
        self.samples = ()

    def record(self, time, value):
        if self.samples:
            self.samples.append((time, value))
        else:
            self.samples = [(time, value)]

    def values(self):
        return [v for _t, v in self.samples]

    def max(self):
        return max(self.values()) if self.samples else None

    def min(self):
        return min(self.values()) if self.samples else None

    def mean(self):
        vals = self.values()
        return sum(vals) / len(vals) if vals else None

    def time_weighted_mean(self, end_time=None):
        """Mean weighted by how long each value was held.

        Requires at least one sample; the final value is held until
        ``end_time`` (default: the last sample's time, contributing zero).
        An ``end_time`` before the last sample is a contradiction -- the
        horizon would run backwards -- and raises :class:`ValueError`.
        """
        if not self.samples:
            return None
        t_last, v_last = self.samples[-1]
        if end_time is not None and end_time < t_last:
            raise ValueError(
                "end_time %r precedes the last sample at %r"
                % (end_time, t_last)
            )
        total = 0.0
        duration = 0
        for (t0, v0), (t1, _v1) in zip(self.samples, self.samples[1:]):
            total += v0 * (t1 - t0)
            duration += t1 - t0
        if end_time is not None and end_time > t_last:
            total += v_last * (end_time - t_last)
            duration += end_time - t_last
        if duration == 0:
            return float(self.samples[-1][1])
        return total / duration
