"""Discrete-event simulation kernel.

This package is the substrate every hardware model in the repository runs
on.  It provides:

- :class:`~repro.sim.engine.Simulator` -- a deterministic event queue with
  integer-nanosecond timestamps.
- :class:`~repro.sim.process.Process` -- generator-based cooperative
  processes (CPUs, DMA engines, routers are all processes).
- :class:`~repro.sim.process.Signal` -- the broadcast wake-up a process
  waits on by yielding it; a process sleeps by yielding an ``int`` of
  nanoseconds.
- :func:`~repro.sim.poll.poll` -- a fixed-period flag poll folded onto
  its wake sources (one helper for every runtime wait).
- :mod:`~repro.sim.resources` -- mutexes and bounded FIFO queues built from
  the primitives.
- :mod:`~repro.sim.trace` -- the counters and time series the
  instrumentation hub hands out.
- :mod:`~repro.sim.instrument` -- the per-simulator instrumentation hub:
  a namespaced metrics registry plus a structured event bus that every
  hardware layer registers with (see ``docs/observability.md``).

All timestamps are integers in nanoseconds.  Using integers keeps the
simulation exactly reproducible (no floating-point drift in event ordering).
"""

from repro.sim.engine import Simulator, SimulationError, ScheduledEvent
from repro.sim.instrument import Event, Histogram, Instrumentation, MetricError
from repro.sim.process import Process, Signal, Interrupt
from repro.sim.resources import Mutex, BoundedQueue, QueueClosed
from repro.sim.trace import Counter, TimeSeries

__all__ = [
    "Instrumentation",
    "MetricError",
    "Event",
    "Histogram",
    "Simulator",
    "SimulationError",
    "ScheduledEvent",
    "Process",
    "Signal",
    "Interrupt",
    "Mutex",
    "BoundedQueue",
    "QueueClosed",
    "Counter",
    "TimeSeries",
]
