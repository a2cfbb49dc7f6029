"""Fault injection for the simulated SHRIMP machine (see docs/faults.md).

``repro.faults`` turns fault injection from ad-hoc monkey-patching into a
first-class, declarative subsystem:

- :mod:`repro.faults.plan` -- :class:`FaultPlan`, a seeded, serializable
  schedule of typed fault events;
- :mod:`repro.faults.controller` -- :class:`FaultController`, which arms
  a plan against a live system through sanctioned hooks only;
- :mod:`repro.faults.injectors` -- the hook-based packet mutators
  (corruption, misrouting);
- :mod:`repro.faults.recovery` -- whole-node crash/restore orchestration
  on top of per-node checkpoints, one :func:`crash_restore` process body
  for every crash (imported lazily: it pulls in the checkpoint
  machinery).

Every injected fault is observable as a typed ``fault.*`` event on the
instrumentation bus, and an empty plan leaves a run bit-for-bit identical
to one with no fault subsystem at all.
"""

from repro.faults.controller import FaultController, FaultError
from repro.faults.injectors import CorruptEveryNth, MisrouteEveryNth
from repro.faults.plan import (
    CorruptWindow,
    FaultEvent,
    FaultPlan,
    FifoPressure,
    LinkDown,
    LinkUp,
    MisrouteWindow,
    RouterResume,
    RouterStall,
    SeededStream,
)

__all__ = [
    "CorruptEveryNth",
    "CorruptWindow",
    "FaultController",
    "FaultError",
    "FaultEvent",
    "FaultPlan",
    "FifoPressure",
    "LinkDown",
    "LinkUp",
    "MisrouteEveryNth",
    "MisrouteWindow",
    "RouterResume",
    "RouterStall",
    "SeededStream",
]
