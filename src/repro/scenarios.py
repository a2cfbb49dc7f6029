"""Named end-to-end scenarios, each built into a started system.

One table of the machine's canonical runs, for the sanitizer
(``python -m repro.lint --sanitize NAME``), the determinism tests and
anyone who wants a ready-made machine::

    from repro.scenarios import build

    system = build("contention")
    system.run()

Every builder is a pure function of its keyword arguments, so the same
name and kwargs always give a bit-identical run.  ``make pin`` (that is,
``python -m repro.scenarios pin tests/fingerprints.json``) records each
scenario's fingerprint at default kwargs, plus the seeded
:data:`VARIANTS` under keys like ``dsm@seed=2``;
``tests/test_scenarios.py`` holds every run to that pin.
"""

import json
import sys

from repro.ckpt.divergence import fingerprint
from repro.ckpt.scenarios import (
    build_bandwidth,
    build_blocked_stream,
    build_contention,
    build_ping_pong,
)
from repro.faults.controller import FaultController
from repro.faults.plan import FaultPlan, NodeCrash
from repro.faults.scenario import build_storm_with_channel
from repro.workload.dsm_apps import DsmWorkload
from repro.workload.generator import DatacenterWorkload
from repro.workload.traffic import WorkloadParams

#: Default fault plan seed for the ``fault_storm`` scenario.
STORM_SEED = 0xC0FFEE


def storm_plan(seed, width=4, height=4):
    """The seeded, crash-free fault schedule of the ``fault_storm``
    scenario: link flaps, router stalls, and FIFO pressure, all inside
    the storm window."""
    return FaultPlan.seeded(
        seed,
        duration_ns=20_000,
        link_names=("link(1,1)->(2,1)", "link(2,2)->(2,1)", "inject(3)"),
        router_coords=((2, 1),),
        nodes=(7,),
        pressure_bytes=256,
    )


def _fault_storm(words_per_sender=12, fault_seed=STORM_SEED):
    system = build_storm_with_channel(words_per_sender=words_per_sender)[0]
    FaultController(system, storm_plan(fault_seed)).arm()
    return system


def _workload(**kwargs):
    """The open-loop datacenter workload (:mod:`repro.workload`).

    Accepts every :class:`~repro.workload.traffic.WorkloadParams` field
    as a keyword (width, height, seed, requests, addr_map, ...).
    """
    return DatacenterWorkload(WorkloadParams(**kwargs)).start().system


def _dsm(**kwargs):
    """Fetch-on-fault shared memory (:mod:`repro.dsm`): the DSM app
    family -- stencil by default -- over the directory protocol.

    Accepts :class:`~repro.workload.dsm_apps.DsmWorkload` keywords
    (kind, width, height, iterations, words, seed, requests, ...).
    """
    return DsmWorkload(**kwargs).start().system


def _dsm_homecrash(width=4, height=4, iterations=2, seed=1,
                   crash_at=400_000, dwell_ns=120_000):
    """The DSM home-crash recovery scenario: the ``homecrash`` app with
    node 1 -- home of the contended data page *and* of the lock --
    crashed mid-run and restored after ``dwell_ns``, so the directory
    rebuild, lease expiry and lock revocation all run.
    """
    from repro.faults.recovery import spawn_crash_restore_cycle

    workload = DsmWorkload(kind="homecrash", width=width, height=height,
                           iterations=iterations, seed=seed).start()
    runtime = workload.runtime

    def crash(node_id):
        spawn_crash_restore_cycle(
            workload.system, node_id, crash_at, dwell_ns, runtime.mappings,
            channels=runtime.channels() + [runtime])

    FaultController(workload.system, FaultPlan([NodeCrash(crash_at, 1)]),
                    crash_handler=crash).arm()
    return workload.system


#: name -> builder(**kwargs) returning a started ShrimpSystem.
SCENARIOS = {
    "ping_pong": build_ping_pong,
    "bandwidth": build_bandwidth,
    "contention": build_contention,
    "blocked_stream": build_blocked_stream,
    "fault_storm": _fault_storm,
    "workload": _workload,
    "dsm": _dsm,
    "dsm_homecrash": _dsm_homecrash,
}


#: Pinned runs beyond the defaults: a second seed for every scenario
#: whose retry, lease, replay, retransmit or crash paths depend on one.
VARIANTS = (
    ("dsm", {"seed": 2}),
    ("dsm_homecrash", {"seed": 2}),
    ("fault_storm", {"fault_seed": 2}),
    ("workload", {"seed": 2}),
)


def variant_key(name, kwargs):
    """The pin key of scenario ``name`` at ``kwargs``: the bare name for
    the defaults, else ``name@k=v,...`` with the keywords sorted."""
    if not kwargs:
        return name
    return "%s@%s" % (name, ",".join(
        "%s=%s" % item for item in sorted(kwargs.items())))


def parse_key(key):
    """Inverse of :func:`variant_key`: ``(name, kwargs)``."""
    name, _, spec = key.partition("@")
    kwargs = {}
    for item in filter(None, spec.split(",")):
        field, _, value = item.partition("=")
        kwargs[field] = int(value)
    return name, kwargs


def pin_keys():
    """Every pinned key: each scenario at its defaults, then the
    :data:`VARIANTS`."""
    return sorted(SCENARIOS) + [variant_key(name, kwargs)
                                for name, kwargs in VARIANTS]


def build(name, **kwargs):
    """Build scenario ``name`` with ``kwargs`` and return its started
    system; ``KeyError`` for an unknown name."""
    return SCENARIOS[name](**kwargs)


def pinned_fingerprint(key):
    """The fingerprint of pin ``key`` (see :func:`variant_key`), run to
    idle, minus ``event_count``.

    The event count is engine bookkeeping (folding wake-ups changes it
    while every physical observable stays put), so the pin in
    ``tests/fingerprints.json`` leaves it out.
    """
    name, kwargs = parse_key(key)
    system = build(name, **kwargs)
    system.run(max_events=2_000_000)
    pinned = fingerprint(system)
    del pinned["event_count"]
    return pinned


def pin(path):
    """Record the :func:`pinned_fingerprint` of every :func:`pin_keys`
    entry into ``path``."""
    pins = {key: pinned_fingerprint(key) for key in pin_keys()}
    with open(path, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "pin":
        sys.exit("usage: python -m repro.scenarios pin PATH")
    pin(sys.argv[2])
