"""Crash-recovery benchmarks: replayed-traffic window + retransmit cost.

Runs the canonical crash-recovery scenario
(:func:`repro.scenarios.run_crash_recovery`): a 16-node contention
storm with a reliable channel streaming into node (1, 1), which is
crashed mid-storm and restored in place from its last per-node
checkpoint.  Every run is
verified against the fault-free reference -- the hot node's receive
buffers and the channel's application buffer must match byte for byte --
so the numbers below are the *cost of a recovery that provably worked*:

- ``recovery_window_ns``  -- crash to restore (simulated);
- ``replay_window_ns``    -- checkpoint to crash: how much progress the
  node lost and must redo;
- ``frames_replayed``     -- reliable frames rolled back by the restore
  and retransmitted (the replayed-traffic window);
- ``retransmits``         -- total retransmitted frames, incl. timeouts
  while the node was dark (the channel's recovery overhead);
- ``dropped_packets``     -- volatile NIC state lost with the node.

The ``dsm_homecrash`` scale runs the ``dsm_homecrash`` scenario
(:func:`repro.scenarios.homecrash_workload`), which crashes a DSM
*home* instead (:mod:`repro.dsm`, see docs/dsm.md "Crash recovery"), and
measures the directory-rebuild machinery, again only after the final
shared bytes matched the closed form:

- ``rebuild_window_ns``   -- ``dsm.rebuild_start`` to ``dsm.rebuild_done``:
  how long the restored home spent collecting survivor claims;
- ``replayed_requests``   -- parked/deferred DSM requests replayed once
  the rebuild finished.

All of those are deterministic simulated observables.  Results are
recorded in ``BENCH_recovery.json`` through the shared gate
(``benchmarks/gate.py``), which refuses a >25% growth of any window or
frame count:

    python -m benchmarks.bench_recovery            # refuses regressions
    python -m benchmarks.bench_recovery --force    # overwrite regardless
    make bench-recovery                            # same as the first form
"""

import os
import sys

from benchmarks import gate
from repro.scenarios import (default_payloads, homecrash_workload,
                             run_crash_recovery, run_fault_free)

GUARDS = {key: (0.25, "lower") for key in (
    "recovery_window_ns", "replay_window_ns", "frames_replayed",
    "retransmits", "rebuild_window_ns", "replayed_requests",
)}


def _measure(words_per_sender, payload_count, crash_delay_ns, dwell_ns):
    """One scale: crash run verified against the fault-free reference."""
    payloads = default_payloads(payload_count)
    reference = run_fault_free(words_per_sender, payloads)
    result = run_crash_recovery(
        words_per_sender, payloads, crash_delay_ns=crash_delay_ns,
        dwell_ns=dwell_ns,
    )

    assert result["complete"], "reliable channel never completed"
    assert result["hot_image"] == reference["hot_image"], (
        "recovered storm buffers diverge from the fault-free reference"
    )
    assert result["app_words"] == reference["app_words"], (
        "recovered channel buffer diverges from the fault-free reference"
    )
    return {
        "recovery_window_ns": result["recovery_window_ns"],
        "replay_window_ns": result["replay_window_ns"],
        "frames_replayed": result["frames_replayed"],
        "retransmits": result["retransmits"],
        "dropped_packets": result["dropped_packets"],
        "end_ns": result["end_time"],
    }


def _measure_homecrash():
    """The DSM home-crash scale: the ``dsm_homecrash`` scenario crashes
    home node 1 mid-run and the directory rebuild + lease replay
    recover it; verify the shared bytes against the closed form, and
    measure the rebuild window."""
    w = homecrash_workload()
    hub = w.system.instrumentation
    hub.enable_events(only_kinds={
        "dsm.rebuild_start", "dsm.rebuild_done",
        "fault.node_crash", "fault.node_restore",
    })
    w.run()

    crash = [e for e in hub.events() if e.kind == "fault.node_crash"]
    restore = [e for e in hub.events() if e.kind == "fault.node_restore"]
    assert len(crash) == len(restore) == 1, "recovery never completed"
    assert w.final_shared_bytes() == w.expected_homecrash(), (
        "recovered shared bytes diverge from the closed form"
    )
    starts = [e for e in hub.events() if e.kind == "dsm.rebuild_start"
              and e.fields["node"] == 1]
    dones = [e for e in hub.events() if e.kind == "dsm.rebuild_done"
             and e.fields["node"] == 1]
    assert len(starts) == 1 and len(dones) == 1, "expected one rebuild"
    return {
        "recovery_window_ns": restore[0].time - crash[0].time,
        "rebuild_window_ns": dones[0].time - starts[0].time,
        "replayed_requests": hub.value("dsm.replays"),
        "end_ns": w.system.sim.now,
    }


SCALES = {
    "storm_crash_midrun": lambda: _measure(
        words_per_sender=24, payload_count=12,
        crash_delay_ns=30_000, dwell_ns=4_000,
    ),
    "storm_crash_saturation": lambda: _measure(
        words_per_sender=48, payload_count=24,
        crash_delay_ns=60_000, dwell_ns=8_000,
    ),
    "dsm_homecrash": _measure_homecrash,
}


def main(argv=None):
    return gate.main(argv, SCALES, GUARDS,
                     os.path.join(gate.REPO_ROOT, "BENCH_recovery.json"))


if __name__ == "__main__":
    sys.exit(main())
