"""Checkpoint benchmarks: snapshot size at two system scales.

Measures the ``repro.ckpt`` subsystem at two system scales:

- ``ping_pong_midflight`` -- the 2-node golden ping-pong paused at a
  mid-flight safepoint (live workers, in-flight protocol state);
- ``contention_end``      -- the 4x4 contention storm captured at end of
  run (16 nodes of memory image, finished workers, drained queues).

For each scale it saves a checkpoint, records its size in bytes (a
deterministic observable -- the format is canonical JSON), loads it
back, and proves the restored system is exact by diffing its
fingerprint against the original run.  Results are recorded in
``BENCH_ckpt.json`` through the shared gate (``benchmarks/gate.py``):

    python -m benchmarks.bench_ckpt            # refuses regressions
    python -m benchmarks.bench_ckpt --force    # overwrite regardless
    make bench-ckpt                            # same as the first form

A checkpoint that grew >10% refuses to record: state that sneaks into
the snapshot is a format change and should be a deliberate one.
"""

import os
import sys
import tempfile

from benchmarks import gate
from repro.ckpt.divergence import diff_fingerprints, fingerprint
from repro.ckpt.safepoint import seek_safepoint
from repro.ckpt.system import SystemCheckpoint
from repro.scenarios import build_contention, build_ping_pong

GUARDS = {"ckpt_bytes": (0.10, "lower")}


def _measure(build, pause_ns, **kwargs):
    """Checkpoint one scale; returns the result dict.

    Runs the workload (to ``pause_ns`` and the next safepoint, or to
    completion when ``pause_ns`` is None), saves and loads it, and
    asserts the restored system finishes bit-for-bit identical to the
    uninterrupted original.
    """
    reference = build(**kwargs)
    reference.run()
    expected = fingerprint(reference)

    system = build(**kwargs)
    if pause_ns is None:
        system.run()
    else:
        system.run(until=pause_ns)
        seek_safepoint(system)

    with tempfile.NamedTemporaryFile(suffix=".ckpt", delete=False) as handle:
        path = handle.name
    try:
        nbytes = SystemCheckpoint.save(system, path)
        restored = SystemCheckpoint.load(path)
    finally:
        os.unlink(path)

    restored.run()
    problems = diff_fingerprints(expected, fingerprint(restored),
                                 "reference", "restored")
    assert problems == [], problems
    return {
        "ckpt_bytes": nbytes,
        "pause_ns": system.sim.now if pause_ns is not None else None,
        "final_ns": restored.sim.now,
        "nodes": len(restored.nodes),
    }


SCALES = {
    "ping_pong_midflight": lambda: _measure(
        build_ping_pong, pause_ns=20_000, rounds=8),
    "contention_end": lambda: _measure(
        build_contention, pause_ns=None, words_per_sender=8),
}


def main(argv=None):
    return gate.main(argv, SCALES, GUARDS,
                     os.path.join(gate.REPO_ROOT, "BENCH_ckpt.json"))


if __name__ == "__main__":
    sys.exit(main())
