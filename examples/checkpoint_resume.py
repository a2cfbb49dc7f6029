"""Checkpoint/resume: pause a run, restore it in a fresh process, prove
nothing changed.

The ping-pong workload runs halfway, is advanced to the next safepoint
and saved with ``SystemCheckpoint.save``.  A *separate Python process*
(this script re-executed with ``--resume``) then loads the file, runs the
workload to completion and prints its fingerprint -- simulated clock,
executed-event count, every instrumentation metric, and a SHA-256 of
each node's DRAM.  The parent compares that against an uninterrupted
reference run: the two must be bit-for-bit identical, which is the whole
point of the ``repro.ckpt`` subsystem.

Run:  python examples/checkpoint_resume.py [pause_ns]
"""

import json
import subprocess
import sys
import tempfile

from repro.ckpt.divergence import diff_fingerprints, fingerprint
from repro.ckpt.safepoint import seek_safepoint
from repro.ckpt.system import SystemCheckpoint
from repro.scenarios import build_ping_pong


def resume_child(path):
    """Child mode: restore the checkpoint, finish the run, report."""
    system = SystemCheckpoint.load(path)
    system.run()
    print(json.dumps(fingerprint(system)))
    return 0


def main():
    if len(sys.argv) >= 3 and sys.argv[1] == "--resume":
        return resume_child(sys.argv[2])
    pause_ns = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000

    # The uninterrupted run is the ground truth.
    reference = build_ping_pong()
    reference.run()
    expected = fingerprint(reference)
    print("reference run:   t=%d ns, %d events"
          % (reference.sim.now, reference.sim.event_count))

    # Pause a second, identical run mid-flight and checkpoint it.
    paused = build_ping_pong()
    paused.run(until=pause_ns)
    stepped = seek_safepoint(paused)
    with tempfile.NamedTemporaryFile(suffix=".ckpt", delete=False) as handle:
        path = handle.name
    nbytes = SystemCheckpoint.save(paused, path)
    print("checkpointed:    t=%d ns (+%d events to reach a safepoint), "
          "%d bytes" % (paused.sim.now, stepped, nbytes))

    # Resume it in a FRESH PROCESS -- nothing survives but the file.
    result = subprocess.run(
        [sys.executable, __file__, "--resume", path],
        capture_output=True, text=True, timeout=300,
    )
    if result.returncode != 0:
        print(result.stderr, file=sys.stderr)
        return 1
    resumed = json.loads(result.stdout)
    print("resumed (child): t=%d ns, %d events"
          % (resumed["now"], resumed["event_count"]))

    problems = diff_fingerprints(expected, resumed, "reference", "resumed")
    if problems:
        print("DIVERGED:")
        for line in problems:
            print("  " + line)
        return 1
    print("fingerprints identical: clock, %d metrics, %d memory images"
          % (len(expected["metrics"]), len(expected["memory_sha256"])))
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
