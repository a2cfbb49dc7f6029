"""Checkpoint CLI: ``python -m repro.ckpt <command>``.

Commands:

- ``save <key> <path>``         run a :data:`~repro.scenarios.CHECKPOINTABLE`
  scenario, named by its pin key (``ping_pong@rounds=4``), up to
  ``--until``, advance to the next safepoint, and write a checkpoint.
- ``resume <path>``             restore a checkpoint and run it to
  completion; prints the final clock and key counters.
- ``diff <a> <b>``              structural diff of two checkpoint files'
  state trees (where exactly do two snapshots disagree?).
- ``verify <path>``             the replay-divergence detector: restore
  the snapshot twice, run both, demand identical fingerprints and
  byte-identical re-captured state.  Exit 1 on divergence.
- ``info <path>``               header and shape of a checkpoint file.

Usage errors, a bad key among them, exit with status 2 (argparse
convention); checkpoint errors (corruption, version mismatch, unsafe
instants) print the ``CkptError`` message and exit 1.
"""

import argparse
import json
import os
import sys

from repro.ckpt import fmt
from repro.ckpt.divergence import diff_states, fingerprint, verify_replay
from repro.ckpt.protocol import CkptError
from repro.ckpt.safepoint import seek_safepoint
from repro.ckpt.system import SystemCheckpoint
from repro.scenarios import CHECKPOINTABLE, build_key, parse_key


def _cmd_save(args):
    try:
        if parse_key(args.key)[0] not in CHECKPOINTABLE:
            raise ValueError("%r cannot be checkpointed; choose from %s"
                             % (args.key, ", ".join(CHECKPOINTABLE)))
        system = build_key(args.key)
    except ValueError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    if args.until:
        system.run(until=args.until)
    stepped = seek_safepoint(system, max_events=args.max_events)
    nbytes = SystemCheckpoint.save(system, args.path)
    print(
        "saved %s: scenario=%s t=%d ns (+%d events to safepoint), %d bytes"
        % (args.path, args.key, system.sim.now, stepped, nbytes)
    )
    return 0


def _cmd_resume(args):
    system = SystemCheckpoint.load(args.path)
    start_ns = system.sim.now
    system.run(until=args.until or None)
    print("resumed %s at t=%d ns, ran to t=%d ns (%d events total)"
          % (args.path, start_ns, system.sim.now, system.sim.event_count))
    for node in system.nodes:
        delivered = node.nic.packets_delivered.value
        if delivered:
            print("  %s: %d packets delivered" % (node.nic.name, delivered))
    if args.fingerprint:
        print(json.dumps(fingerprint(system), indent=2)[:2000])
    return 0


def _cmd_diff(args):
    state_a, ns_a = fmt.load(args.path_a)
    state_b, ns_b = fmt.load(args.path_b)
    print("%s: t=%d ns    %s: t=%d ns" % (args.path_a, ns_a,
                                          args.path_b, ns_b))
    problems = diff_states(state_a, state_b, limit=args.limit)
    if not problems:
        print("checkpoints are identical")
        return 0
    for line in problems:
        print("  " + line)
    if len(problems) >= args.limit:
        print("  ... (diff truncated at %d entries)" % args.limit)
    return 1


def _cmd_verify(args):
    state, sim_ns = fmt.load(args.path)
    print("verifying replay determinism of %s (t=%d ns)..."
          % (args.path, sim_ns))
    problems = verify_replay(state)
    if not problems:
        print("OK: two independent resumes are bit-for-bit identical")
        return 0
    print("REPLAY DIVERGED:")
    for line in problems:
        print("  " + line)
    return 1


def _cmd_info(args):
    state, sim_ns = fmt.load(args.path)  # also verifies the checksum
    print("file:      %s (%d bytes)" % (args.path, os.path.getsize(args.path)))
    print("format:    %s v%d" % (fmt.MAGIC, fmt.VERSION))
    print("sim time:  %d ns" % sim_ns)
    print("payload:   sha256 %s" % fmt.payload_digest(state))
    print("config:    %s (%dx%d, %d nodes)"
          % (state["config"], state["width"], state["height"],
             len(state["system"]["nodes"])))
    workers = state["workers"]
    print("workers:   %d (%d finished)"
          % (len(workers), sum(1 for w in workers if w["finished"])))
    print("events:    %d pending descriptors" % len(state["descriptors"]))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.ckpt",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_save = sub.add_parser("save", help="run a scenario and checkpoint it")
    p_save.add_argument("key", help="scenario pin key, e.g. "
                        "ping_pong@rounds=4 (scenarios: %s)"
                        % ", ".join(CHECKPOINTABLE))
    p_save.add_argument("path")
    p_save.add_argument("--until", type=int, default=0,
                        help="simulated ns to run before checkpointing")
    p_save.add_argument("--max-events", type=int, default=1_000_000,
                        help="safepoint-seek event budget (default 1000000)")
    p_save.set_defaults(fn=_cmd_save)

    p_resume = sub.add_parser("resume", help="restore and run a checkpoint")
    p_resume.add_argument("path")
    p_resume.add_argument("--until", type=int, default=0,
                          help="simulated ns to stop at (default: run to idle)")
    p_resume.add_argument("--fingerprint", action="store_true",
                          help="print the run fingerprint as JSON")
    p_resume.set_defaults(fn=_cmd_resume)

    p_diff = sub.add_parser("diff", help="diff two checkpoint files")
    p_diff.add_argument("path_a")
    p_diff.add_argument("path_b")
    p_diff.add_argument("--limit", type=int, default=20)
    p_diff.set_defaults(fn=_cmd_diff)

    p_verify = sub.add_parser("verify",
                              help="prove a checkpoint replays exactly")
    p_verify.add_argument("path")
    p_verify.set_defaults(fn=_cmd_verify)

    p_info = sub.add_parser("info", help="describe a checkpoint file")
    p_info.add_argument("path")
    p_info.set_defaults(fn=_cmd_info)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CkptError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
